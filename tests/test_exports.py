"""Each flowmaplab module's __all__ names what the module defines publicly."""

import importlib
import inspect
import pkgutil

import pytest

import flowmaplab

MODULES = sorted(info.name for info in pkgutil.iter_modules(flowmaplab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_lists_every_public_function_and_class(name):
    mod = importlib.import_module(f"flowmaplab.{name}")
    exported = mod.__all__
    assert [n for n in exported if not hasattr(mod, n)] == []
    public = {n for n, obj in vars(mod).items()
              if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert sorted(public - set(exported)) == []


def test_surface_census_counts_the_tree(tmp_path):
    # tools/surface_census.py, loaded from its file: three positive counts,
    # and the tool imports only the standard library and flowmaplab. This
    # process has imported flowmaplab already; the census still counts the
    # tree it is given, so a copy without mass_integral_transform (three
    # parameters) counts one name and three settable values fewer.
    import ast
    import importlib.util
    import shutil
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    path = root / "tools" / "surface_census.py"
    spec = importlib.util.spec_from_file_location("surface_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    counts = census.census()
    assert list(counts) == ["lines", "public names", "settable values"]
    assert all(type(v) is int and v > 0 for v in counts.values()), counts

    pkg = tmp_path / "src" / "flowmaplab"
    shutil.copytree(root / "src" / "flowmaplab", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("flowmap.py", "__init__.py"):
        text = (pkg / name).read_text()
        text = text.replace('    "mass_integral_transform",\n', "")
        text = text.replace("    mass_integral_transform,\n", "")
        start = text.find("\ndef mass_integral_transform(")
        if start >= 0:
            text = text[:start] + text[text.index("\n\n\n", start):]
        (pkg / name).write_text(text)
    fewer = census.census(tmp_path / "src")
    assert fewer["public names"] == counts["public names"] - 1
    assert fewer["settable values"] == counts["settable values"] - 3
    assert fewer["lines"] < counts["lines"]

    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) <= {"flowmaplab"}, imported
