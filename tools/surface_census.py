"""Count the public surface of the flowmaplab package.

Prints three numbers:
  lines           lines in src/flowmaplab/*.py
  public names    every name in a flowmaplab module's __all__, constants
                  included, plus every public method: a function, classmethod
                  or staticmethod in an exported class's own namespace whose
                  name does not start with "_"
  settable values every parameter of every exported function, public method
                  and exported class constructor, with self and cls excluded

flowmaplab/__init__ only re-exports, so it is not counted. Properties and
dataclass fields are not names here; a field is counted as a constructor
parameter. Uses the standard library only. Run from the repository root,
optionally naming another source tree (the directory holding flowmaplab/):

    python tools/surface_census.py [src]

``census(src)`` runs this script in a fresh interpreter, so the counts are
those of the tree at ``src`` even in a process that has already imported
another flowmaplab.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _params(fn):
    try:
        sig = inspect.signature(fn)
    except ValueError:  # an exception class that keeps the builtin constructor
        return 0
    return sum(1 for p in sig.parameters if p not in ("self", "cls"))


def _public_methods(cls):
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if inspect.isfunction(attr):
            yield attr


def census(src=SRC):
    """The three counts of the tree at ``src``, taken in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, str(Path(src).resolve())],
                         capture_output=True, text=True, check=True).stdout
    return {key: int(value) for key, value in (line.split(": ") for line in out.splitlines())}


def _count(src):
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import flowmaplab

    pkg = Path(flowmaplab.__file__).resolve().parent
    if pkg != src / "flowmaplab":
        raise SystemExit(f"imported flowmaplab from {pkg}, not from {src}")
    lines = sum(len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py")))
    names = settable = 0
    for info in pkgutil.iter_modules(flowmaplab.__path__):
        mod = importlib.import_module(f"flowmaplab.{info.name}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            names += 1
            if inspect.isclass(obj):
                settable += _params(obj)
                for method in _public_methods(obj):
                    names += 1
                    settable += _params(method)
            elif inspect.isfunction(obj):
                settable += _params(obj)
    return {"lines": lines, "public names": names, "settable values": settable}


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    for key, value in _count(src).items():
        print(f"{key}: {value}")
