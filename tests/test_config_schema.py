"""The suite config checker against jsonschema, and the runtime's imports.

``load_config`` walks CONFIG_SCHEMA with its own checker
(``suite._schema_errors``), so running a suite never imports jsonschema.
These tests hold that checker to ``jsonschema.Draft202012Validator`` on the
shipped and benchmark configs, on one or more mutations per schema keyword
at every path, and on random mutations: both must accept or reject alike,
with the same errors at the same paths.
"""

import ast
import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmaplab.suite import (
    CONFIG_SCHEMA, ConfigError, _KEYWORDS, _TYPES, _config_path, _schema_errors, load_config,
)

ROOT = Path(__file__).resolve().parents[1]
VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

# a config that reaches every path of CONFIG_SCHEMA
FULL = {
    "name": "full",
    "seed": 0,
    "threads": 1,
    "rind": 1,
    "stencil_order": 2,
    "time_fractions": [0.0, 0.125, 0.25],
    "flows": [{"name": "rigid_rotation", "params": {"omega": 1.0}}],
    "checks": [
        {"id": "circulation.stokes", "tolerance": 1.0, "min_order": 1.5,
         "options": {"radius": 0.25, "points": 32, "radial_points": 8,
                     "center": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]}},
        {"id": "cauchy.invariant_drift", "tolerance": 1.0, "options": {"mode": "fd"}},
    ],
    "grids": [[16, 16], [32, 32]],
    "out": {"report": "r.json", "rows": "r.csv"},
}

# values that are not of each type
WRONG_TYPE = {
    "object": [[], "x", 1],
    "array": [{}, "x", 1.0],
    "string": [1, None, ["x"]],
    "number": ["1", True, None, [1.0]],
    "integer": [1.5, "1", False, None],
}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def _keyword_mutations(node, schema):
    """(keyword, copy of node broken or probed at one path) for each keyword
    of ``schema`` and of every subschema ``node`` reaches."""
    for wrong in WRONG_TYPE[schema["type"]] if "type" in schema else ():
        yield "type", wrong
    if "enum" in schema:
        first = schema["enum"][0]
        for value in ("nope", True, float(first) if _TYPES["number"](first) else first.upper()):
            yield "enum", value
    if "minimum" in schema:
        for value in (schema["minimum"] - 1, schema["minimum"], float(schema["minimum"])):
            yield "minimum", value
    if "exclusiveMinimum" in schema:
        for value in (schema["exclusiveMinimum"], schema["exclusiveMinimum"] - 1e-9):
            yield "exclusiveMinimum", value
    if "minItems" in schema:
        yield "minItems", node[:schema["minItems"] - 1]
    if "maxItems" in schema:
        yield "maxItems", node + node[:1] * (schema["maxItems"] + 1 - len(node))
    for key in schema.get("required", ()):
        yield "required", {k: v for k, v in node.items() if k != key}
    if "additionalProperties" in schema:
        yield "additionalProperties", dict(node, unlisted=1)
    for key, sub in schema.get("properties", {}).items():
        if key in node:
            for keyword, value in _keyword_mutations(node[key], sub):
                yield keyword, dict(node, **{key: value})
    for i, item in enumerate(node if "items" in schema else ()):
        for keyword, value in _keyword_mutations(item, schema["items"]):
            yield keyword, node[:i] + [value] + node[i + 1:]


def _assert_agrees(cfg):
    """The walker and jsonschema report the same (path, keyword, message)
    errors, up to the accepted names the walker appends, and load_config
    raises the error it raised when it called jsonschema's best_match."""
    ours = Counter((path, keyword, message.split("; accepted: ")[0])
                   for path, keyword, message in _schema_errors(cfg, CONFIG_SCHEMA))
    theirs = Counter((tuple(e.absolute_path), e.validator, e.message)
                     for e in VALIDATOR.iter_errors(cfg))
    assert ours == theirs
    if theirs and isinstance(cfg, dict):  # load_config reads anything else as a path
        best = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(cfg))
        want = f"{_config_path(best.absolute_path)}: {best.message}"
        if best.validator == "additionalProperties":
            want += f"; accepted: {', '.join(best.schema['properties'])}"
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert str(exc.value) == want


def _benchmark_configs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cfg for w in workloads.WORKLOADS.values() if "configs" in w for cfg in w["configs"]()]


def test_every_schema_keyword_is_implemented():
    used = set().union(*(sub.keys() for sub in _subschemas(CONFIG_SCHEMA)))
    assert used <= _KEYWORDS
    assert all(sub["type"] in _TYPES for sub in _subschemas(CONFIG_SCHEMA) if "type" in sub)
    assert all(sub["additionalProperties"] is False
               for sub in _subschemas(CONFIG_SCHEMA) if "additionalProperties" in sub)


@pytest.mark.parametrize("schema", [{"maximum": 3}, {"type": "integer", "multipleOf": 2},
                                    {"additionalProperties": {"type": "string"}}])
def test_an_unimplemented_keyword_raises(schema):
    with pytest.raises(NotImplementedError):
        list(_schema_errors({}, schema))


@pytest.mark.parametrize("node,schema", [
    (True, {"type": "number"}), (True, {"type": "integer"}), (2.0, {"type": "integer"}),
    (2.5, {"type": "integer"}), (True, {"enum": [1, 2]}), (1.0, {"enum": [1, 2]}),
    (False, {"enum": [0, False]}), ("1", {"enum": [1]}), (True, {"minimum": 2}),
    (0, {"exclusiveMinimum": 0}), (0.0, {"exclusiveMinimum": 0}), ("x", {"minItems": 2}),
    ([], {"minItems": 1}), ([1, 2], {"maxItems": 1}),
    ({"a": 1, "b": 2}, {"properties": {"a": {}}, "additionalProperties": False}),
    ([{}, {"b": 1}], {"items": {"required": ["a", "b"]}}),
])
def test_keyword_semantics_agree(node, schema):
    # bools against numbers and enums, integral floats, bounds at their edge
    ours = [(path, keyword, message.split("; accepted: ")[0])
            for path, keyword, message in _schema_errors(node, schema)]
    theirs = [(tuple(e.absolute_path), e.validator, e.message)
              for e in jsonschema.Draft202012Validator(schema).iter_errors(node)]
    assert Counter(ours) == Counter(theirs)


def test_shipped_and_benchmark_configs_agree():
    suites = [json.loads(p.read_text()) for p in sorted((ROOT / "suites").glob("*.json"))]
    configs = suites + _benchmark_configs() + [FULL]
    assert len(configs) > 3
    for cfg in configs:
        assert list(_schema_errors(cfg, CONFIG_SCHEMA)) == []
        _assert_agrees(cfg)


def test_every_keyword_mutation_agrees():
    mutations = list(_keyword_mutations(FULL, CONFIG_SCHEMA))
    # every keyword of the schema is probed at least once
    assert {k for k, _ in mutations} == set().union(
        *(sub.keys() for sub in _subschemas(CONFIG_SCHEMA))) - {"$schema", "properties", "items"}
    rejected = 0
    for _, cfg in mutations:
        _assert_agrees(cfg)
        rejected += bool(list(_schema_errors(cfg, CONFIG_SCHEMA)))
    assert 0 < rejected < len(mutations)


_KEYS = sorted({name for sub in _subschemas(CONFIG_SCHEMA) for name in sub.get("properties", {})}
               | {"unlisted"})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    | st.sampled_from(["fd", "auto", "FD", "x"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_configs(draw):
    cfg = copy.deepcopy(FULL)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(cfg) if p]))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(_KEYS))] = draw(_JSON)
        else:
            parent.append(draw(_JSON))
    return cfg


@settings(max_examples=300, deadline=None)
@given(_mutated_configs())
def test_random_mutations_agree(cfg):
    _assert_agrees(cfg)


def _fresh_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_load_config_leaves_jsonschema_unimported(tmp_path):
    out = _fresh_python(
        "import sys\nimport flowmaplab.suite\n"
        f"flowmaplab.suite.load_config({str(ROOT / 'suites' / 'cauchy-core.json')!r})\n"
        "print('jsonschema' in sys.modules)", tmp_path)
    assert out == ["False"]


def test_flowmaplab_run_leaves_jsonschema_unimported(tmp_path):
    # the config's rows file lands in the working directory
    out = _fresh_python(
        "import sys\nfrom flowmaplab.cli import main\n"
        f"code = main(['run', {str(ROOT / 'suites' / 'cauchy-core.json')!r}, "
        f"'--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(code, 'jsonschema' in sys.modules)", tmp_path)
    assert out[-2:] == ["0", "False"]


def test_library_imports_only_its_declared_dependencies():
    # every import in src/flowmaplab, lazy ones too, by top-level package
    imported = set()
    for path in (ROOT / "src" / "flowmaplab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "flowmaplab"}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[\w.-]+", dep)[0] for dep in deps} == {"numpy"}
