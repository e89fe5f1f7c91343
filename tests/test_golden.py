"""Golden rows: every number of the shipped suites and the benchmark configs,
pinned bit for bit in tests/golden.json (written by tools/golden.py)."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _golden_tool():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_golden_row_recomputes_bit_for_bit():
    golden = _golden_tool()
    moved = golden.changes(json.loads(golden.GOLDEN.read_text()), golden.compute())
    for line in moved:
        print(line)
    assert not moved, (f"{len(moved)} golden line(s) moved; a change meant to move numbers "
                       "rewrites tests/golden.json with tools/golden.py --write:\n"
                       + "\n".join(moved))


def test_a_one_ulp_move_names_its_row():
    golden = _golden_tool()
    old = json.loads(golden.GOLDEN.read_text())
    assert len(old["configs"]) == 10 and old["biot_savart"]["seed"] == 1
    new = copy.deepcopy(old)
    key = "grid_calculus/perfbench-gerstner"
    row = next(r for r in new["configs"][key]["rows"]
               if r["check"] == "flowmap.cofactor_identity" and r["grid"] == "256x256")
    linf = float.fromhex(row["linf"])
    row["linf"] = float(np.nextafter(linf, 1.0)).hex()
    lines = golden.changes(old, new)
    assert lines == [f"{key} ('gerstner', 'flowmap.cofactor_identity', '256x256', 0): "
                     f"linf {linf!r} -> {float.fromhex(row['linf'])!r}"]
    new["configs"][key]["hash"] = "0" * 64
    new["biot_savart"]["velocity_hash"] = "1" * 64
    lines = golden.changes(old, new)
    assert len(lines) == 3 and lines[0].startswith(f"{key}: hash ")
    assert lines[-1].startswith("biot_savart: ")
