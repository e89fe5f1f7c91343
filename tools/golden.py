"""Golden rows: every number the shipped suites and the benchmark produce.

For each shipped suite config (suites/*.json), each suite config of the
benchmark (perfbench/workloads.py, read from its file) and the golden-only
``ANALYTIC`` config below, the golden file holds the report's determinism hash and every row's flow, check, grid,
``linf`` and ``order`` (as ``float.hex``) and ``passed``. It also holds the
hash of the velocities of the benchmark's seed-1 ``biot_savart`` job, taken
as the benchmark's worker takes it. Run from the repository root:

    python tools/golden.py            # recompute; print each changed row
    python tools/golden.py --write    # rewrite tests/golden.json

The first form exits 1 when anything moved. A change that means to move
numbers rewrites the file with ``--write`` and names the old and new hashes
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
BIOT_SEED = 1


def workloads():
    """perfbench/workloads.py, loaded from its file (it imports only the
    standard library)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def analytic_config(grid_checks):
    """The grid checks on their analytic paths (the maps' registered label
    and velocity partials), the living force and Kelvin's loop, on two
    closed-form flows: numbers no shipped suite or benchmark config pins."""
    checks = [{"id": c, "tolerance": 1.0, "options": {"mode": "auto"}} for c in grid_checks]
    checks += [{"id": c, "tolerance": 1.0}
               for c in ("energy.living_force_drift", "circulation.kelvin_drift")]
    return {"name": "golden-analytic", "flows": [{"name": "gerstner"}, {"name": "rigid_rotation"}],
            "checks": checks, "grids": [[32, 32], [64, 64]]}


def configs():
    """(key, config) for every config the golden file covers, in file order."""
    out = [(f"suites/{path.stem}", json.loads(path.read_text()))
           for path in sorted((ROOT / "suites").glob("*.json"))]
    wl = workloads()
    for workload, spec in wl.WORKLOADS.items():
        if spec["kind"] == "suite":
            out += [(f"{workload}/{cfg['name']}", cfg) for cfg in spec["configs"]()]
    return out + [("golden/analytic", analytic_config(wl.GRID_CHECKS))]


def _hex(x):
    return None if x is None else float(x).hex()


def suite_entry(cfg):
    from flowmaplab.suite import run_suite

    report, _ = run_suite(cfg)
    return {"hash": report.determinism_hash(),
            "rows": [{"flow": r.flow, "check": r.check, "grid": r.grid, "linf": _hex(r.linf),
                      "order": _hex(r.order), "passed": r.passed} for r in report.rows]}


def biot_hash(seed=BIOT_SEED):
    """sha256 of the exterior then the ring velocities of the benchmark's
    ``biot_savart`` job under ``seed``, as float64 bytes."""
    import numpy as np

    from flowmaplab import gaussian_swirl_blob, velocity_from_vorticity

    job = workloads().make_job("biot_savart", seed)
    source = gaussian_swirl_blob(**job["blob"])[0]
    u = [np.asarray(velocity_from_vorticity(source, job[key], allow_interior_targets=interior),
                    dtype=np.float64)
         for key, interior in (("exterior", False), ("ring", True))]
    return hashlib.sha256(u[0].tobytes() + u[1].tobytes()).hexdigest()


def compute():
    return {"configs": {key: suite_entry(cfg) for key, cfg in configs()},
            "biot_savart": {"seed": BIOT_SEED, "velocity_hash": biot_hash()}}


def _keyed(rows):
    """(flow, check, grid, n) and the row: the n-th row with that triple, as
    ``report diff`` matches rows."""
    seen = {}
    for r in rows:
        base = (r["flow"], r["check"], r["grid"])
        seen[base] = seen.get(base, -1) + 1
        yield base + (seen[base],), r


def _show(field, value):
    if field in ("linf", "order") and value is not None:
        return repr(float.fromhex(value))
    return repr(value)


def changes(old, new):
    """One line per moved hash, per changed row and per row or config found
    on one side only; empty when ``new`` matches ``old`` exactly."""
    lines = []
    for key in sorted(set(old["configs"]) | set(new["configs"])):
        a, b = old["configs"].get(key), new["configs"].get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'new' if a is None else 'golden'}")
            continue
        if a["hash"] != b["hash"]:
            lines.append(f"{key}: hash {a['hash'][:16]}... -> {b['hash'][:16]}...")
        rows_a, rows_b = dict(_keyed(a["rows"])), dict(_keyed(b["rows"]))
        for k in sorted(set(rows_a) | set(rows_b)):
            ra, rb = rows_a.get(k), rows_b.get(k)
            if ra is None or rb is None:
                lines.append(f"{key} {k}: only in {'new' if ra is None else 'golden'}")
                continue
            diffs = [f"{f} {_show(f, ra[f])} -> {_show(f, rb[f])}"
                     for f in ("linf", "order", "passed") if ra[f] != rb[f]]
            if diffs:
                lines.append(f"{key} {k}: {', '.join(diffs)}")
    if old["biot_savart"] != new["biot_savart"]:
        lines.append(f"biot_savart: {old['biot_savart']} -> {new['biot_savart']}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write"]):
        print(__doc__)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    current = compute()
    if argv:
        GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    moved = changes(json.loads(GOLDEN.read_text()), current)
    print("\n".join(moved) if moved else "golden rows unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
