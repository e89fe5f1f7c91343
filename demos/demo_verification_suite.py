"""Driving the verification harness from Python.

A suite is a (flow x check x grid) matrix graded against tolerances. Reports
hash identically from run to run; convergence studies emit plot-ready
two-column data. The same machinery backs the ``flowmaplab`` command line:

    flowmaplab run suites/cauchy-core.json
    flowmaplab converge circulation.stokes rigid_rotation --grids 64x64,128x128,256x256
    flowmaplab flows list
    flowmaplab report diff a.json b.json
"""

import json
import tempfile
import pathlib

from flowmaplab.suite import convergence_study, run_suite

cfg = {
    "name": "demo",
    "rind": 1,
    "stencil_order": 2,
    "time_fractions": [0.0, 0.125, 0.25],
    "flows": [
        {"name": "rigid_rotation", "params": {"omega": 1.0}},
        {"name": "gerstner", "params": {"k": 1.0, "g": 1.0}},
    ],
    "checks": [
        {"id": "cauchy.invariant_drift", "tolerance": 5e-3,
         "options": {"mode": "fd"}, "min_order": 1.8},
        {"id": "flowmap.density_lagrangian", "tolerance": 1e-9},
        {"id": "flowmap.cofactor_identity", "tolerance": 1e-10},
    ],
    "grids": [[32, 32], [64, 64]],
}

print("--- running a small matrix ------------------------------------")
report, code = run_suite(cfg)
for r in report.rows:
    order = "" if r.order is None else f"  order {r.order:.2f}"
    print(f"  [{'pass' if r.passed else 'FAIL'}] {r.flow:15s} {r.check:28s} "
          f"{r.grid:7s} linf {r.linf:.2e}{order}")
print("  exit code:", code)

h1 = report.determinism_hash()
h2 = run_suite(cfg)[0].determinism_hash()
print(f"  hash first run:  {h1[:24]}...")
print(f"  hash second run: {h2[:24]}...  (identical: {h1 == h2})")

print("\n--- convergence study -------------------------------------------")
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "stokes.dat"
    out = convergence_study("circulation.stokes", "rigid_rotation",
                            resolutions=[(64, 64), (128, 128), (256, 256)],
                            flow_params={"omega": 0.1}, out_path=path)
    print(path.read_text().strip())
    print(f"  fitted order: {out['order']:.3f}")

print("\n--- report serialization ----------------------------------------")
with tempfile.TemporaryDirectory() as tmp:
    rep = pathlib.Path(tmp) / "report.json"
    rows = pathlib.Path(tmp) / "rows.csv"
    report.to_json(rep)
    report.to_csv(rows)
    data = json.loads(rep.read_text())
    print("  JSON keys:", sorted(data.keys()))
    print("  CSV header:", rows.read_text().splitlines()[0])
