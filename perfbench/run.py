"""flowmaplab benchmark: one workload (or all) through the public API.

    python3 perfbench/run.py --workload sampled_matrix --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src``. Every repetition runs in a fresh single-threaded worker
process (``worker.py``), because ``flowmaplab run`` is a one-shot CLI and
its users pay imports and lazy imports on every run. Repetitions run one at
a time until ``--seconds`` have passed, and at least twice, so that the
determinism hashes of two repetitions can be compared. A few extra workers
only set up, so that ``setup_s`` is a median over several fresh interpreters.

With ``--trace 1`` the untraced repetitions are followed by one traced
repetition (``tracing.py``), and the per-layer metrics are reported instead
of the end-to-end ones. Outputs of every repetition are checked
(``workloads.grade``); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A result file
with provenance and the per-repetition figures, and the traced run's spans,
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPS = 3
SETUP_ONLY_WORKERS = 5
# a run must end well inside 180 s: no repetition starts that would not
# finish inside this budget, judged by the previous one
BUDGET_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# (span name, metric prefix, fields); "work" fields come from the span's
# argument-derived counter (see tracing.WORK)
LAYERS = [
    ("flows.rk4_advect", None, ("calls", "s", "point_steps")),
    ("flows.integrate_trajectories", None, ("s",)),
    ("flows.catalog_flow", None, ("calls", "s")),
    ("flowmap.validate_analytic_partials", None, ("s",)),
    ("flowmap.SampledFlowMap.positions", None, ("calls", "table_hit_ratio")),
    ("flowmap.SampledFlowMap.velocities", None, ("s",)),
    ("flowmap.invert_map", None, ("calls", "s", "points", "newton_iters")),
    ("flowmap.resample_velocity_2d", None, ("s",)),
    ("grids.differentiate", None, ("calls", "s", "points")),
    ("grids.LabelGrid.nodes3", None, ("calls", "s")),
    ("grids.summarize_residual", None, ("s",)),
    ("flowmap.deformation_gradient", None, ("calls", "s")),
    ("flowmap.det3", None, ("s",)),
    ("flowmap.adjugate3", None, ("s",)),
    ("dynamics.lagrangian_eom_residual", None, ("calls", "s")),
    ("cauchy.cauchy_invariants", None, ("s",)),
    ("circulation.kelvin_drift", None, ("s",)),
    ("biotsavart.velocity_from_vorticity", None, ("s", "kernel_pairs", "pairs_per_s")),
    ("biotsavart.VorticitySource", None, ("s",)),
    ("suite.run_suite", None, ("s", "self_s")),
    ("reporting.VerificationReport.determinism_hash", "reporting.determinism_hash", ("s",)),
]
WORK_FIELDS = {"point_steps", "points", "kernel_pairs"}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "point_steps": "count", "points": "count",
         "newton_iters": "count", "kernel_pairs": "count", "table_hit_ratio": "ratio",
         "pairs_per_s": "1/s"}


def per_layer_units():
    units = {}
    for span, prefix, fields in LAYERS:
        for f in fields:
            units[f"{prefix or span}.{f}"] = UNITS[f]
    units["trace_overhead_frac"] = "ratio"
    return units


def layer_metrics(trace, overhead):
    stats, derived = trace["stats"], trace["derived"]
    out = {}
    for span, prefix, fields in LAYERS:
        st = stats.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        for f in fields:
            if f in WORK_FIELDS:
                v = st["work"]
            elif f == "table_hit_ratio":
                v = derived["table_hits"] / st["calls"] if st["calls"] else 0.0
            elif f == "newton_iters":
                v = derived["newton_iters"]
            elif f == "pairs_per_s":
                v = st["work"] / st["s"] if st["s"] > 0 else 0.0
            else:
                v = st[f]
            out[f"{prefix or span}.{f}"] = v
    out["trace_overhead_frac"] = overhead
    return out


def call_worker(job, timeout):
    """Run one job in a fresh interpreter; returns its result, or an error."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", FLOWMAPLAB_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    job = workloads.make_job(name, seed)
    start = time.perf_counter()

    def remaining():
        return BUDGET_S - (time.perf_counter() - start)

    setups = []
    for _ in range(SETUP_ONLY_WORKERS):
        r = call_worker(dict(job, mode="setup"), remaining())
        if "error" not in r:
            setups.append(r["setup_s"])
    # a traced run keeps half its budget for the traced repetition
    reserve = BUDGET_S / 2 if trace else 0.0
    min_reps = 1 if trace else MIN_REPS
    reps, op_start = [], time.perf_counter()
    while True:
        t = time.perf_counter()
        reps.append(call_worker(dict(job, mode="op"), max(10.0, remaining() + 20)))
        last = time.perf_counter() - t
        if len(reps) >= min_reps and ("error" in reps[-1]
                                      or time.perf_counter() - op_start >= seconds):
            break
        if 1.2 * last > remaining() - reserve:
            break
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.json"
        traced = call_worker(dict(job, mode="op", trace=True, spans_path=str(spans)),
                             max(10.0, remaining() + 25))
    graded = reps + ([traced] if trace else [])
    failed, attempted, notes = workloads.grade(job, graded)
    ok = [r for r in reps if "error" not in r]
    setups += [r["setup_s"] for r in ok]
    compared = sum(1 for r in graded if "error" not in r) >= 2
    if not compared:
        notes.append("determinism hash not compared: fewer than two repetitions completed")
    res = {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "failed": failed,
        "attempted": attempted,
        "correct": failed == 0 and compared and bool(ok),
        "notes": notes,
        "versions": ok[0]["versions"] if ok else {},
        "elapsed_s": BUDGET_S - remaining(),
    }
    if ok:
        res["metrics"] = {k: statistics.median(res[k]) for k in END_TO_END}
    if trace and "error" not in traced and ok:
        res["traced_wall_s"] = traced["wall_s"]
        res["spans"] = traced["trace"]["spans"]
        res["layers"] = layer_metrics(traced["trace"],
                                      traced["wall_s"] / res["metrics"]["wall_s"] - 1.0)
    elif trace:
        res["correct"] = False
    return res


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unavailable (not a git checkout)"
    return "unknown"


def cache_sizes():
    out = {"l2": "unknown", "l3": "unknown"}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return out
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            out[key.strip()[:2].lower()] = value.strip()
    return out


def provenance(name, seed, versions):
    what, nbytes = workloads.WORKLOADS[name]["largest_array"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy", "unknown"),
        "scipy": versions.get("scipy", "unknown"),
        "nproc": os.cpu_count(),
        **cache_sizes(),
        "seed": seed,
        "largest_array": {"what": what, "bytes": nbytes, "bytes_are": "computed"},
    }


def report(res, trace, units):
    name = res["workload"]
    print(f"== {name}  seed {res['seed']}  {res['reps']} op repetition(s)"
          f"{' + 1 traced' if trace else ''}, {len(res['setup_s'])} set-ups, "
          f"{res['elapsed_s']:.1f} s ==")
    for k, unit in END_TO_END.items():
        vals = res[k]
        if vals:
            print(f"  {k:<12} {statistics.median(vals):12.6g} {unit:<4} median of {len(vals)}"
                  f"  (min {min(vals):.6g}, max {max(vals):.6g})")
        else:
            print(f"  {k:<12} {'n/a':>12} {unit:<4} no repetition completed")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'fail_frac':<12} {frac:12.6g} {'1':<4} {res['failed']} failed of "
          f"{res['attempted']} attempted rows/targets")
    for note in res["notes"][:20]:
        print(f"  ! {note}")
    if len(res["notes"]) > 20:
        print(f"  ! ... {len(res['notes']) - 20} more")
    if trace and "layers" in res:
        for k, v in res["layers"].items():
            print(f"  {k:<52} {v:14.6g} {units[k]}")
    print(f"  provenance {json.dumps(res['provenance'], sort_keys=True)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowmaplab" / "__init__.py").is_file():
        print(f"no flowmaplab sources under {ROOT / 'src'}: run inside a source checkout",
              file=sys.stderr)
        return 2
    units = per_layer_units()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    produced = units if args.trace else END_TO_END
    if declared != produced:
        print("BENCHMARK.json and perfbench/run.py disagree on metric names or units",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res["provenance"] = provenance(name, args.seed, res["versions"])
        report(res, bool(args.trace), units)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        results.append(res)

    values = {}
    for res in results:
        got = res.get("layers" if args.trace else "metrics")
        if got is None:
            continue
        for k, v in got.items():
            values[k if len(results) == 1 else f"{res['workload']}/{k}"] = (v, produced[k])
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": max(1, sum(r["attempted"] for r in results)),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
