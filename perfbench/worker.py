"""One repetition of a benchmark workload, run in a fresh interpreter.

Reads a job (JSON, from ``workloads.make_job`` plus ``mode``) on stdin and
prints one JSON result line on stdout. Only the standard library is loaded
before the set-up clock starts, so ``setup_s`` covers ``import flowmaplab``,
``load_config`` of the workload's configs and, for biot_savart, building
and validating the Gaussian blob source.

    mode "setup": set up, report setup_s, exit.
    mode "op":    set up, then time one workload operation (every suite
                  config through run_suite plus its determinism hash, or one
                  Biot-Savart reconstruction at both target sets).

With ``trace`` set, spans (``tracing.py``) are installed right after the
import, so set-up and operation are both traced; the spans are written to
``spans_path`` when one is given.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import resource
import sys
import time


def run_job(job):
    t0 = time.perf_counter()
    import flowmaplab
    import flowmaplab.suite

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        # names are looked up on the modules at call time, after install
        configs = [flowmaplab.suite.load_config(c) for c in job["configs"]]
        source = None
        if job["kind"] == "biot":
            source = flowmaplab.gaussian_swirl_blob(**job["blob"])[0]
        setup_s = time.perf_counter() - t0
        if job["mode"] == "setup":
            return {"setup_s": setup_s}
        t1 = time.perf_counter()
        out = _suite_op(configs) if job["kind"] == "suite" else _biot_op(job, source)
        wall_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={k: importlib.metadata.version(k) for k in ("numpy", "scipy")},
    )
    if job["kind"] == "biot":
        out.update(_biot_checks(job, source, out))
    if tracer is not None:
        stats, derived = tracer.summary()
        out["trace"] = {"stats": stats, "derived": derived, "spans": len(tracer.spans)}
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    return out


def _suite_op(configs):
    import flowmaplab

    results = {}
    for cfg in configs:
        try:
            report, _ = flowmaplab.suite.run_suite(cfg)
            results[cfg["name"]] = {
                "hash": report.determinism_hash(),
                "rows": [{"flow": r.flow, "check": r.check, "grid": r.grid, "linf": r.linf,
                          "order": r.order, "passed": r.passed} for r in report.rows],
            }
        except Exception as exc:  # a config that raises fails all its rows
            results[cfg["name"]] = {"error": f"{type(exc).__name__}: {exc}"}
    return {"configs": results}


def _biot_op(job, source):
    import flowmaplab

    out = {}
    for key, interior in (("exterior", False), ("ring", True)):
        try:
            u = flowmaplab.velocity_from_vorticity(source, job[key],
                                                   allow_interior_targets=interior)
            out[key], out[f"{key}_error"] = u, None  # converted after timing
        except Exception as exc:  # a target set that raises fails all its targets
            out[key], out[f"{key}_error"] = None, f"{type(exc).__name__}: {exc}"
    return out


def _biot_checks(job, source, out):
    """Outside the timed region: hash the velocities, and re-sum the chosen
    targets with the benchmark's own direct sum."""
    import numpy as np

    u = {key: None if out[key] is None else np.asarray(out[key], dtype=np.float64)
         for key in ("exterior", "ring")}
    res = {key: None if a is None else a.tolist() for key, a in u.items()}
    res.update(resum={"exterior": [], "ring": []}, hash=None)
    if any(a is None for a in u.values()):
        return res
    res["hash"] = hashlib.sha256(u["exterior"].tobytes() + u["ring"].tobytes()).hexdigest()
    for key in ("exterior", "ring"):
        res["resum"][key] = [direct_sum(source, job[key][i]).tolist() for i in job["resum"][key]]
    return res


def direct_sum(source, target):
    """u(x1) = dV/(2 pi) sum (X,Y,Z) x (x1 - x) / |x1 - x|^3 over every node,
    with node positions rebuilt from the grid geometry and the cross product
    written out in components."""
    import numpy as np

    g = source.grid
    axes = [g.origin[k] + g.spacing[k] * np.arange(g.shape[k]) for k in range(3)]
    x, y, z = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    w = source.values.reshape(-1, 3)
    dx, dy, dz = target[0] - x, target[1] - y, target[2] - z
    r3 = (dx * dx + dy * dy + dz * dz) ** 1.5
    u = np.array([np.sum((w[:, 1] * dz - w[:, 2] * dy) / r3),
                  np.sum((w[:, 2] * dx - w[:, 0] * dz) / r3),
                  np.sum((w[:, 0] * dy - w[:, 1] * dx) / r3)])
    return u * (g.spacing[0] * g.spacing[1] * g.spacing[2]) / (2 * np.pi)


def main():
    job = json.loads(sys.stdin.read())
    sys.stdout.write(json.dumps(run_job(job)) + "\n")


if __name__ == "__main__":
    main()
