"""The benchmark's workloads, the inputs they draw from a seed, and the
output checks behind ``fail_frac``.

Only the standard library is imported here: worker processes import this
module before their set-up clock starts, so it must not pull in numpy or
flowmaplab.

Tolerances are inputs of the benchmark. Each sits a few times (3x, rounded
up) above the residual the library produced when the benchmark was defined,
with a floor of 1e-12 (the suite's own noise floor) for rows that sit at
round-off, so that a wrong result fails its row. ``min_order`` gates sit
only on (flow, check) pairs whose measured order exists today; a declared
gate that does not execute counts as a failed row.
"""

from __future__ import annotations

import math
import random

# gaussian_swirl_blob parameters, passed explicitly so the benchmark's own
# exact field below describes the same blob
BLOB = {"sigma": 0.105, "amplitude": 0.01, "n": 64, "box": 1.0}
EXTERIOR_TARGETS = 512
EXTERIOR_SHELL = (1.15, 1.6)
RING_TARGETS = 64
RING_RADIUS = 1.5 * BLOB["sigma"]

# output bounds for biot_savart, set from the errors at definition time:
# ring 1.17e-2 relative to u_exact, exterior |u| 1.2e-16 (round-off; the
# exact field there is ~1e-27), library against independent re-sum 1.0e-13
RING_REL_TOL = 3e-2
EXTERIOR_ABS_TOL = 1e-15
RESUM_REL_TOL = 1e-12
RESUM_COUNT = {"exterior": 2, "ring": 4}

GRID_CHECKS = (
    "cauchy.invariant_drift",
    "cauchy.solenoidality",
    "flowmap.density_lagrangian",
    "flowmap.cofactor_identity",
    "dynamics.lagrangian_eom",
)
NOISE = 1e-12


def _config(flow, checks, grids, options=None):
    """One suite config: one flow, its checks as {id: (tolerance, min_order)}."""
    out = []
    for check_id in checks:
        tol, min_order = checks[check_id]
        chk = {"id": check_id, "tolerance": tol}
        if options:
            chk["options"] = dict(options)
        if min_order is not None:
            chk["min_order"] = min_order
        out.append(chk)
    return {
        "name": f"perfbench-{flow['name']}",
        "threads": 1,
        "flows": [flow],
        "checks": out,
        "grids": [list(g) for g in grids],
    }


def _sampled_configs():
    grids = ((16, 16), (32, 32))
    vortex = {
        "cauchy.invariant_drift": (8e-2, 1.3),
        "flowmap.density_lagrangian": (5e-2, 1.3),
        "dynamics.lagrangian_eom": (2e-7, None),
        "circulation.kelvin_drift": (NOISE, None),
    }
    green = {
        "cauchy.invariant_drift": (0.7, None),
        "flowmap.density_lagrangian": (0.6, 1.3),
        "dynamics.lagrangian_eom": (1e-6, None),
        "circulation.kelvin_drift": (1e-7, None),
    }
    return [
        _config({"name": "point_vortex"}, vortex, grids),
        _config({"name": "taylor_green"}, green, grids),
    ]


def _eulerian_configs():
    check = "flowmap.density_eulerian"
    return [
        _config({"name": "point_vortex"}, {check: (3e-3, 1.8)}, ((16, 16), (32, 32))),
        _config({"name": "gerstner", "params": {"k": 1.0, "g": 1.0}},
                {check: (3e-4, 1.8)}, ((128, 128), (256, 256))),
    ]


def _grid_configs():
    grids = ((128, 128), (256, 256))
    fd = {"mode": "fd"}
    exact = {c: (NOISE, None) for c in GRID_CHECKS}
    gerstner = {
        "cauchy.invariant_drift": (6e-4, 1.8),
        "cauchy.solenoidality": (NOISE, None),
        "flowmap.density_lagrangian": (2e-3, 1.8),
        "flowmap.cofactor_identity": (NOISE, None),
        "dynamics.lagrangian_eom": (8e-4, 1.8),
    }
    return [
        _config({"name": "rigid_rotation", "params": {"omega": 1.0}}, exact, grids, fd),
        _config({"name": "gerstner", "params": {"k": 1.0, "g": 1.0}}, gerstner, grids, fd),
        _config({"name": "stagnation", "params": {"k": 1.0}}, exact, grids, fd),
    ]


# the largest array of each workload, by shape: the largest found crossing
# a traced function boundary when the workloads were defined
WORKLOADS = {
    "sampled_matrix": {
        "kind": "suite",
        "configs": _sampled_configs,
        "largest_array": ("positions table of a 32x32 sampled map, 3 times x 32x32 x 3 float64",
                          3 * 32 * 32 * 3 * 8),
    },
    "eulerian_inversion": {
        "kind": "suite",
        "configs": _eulerian_configs,
        "largest_array": ("gerstner deformation gradient on the 256x256 spatial grid, "
                          "256x256 x 3x3 float64", 256 * 256 * 9 * 8),
    },
    "grid_calculus": {
        "kind": "suite",
        "configs": _grid_configs,
        "largest_array": ("deformation gradient at 256x256, 256x256 x 3x3 float64",
                          256 * 256 * 9 * 8),
    },
    "biot_savart": {
        "kind": "biot",
        "configs": lambda: [],
        "largest_array": ("node positions of the 64^3 source grid, 262144 x 3 float64",
                          64 ** 3 * 3 * 8),
    },
}


def make_job(name, seed):
    """The op job for one repetition of workload ``name`` under ``seed``.

    Suite workloads are deterministic; the seed only permutes the order in
    which their configs run. biot_savart draws its exterior targets, and the
    targets it re-sums independently, from the seed.
    """
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    configs = spec["configs"]()
    rng.shuffle(configs)
    job = {"workload": name, "kind": spec["kind"], "configs": configs, "trace": False}
    if spec["kind"] == "biot":
        job["blob"] = dict(BLOB)
        job["exterior"] = exterior_targets(rng)
        job["ring"] = ring_targets()
        job["resum"] = {
            "exterior": sorted(rng.sample(range(EXTERIOR_TARGETS), RESUM_COUNT["exterior"])),
            "ring": sorted(rng.sample(range(RING_TARGETS), RESUM_COUNT["ring"])),
        }
    return job


def exterior_targets(rng):
    """Points uniform in direction, radius uniform on the exterior shell."""
    pts = []
    lo, hi = EXTERIOR_SHELL
    while len(pts) < EXTERIOR_TARGETS:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm < 1e-9:
            continue
        r = rng.uniform(lo, hi)
        pts.append([r * c / norm for c in v])
    return pts


def ring_targets():
    return [[RING_RADIUS * math.cos(2 * math.pi * k / RING_TARGETS),
             RING_RADIUS * math.sin(2 * math.pi * k / RING_TARGETS), 0.0]
            for k in range(RING_TARGETS)]


def swirl_exact(p):
    """The blob's exact velocity, u = (-y, x, 0) A exp(-|x|^2 / 2 s^2) / s^2,
    written here independently of the library."""
    s2 = BLOB["sigma"] ** 2
    c = BLOB["amplitude"] * math.exp(-(p[0] ** 2 + p[1] ** 2 + p[2] ** 2) / (2 * s2)) / s2
    return [-p[1] * c, p[0] * c, 0.0]


def expected_rows(cfg):
    return len(cfg["flows"]) * len(cfg["checks"]) * len(cfg["grids"])


def attempted_per_rep(job):
    if job["kind"] == "biot":
        return len(job["exterior"]) + len(job["ring"])
    return sum(expected_rows(c) for c in job["configs"])


def grade(job, reps):
    """Count failed rows (suites) or targets (biot_savart) over repetitions.

    ``reps`` are worker results for ``job``; a repetition whose worker
    failed carries "error" and fails everything it should have produced. Returns
    (failed, attempted, notes), notes naming each failure.
    """
    per_rep = attempted_per_rep(job)
    failed, notes = 0, []
    first_hash = {}
    for k, rep in enumerate(reps):
        if "error" in rep:
            failed += per_rep
            notes.append(f"rep {k}: worker failed: {rep['error']}")
            continue
        grader = _grade_biot if job["kind"] == "biot" else _grade_suite
        f, n = grader(job, rep, first_hash)
        failed += f
        notes.extend(f"rep {k}: {msg}" for msg in n)
    return failed, per_rep * len(reps), notes


def _same_hash(first_hash, key, h):
    return first_hash.setdefault(key, h) == h


def _grade_suite(job, rep, first_hash):
    failed, notes = 0, []
    for cfg in job["configs"]:
        name = cfg["name"]
        want = expected_rows(cfg)
        out = rep["configs"].get(name)
        if out is None or "error" in out:
            failed += want
            notes.append(f"{name}: run_suite raised: {None if out is None else out['error']}")
            continue
        if not _same_hash(first_hash, name, out["hash"]):
            failed += want
            notes.append(f"{name}: determinism hash {out['hash'][:16]} differs from the "
                         "first repetition's")
            continue
        rows = out["rows"]
        failed += max(0, want - len(rows))
        gates = {c["id"]: c.get("min_order") for c in cfg["checks"]}
        tols = {c["id"]: c["tolerance"] for c in cfg["checks"]}
        finer = {tuple(g) for g in cfg["grids"][1:]}  # rows that carry an order
        for row in rows:
            why = []
            if not row["linf"] <= tols[row["check"]]:
                why.append(f"linf {row['linf']:.3e} > tolerance {tols[row['check']]:g}")
            gate = gates[row["check"]]
            shape = tuple(int(n) for n in row["grid"].split("x"))
            if gate is not None and shape in finer:
                if row["order"] is None:
                    why.append("min_order gate did not execute (no measured order)")
                elif row["order"] < gate:
                    why.append(f"order {row['order']:.3f} < min_order {gate:g}")
            if row["passed"] is False and not why:
                why.append("library graded the row failed")
            if why:
                failed += 1
                notes.append(f"{name} {row['flow']} {row['check']} {row['grid']}: "
                             + "; ".join(why))
    return failed, notes


def _grade_biot(job, rep, first_hash):
    notes = []
    raised = [key for key in ("exterior", "ring") if rep[f"{key}_error"]]
    if raised:
        for key in raised:
            notes.append(f"{key} targets raised: {rep[f'{key}_error']}")
        return sum(len(job[key]) for key in raised), notes
    if not _same_hash(first_hash, "velocity", rep["hash"]):
        notes.append(f"velocity hash {rep['hash'][:16]} differs from the first repetition's")
        return len(job["exterior"]) + len(job["ring"]), notes
    bad = set()
    for i, u in enumerate(rep["exterior"]):
        mag = max(abs(c) for c in u)
        if not mag <= EXTERIOR_ABS_TOL:
            bad.add(("exterior", i))
            notes.append(f"exterior target {i}: |u| {mag:.3e} > {EXTERIOR_ABS_TOL:g}")
    for i, (p, u) in enumerate(zip(job["ring"], rep["ring"])):
        ue = swirl_exact(p)
        err = math.dist(u, ue) / math.hypot(*ue)
        if not err <= RING_REL_TOL:
            bad.add(("ring", i))
            notes.append(f"ring target {i}: relative error {err:.3e} > {RING_REL_TOL:g}")
    # the re-sum compares the library with the benchmark's own direct sum,
    # scaled by the ring's field strength (the exterior field is round-off)
    scale = max(max(abs(c) for c in u) for u in rep["ring"])
    for key in ("exterior", "ring"):
        want = job["resum"][key]
        got = rep["resum"][key]
        if len(got) != len(want):
            bad.update((key, i) for i in want)
            notes.append(f"independent re-sum of {key} targets did not run")
            continue
        for i, u_ind in zip(want, got):
            diff = max(abs(a - b) for a, b in zip(rep[key][i], u_ind))
            if not diff <= RESUM_REL_TOL * scale:
                bad.add((key, i))
                notes.append(f"{key} target {i}: library differs from the independent "
                             f"sum by {diff / scale:.3e} relative > {RESUM_REL_TOL:g}")
    return len(bad), notes
