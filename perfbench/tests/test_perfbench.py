"""Tests of the benchmark itself (not collected by the library's test run).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The traced-run tests go through fresh worker processes, as the benchmark
does; the perturbation test runs one repetition in this process so that the
patch stays inside the test.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def small_suite_job():
    job = workloads.make_job("sampled_matrix", 0)
    for cfg in job["configs"]:
        cfg["grids"] = [[16, 16], [24, 24]]
    return dict(job, mode="op")


def small_biot_job():
    job = workloads.make_job("biot_savart", 0)
    job["exterior"] = job["exterior"][:8]
    job["ring"] = job["ring"][:4]
    job["resum"] = {"exterior": [0], "ring": [1]}
    return dict(job, mode="op")


def _hashes(rep):
    if "configs" in rep:
        return {name: out["hash"] for name, out in rep["configs"].items()}
    return rep["hash"]


def _counts(rep):
    return {name: (st["calls"], st["work"]) for name, st in rep["trace"]["stats"].items()}


@pytest.fixture(scope="module", params=["suite", "biot"])
def runs(request):
    job = small_suite_job() if request.param == "suite" else small_biot_job()
    plain = run.call_worker(job, 300)
    traced = [run.call_worker(dict(job, trace=True), 300) for _ in range(2)]
    for rep in [plain, *traced]:
        assert "error" not in rep, rep.get("error")
    return job, plain, traced


def test_traced_and_untraced_runs_hash_identically(runs):
    _, plain, traced = runs
    assert _hashes(plain) is not None
    assert _hashes(traced[0]) == _hashes(plain)
    assert _hashes(traced[1]) == _hashes(plain)


def test_layer_counts_repeat_exactly(runs):
    job, _, traced = runs
    a, b = (_counts(rep) for rep in traced)
    assert a == b
    if job["kind"] == "suite":
        assert a["flows.rk4_advect"][1] > 0  # point_steps
        assert traced[0]["trace"]["derived"] == traced[1]["trace"]["derived"]
    else:
        pairs = a["biotsavart.velocity_from_vorticity"][1]
        assert pairs == 93840 * (len(job["exterior"]) + len(job["ring"]))


def test_grade_accepts_traced_and_untraced_reps(runs):
    job, plain, traced = runs
    failed, attempted, notes = workloads.grade(job, [plain, *traced])
    assert attempted == 3 * workloads.attempted_per_rep(job)
    assert not [n for n in notes if "differs" in n or "raised" in n], notes
    if job["kind"] == "biot":  # suite tolerances are set for the full-size grids
        assert failed == 0, notes


def test_perturbed_rk4_fails_sampled_matrix(monkeypatch):
    import flowmaplab.flows as flows

    orig = flows.rk4_advect

    def perturbed(field_fn, labels, t0, t1, dt, bbox=None):
        # a 1e-6 relative error in every advected displacement: the catalog's
        # construction gate still passes, the rows' tolerances must not
        start = np.asarray(labels, dtype=float)
        end = orig(field_fn, labels, t0, t1, dt, bbox)
        return end + 1e-6 * (end - start)

    monkeypatch.setattr(flows, "rk4_advect", perturbed)
    job = dict(workloads.make_job("sampled_matrix", 0), mode="op")
    rep = worker.run_job(job)
    failed, attempted, notes = workloads.grade(job, [rep])
    assert attempted == 16
    assert failed > 0, "perturbed trajectories passed every row"
    assert all("raised" not in n for n in notes), notes


def test_grade_counts_hash_mismatch_and_skipped_gate():
    job = workloads.make_job("eulerian_inversion", 0)
    cfg = job["configs"][0]
    rows = [{"flow": cfg["flows"][0]["name"], "check": "flowmap.density_eulerian",
             "grid": "x".join(map(str, g)), "linf": 1e-6, "order": 2.0, "passed": True}
            for g in cfg["grids"]]
    good = {"configs": {c["name"]: {"hash": "a", "rows": copy.deepcopy(rows)}
                        for c in job["configs"]}}
    assert workloads.grade(job, [good, good])[:2] == (0, 8)

    drifted = copy.deepcopy(good)
    drifted["configs"][cfg["name"]]["hash"] = "b"
    assert workloads.grade(job, [good, drifted])[0] == 2

    ungated = copy.deepcopy(good)
    ungated["configs"][cfg["name"]]["rows"][1]["order"] = None
    failed, _, notes = workloads.grade(job, [ungated])
    assert failed == 1 and "did not execute" in notes[0]

    assert workloads.grade(job, [{"error": "worker exit 1"}])[:2] == (4, 4)


def test_benchmark_json_matches_the_metrics_produced():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
