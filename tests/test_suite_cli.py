"""Suite runner, report determinism, and the command-line harness."""

import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowmaplab.suite
from flowmaplab.reporting import VerificationReport, report_diff
from flowmaplab.suite import (
    CHECKS, CONFIG_SCHEMA, ConfigError, convergence_study, load_config, run_suite,
)

SUITE = {
    "name": "mini",
    "seed": 0,
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
    ],
    "grids": [[32, 32], [64, 64]],
}


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "flowmaplab.cli", *args],
        capture_output=True, text=True,
    )
    return proc


class TestConfig:
    def test_config_schema_is_a_valid_schema(self):
        import jsonschema

        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_schema_rejects_missing_sections(self):
        with pytest.raises(ConfigError):
            load_config({"flows": []})

    def test_schema_rejects_nonpositive_tolerance(self):
        bad = dict(SUITE)
        bad["checks"] = [{"id": "cauchy.invariant_drift", "tolerance": 0.0}]
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_unknown_check_rejected(self):
        bad = dict(SUITE)
        bad["checks"] = [{"id": "nope.nothing", "tolerance": 1.0}]
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_removed_svanberg_check_rejected_with_reason(self):
        # H = r^2 dtheta/dt stays a library function; as a check it could not fail
        bad = dict(SUITE)
        bad["checks"] = [{"id": "curvilinear.svanberg", "tolerance": 1.0}]
        with pytest.raises(ConfigError, match="removed: .*svanberg_invariant"):
            load_config(bad)
        assert "curvilinear.svanberg" not in CHECKS

    def test_known_checks_documented(self):
        for check_id, (fn, anchor) in CHECKS.items():
            assert "." in check_id and anchor

    def test_readme_lists_every_check_option(self):
        # the README's options table against each check's keyword-only parameters
        text = (ROOT / "README.md").read_text().split("### Suite configs", 1)[1]
        text = text.split("\n## ", 1)[0]
        table = {}
        for line in text.splitlines():
            m = re.fullmatch(r"\| `([\w.]+)` \| (.*) \|", line)
            if m:
                table[m[1]] = set(re.findall(r"`(\w+)`", m[2]))
        signatures = {}
        for check_id, (fn, _) in CHECKS.items():
            params = inspect.signature(fn).parameters.values()
            signatures[check_id] = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert table == signatures

    def test_shipped_and_benchmark_configs_load(self):
        # the benchmark's configs are inputs this schema must keep accepting
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        configs = [cfg for w in workloads.WORKLOADS.values() if "configs" in w
                   for cfg in w["configs"]()]
        suites = sorted((ROOT / "suites").glob("*.json"))
        assert configs and suites
        for cfg in configs + suites:
            load_config(cfg)

    def test_benchmark_layer_spans_name_library_functions(self):
        # perfbench/tracing.py names a span <module>.<function>, <module>.<Class>
        # (its constructor) or <module>.<Class>.<method> after the public
        # callable it wraps; a span naming nothing reads 0 without an error.
        # LAYERS is read from the file's source, so nothing of perfbench runs.
        import ast
        import types

        tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
        layers = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])

        def traced(span):
            mod, *path = span.split(".")
            if any(p.startswith("_") for p in path) or len(path) not in (1, 2):
                return False
            obj = vars(importlib.import_module(f"flowmaplab.{mod}")).get(path[0])
            if isinstance(obj, type):
                attr = path[1] if len(path) == 2 else "__init__"
                return obj.__module__ == f"flowmaplab.{mod}" and isinstance(
                    vars(obj).get(attr), types.FunctionType)
            return (len(path) == 1 and isinstance(obj, types.FunctionType)
                    and obj.__module__ == f"flowmaplab.{mod}")

        untraced = {span for span, _, _ in layers if not traced(span)}
        # deleted with the resampling path; its metric goes with ROADMAP item 1
        assert untraced <= {"flowmap.resample_velocity_2d"}, untraced


class TestRunSuite:
    def test_empty_checks_pass(self):
        cfg = dict(SUITE)
        cfg["checks"] = []
        report, code = run_suite(cfg)
        assert code == 0 and report.rows == [] and report.overall_pass

    def test_default_suite_passes_with_order(self):
        report, code = run_suite(SUITE)
        assert code == 0
        assert all(r.passed for r in report.rows)
        orders = [r.order for r in report.rows if r.order is not None]
        assert orders and min(orders) >= 1.8
        # rigid rotation rows sit at the noise floor: no order is attached
        rot_rows = [r for r in report.rows if r.flow == "rigid_rotation"]
        assert all(r.order is None for r in rot_rows)

    def test_forced_failure_exits_one(self):
        cfg = json.loads(json.dumps(SUITE))
        cfg["checks"][0]["tolerance"] = 1e-30
        report, code = run_suite(cfg)
        assert code == 1
        assert report.failing_rows()

    def test_energy_drift_runs_on_even_node_counts(self):
        # 32 nodes per axis is an odd interval count, which Simpson cannot
        # integrate; the check falls back to the trapezoid rule there
        cfg = {"flows": [{"name": "rigid_rotation"}],
               "checks": [{"id": "energy.living_force_drift", "tolerance": 1e-8}],
               "grids": [[32, 32], [33, 33]]}
        report, code = run_suite(cfg)
        assert code == 0 and len(report.rows) == 2

    def test_two_runs_hash_identically(self):
        r1, _ = run_suite(SUITE)
        r2, _ = run_suite(SUITE)
        assert r1.determinism_hash() == r2.determinism_hash()

    def test_threads_key_accepted_and_ignored(self):
        cfg = dict(SUITE, threads=4, grids=[[32, 32]])
        report, code = run_suite(cfg)
        assert code == 0 and len(report.rows) == 2

    def test_one_entry_per_flow_and_grid(self, monkeypatch):
        calls = []
        build = flowmaplab.suite.catalog_flow

        def counting(name, **params):
            calls.append((name, params["grid"].shape))
            return build(name, **params)

        monkeypatch.setattr(flowmaplab.suite, "catalog_flow", counting)
        cfg = {"flows": [{"name": "rigid_rotation"}],
               "checks": [{"id": c, "tolerance": 1.0} for c in (
                   "cauchy.invariant_drift", "cauchy.solenoidality",
                   "flowmap.cofactor_identity")],
               "grids": [[16, 16], [32, 32]]}
        report, _ = run_suite(cfg)
        assert len(report.rows) == 6
        assert calls == [("rigid_rotation", (16, 16)), ("rigid_rotation", (32, 32))]

    def test_rows_in_declared_order(self):
        flows = ["stagnation", "rigid_rotation"]
        checks = ["flowmap.cofactor_identity", "cauchy.invariant_drift"]
        grids = ["32x32", "16x16"]
        cfg = {"flows": [{"name": f} for f in flows],
               "checks": [{"id": c, "tolerance": 1.0} for c in checks],
               "grids": [[int(n) for n in g.split("x")] for g in grids]}
        report, _ = run_suite(cfg)
        assert [(r.flow, r.check, r.grid) for r in report.rows] == [
            (f, c, g) for f in flows for c in checks for g in grids]

    def test_same_flow_with_two_params_stays_two_groups(self):
        # orders are fitted per declared flow, never across two of its configs
        flows = [{"name": "gerstner", "params": {"k": 1.0}},
                 {"name": "gerstner", "params": {"k": 2.0}}]
        base = {"checks": [{"id": "cauchy.invariant_drift", "tolerance": 1.0,
                            "options": {"mode": "fd"}}],
                "grids": [[32, 32], [64, 64]]}
        together, _ = run_suite(dict(base, flows=flows))
        alone = [r for f in flows for r in run_suite(dict(base, flows=[f]))[0].rows]
        assert [(r.linf, r.order) for r in together.rows] == [
            (r.linf, r.order) for r in alone]
        assert all(r.order is not None for r in alone[1::2])

    def test_min_order_gates_only_its_own_declared_check(self):
        check = {"id": "cauchy.invariant_drift", "tolerance": 1.0, "options": {"mode": "fd"}}
        cfg = {"flows": [{"name": "gerstner"}],
               "checks": [check, dict(check, min_order=100)],
               "grids": [[32, 32], [64, 64]]}
        report, code = run_suite(cfg)
        assert code == 1
        assert [r.passed for r in report.rows] == [True, True, True, False]

    def test_report_roundtrip_and_diff(self, tmp_path):
        report, _ = run_suite(SUITE)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        report.to_json(a)
        report.to_json(b)
        same, text = report_diff(a, b)
        assert same
        loaded = VerificationReport.from_file(a)
        assert loaded.determinism_hash() == report.determinism_hash()

    def test_diff_detects_changes(self, tmp_path):
        report, _ = run_suite(SUITE)
        a = tmp_path / "a.json"
        report.to_json(a)
        data = json.loads(a.read_text())
        data["rows"][0]["linf"] = 999.0
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        same, text = report_diff(a, b)
        assert not same and "999" in text

    def test_csv_rows_written(self, tmp_path):
        report, _ = run_suite(SUITE)
        out = tmp_path / "rows.csv"
        report.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.rows)
        assert lines[0].startswith("flow,check,anchor")

    def test_rows_carry_anchops_and_verdicts_recomputable(self):
        report, _ = run_suite(SUITE)
        for r in report.rows:
            assert r.anchor
            assert r.passed == (r.linf <= r.tolerance or
                                (r.order is not None and r.passed))


class TestConvergenceStudy:
    def test_stokes_slope_band(self):
        out = convergence_study(
            "circulation.stokes", "rigid_rotation",
            resolutions=[(64, 64), (128, 128), (256, 256)],
            flow_params={"omega": 0.1},
            tolerance=1.0,
        )
        assert 1.8 <= out["order"] <= 2.2, out

    def test_rk4_closure_slope(self):
        period = 2 * np.pi
        out = convergence_study(
            "flows.rk4_closure", "rigid_rotation",
            dts=[period / 64, period / 128, period / 256],
        )
        assert 3.8 <= out["order"] <= 4.2, out

    def test_floor_reported(self):
        out = convergence_study(
            "cauchy.invariant_drift", "rigid_rotation",
            resolutions=[(32, 32), (64, 64)],
        )
        assert out["order"] is None and out["note"] == "n/a (floor)"

    def test_data_file_emitted(self, tmp_path):
        path = tmp_path / "conv.dat"
        convergence_study("flows.rk4_closure", "rigid_rotation",
                          dts=[0.1, 0.05], out_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("#") and len(lines) == 3


class TestCLI:
    def test_flows_list(self):
        proc = run_cli("flows", "list")
        assert proc.returncode == 0
        assert "gerstner" in proc.stdout and "point_vortex" in proc.stdout

    def test_flows_describe(self):
        proc = run_cli("flows", "describe", "rigid_rotation")
        assert proc.returncode == 0 and "omega" in proc.stdout

    def test_run_pass_and_fail_exit_codes(self, tmp_path):
        cfg = dict(SUITE)
        cfg["grids"] = [[32, 32]]
        cfg.pop("name")
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("run", str(p), "--out", str(tmp_path / "rep.json"))
        assert proc.returncode == 0, proc.stderr
        assert "determinism hash" in proc.stdout

        cfg["checks"] = [{"id": "cauchy.invariant_drift", "tolerance": 1e-30,
                          "options": {"mode": "fd"}}]
        p.write_text(json.dumps(cfg))
        proc = run_cli("run", str(p), "--out", str(tmp_path / "rep2.json"))
        assert proc.returncode == 1
        assert "failing row" in proc.stderr and "gerstner" in proc.stderr
        assert (tmp_path / "rep2.json").exists()  # report written on failure

    def test_run_invalid_config_exit_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"flows": []}))
        assert run_cli("run", str(p)).returncode == 2

    def test_seed_flag_is_unknown(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(SUITE))
        assert run_cli("run", str(p), "--seed", "1").returncode == 2

    def test_threads_flag_is_unknown(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(SUITE))
        assert run_cli("run", str(p), "--threads", "2").returncode == 2

    @pytest.mark.parametrize("args,named", [
        pytest.param(("run", str(ROOT / "suites" / "cauchy-core.json"), "--grid", "32xabc"),
                     None, id="args0"),
        pytest.param(("converge", "cauchy.invariant_drift", "gerstner",
                      "--grids", "32x32,64x64", "--params", "{bad"), None, id="args1"),
        pytest.param(("flows", "describe", "gerstner", "--params", "{bad"), None, id="args2"),
        pytest.param(("run", str(ROOT / "suites" / "cauchy-core.json"), "--grid", "16x16x16"),
                     None, id="args3"),
        # a dict is merged into a copy of SUITE, which is then run; the error
        # must name the key
        pytest.param(("run", {"flows": [{"name": "vortx"}]}), "vortx", id="unknown_flow"),
        pytest.param(("run", {"flows": [{"name": "rigid_rotation", "params": {"omgea": 2}}]}),
                     "omgea", id="flow_param"),
        pytest.param(("flows", "describe", "rigid_rotation", "--params", '{"omgea": 2}'),
                     "omgea", id="describe_param"),
        pytest.param(("run", {"checks": [{"id": "cauchy.invariant_drift", "tolerance": 1.0,
                                          "options": {"stencl_order": 4}}]}),
                     "stencl_order", id="check_option"),
        pytest.param(("run", {"checks": [{"id": "circulation.kelvin_drift", "tolerance": 1.0,
                                          "options": {"stencil_order": 4}}]}),
                     "stencil_order", id="kelvin_stencil_order"),
        pytest.param(("run", {"flows": [{"name": "stagnation"}],
                              "checks": [{"id": "flowmap.density_eulerian", "tolerance": 1.0,
                                          "options": {"resample": "cubic"}}]}),
                     "resample", id="resample"),
        pytest.param(("run", {"checks": [{"id": "cauchy.invariant_drift", "tolerance": 1.0,
                                          "options": {"mode": "FD"}}]}), "mode", id="mode_FD"),
        pytest.param(("run", {"stencil_ordr": 4}), "stencil_ordr", id="top_level_key"),
        pytest.param(("run", {"flows": [{"name": "gerstner", "params": {"k": 0}}]}),
                     "wavenumber k", id="gerstner_k0"),
        pytest.param(("flows", "describe", "gerstner", "--params", '{"k": 0}'),
                     "wavenumber k", id="describe_gerstner_k0"),
        pytest.param(("run", {"checks": [{"id": "circulation.kelvin_drift", "tolerance": 1.0,
                                          "options": {"radius": -1}}]}),
                     "radius", id="kelvin_negative_radius"),
        pytest.param(("run", {"checks": [{"id": "circulation.kelvin_drift", "tolerance": 1.0,
                                          "options": {"points": "x"}}]}),
                     "points", id="kelvin_points_not_integer"),
        pytest.param(("run", {"checks": [{"id": "circulation.stokes", "tolerance": 1.0,
                                          "options": {"points": 8}}]}),
                     "points", id="stokes_too_few_points"),
        pytest.param(("run", {"checks": [{"id": "circulation.stokes", "tolerance": 1.0,
                                          "options": {"radial_points": 1}}]}),
                     "radial_points", id="stokes_too_few_radial_points"),
        pytest.param(("run", {"checks": [{"id": "circulation.kelvin_drift", "tolerance": 1.0,
                                          "options": {"center": [0.0, 0.0]}}]}),
                     "center", id="kelvin_center_not_3_vector"),
        pytest.param(("run", {"checks": [{"id": "circulation.stokes", "tolerance": 1.0,
                                          "options": {"normal": [0.0, 0.0, "z"]}}]}),
                     "normal", id="stokes_normal_not_numbers"),
        pytest.param(("converge", "flows.rk4_closure", "gerstner", "--dts", "0.1,0.05"),
                     "gerstner", id="rk4_closure_other_flow"),
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "0.1,0.05",
                      "--params", '{"omgea": 2}'), "omgea", id="rk4_closure_param"),
    ])
    def test_malformed_input_exits_two(self, args, named, tmp_path):
        if isinstance(args[1], dict):
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(dict(SUITE, **args[1])))
            args = ("run", str(p))
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert named is None or named in proc.stderr

    def test_run_unreadable_config_exit_three(self):
        assert run_cli("run", "/nonexistent/suite.json").returncode == 3

    def test_report_diff_cli(self, tmp_path):
        cfg = dict(SUITE)
        cfg["grids"] = [[32, 32]]
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("run", str(p), "--out", str(a)).returncode == 0
        assert run_cli("run", str(p), "--out", str(b)).returncode == 0
        proc = run_cli("report", "diff", str(a), str(b))
        assert proc.returncode == 0 and "identical" in proc.stdout

    def test_grid_override_flag(self, tmp_path):
        cfg = dict(SUITE)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("run", str(p), "--grid", "32x32",
                       "--flow", "rigid_rotation",
                       "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert {row["grid"] for row in data["rows"]} == {"32x32"}
        assert {row["flow"] for row in data["rows"]} == {"rigid_rotation"}

    def test_converge_cli(self):
        proc = run_cli("converge", "flows.rk4_closure", "rigid_rotation",
                       "--dts", "0.1,0.05,0.025")
        assert proc.returncode == 0
        assert "fitted order" in proc.stdout

