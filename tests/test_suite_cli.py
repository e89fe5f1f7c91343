"""Suite runner, report determinism, and the command-line harness."""

import importlib.util
import inspect
import json
import math
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

    def test_readme_check_table_is_what_load_config_accepts(self):
        # one row per check in CHECKS; each row's options load, others do not
        text = (ROOT / "README.md").read_text().split("### Suite configs", 1)[1]
        rows = re.findall(r"^\| `([\w.]+)` \| (.*) \|$", text.split("\n## ", 1)[0], re.M)
        ids = [check_id for check_id, _ in rows]
        assert len(ids) == len(set(ids)) and set(ids) == set(CHECKS)
        sample = {"mode": "fd", "radius": 0.5, "points": 32, "radial_points": 8,
                  "center": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]}
        for check_id, cell in rows:
            names = re.findall(r"`(\w+)`", cell)
            assert cell == "none" if not names else cell == ", ".join(f"`{n}`" for n in names)
            assert sorted(names) == sorted(flowmaplab.suite._check_options(check_id))
            check = {"id": check_id, "tolerance": 1.0}
            load_config(dict(SUITE, checks=[dict(check, options={n: sample[n] for n in names})]))
            with pytest.raises(ConfigError, match="unlisted"):
                load_config(dict(SUITE, checks=[dict(check, options={"unlisted": 1})]))

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
            # the effective config: defaults filled, unread keys dropped, and
            # loading it again changes nothing
            loaded = load_config(cfg)
            assert {"rind", "stencil_order", "time_fractions"} <= loaded.keys()
            assert not {"seed", "threads"} & loaded.keys()
            assert load_config(loaded) == loaded

    # one case per key CONFIG_SCHEMA types "integer" that the code reads:
    # (check, top-level keys, check options, the key's value read back from
    # the loaded config)
    @pytest.mark.parametrize("check, top, options, read", [
        ("cauchy.invariant_drift", {"rind": 2}, {}, lambda c: c["rind"]),
        ("cauchy.invariant_drift", {"grids": [[16, 16]]}, {}, lambda c: c["grids"][0][1]),
        ("circulation.kelvin_drift", {}, {"points": 32},
         lambda c: c["checks"][0]["options"]["points"]),
        ("circulation.stokes", {}, {"radial_points": 8},
         lambda c: c["checks"][0]["options"]["radial_points"]),
    ], ids=["rind", "grids", "points", "radial_points"])
    def test_integral_float_reads_as_int(self, check, top, options, read):
        # an integral float is an integer to the schema; the loaded config
        # holds an int there, and the run hashes like the int config
        def config(num):
            cfg = {"flows": [{"name": "rigid_rotation"}], "grids": [[16, 16]],
                   "checks": [{"id": check, "tolerance": 1.0}]}
            cfg.update({k: json.loads(json.dumps(v), parse_int=num) for k, v in top.items()})
            if options:
                cfg["checks"][0]["options"] = {k: num(v) for k, v in options.items()}
            return cfg

        as_float = config(float)
        loaded = load_config(as_float)
        assert type(read(loaded)) is int and type(read(as_float)) is float
        report, _ = run_suite(as_float)
        assert report.rows[0].grid == "16x16"
        assert report.determinism_hash() == run_suite(config(int))[0].determinism_hash()

    # spellings of one computation (gerstner, cauchy.invariant_drift, 16²):
    # the keys written, and the keys of the spelling it must load and hash
    # like; "seed" and "threads" are accepted and dropped, as nothing reads them,
    # and "out" says where the report goes, which is no part of the computation
    @pytest.mark.parametrize("written, effective", [
        ({"rind": 1}, {}), ({"stencil_order": 2}, {}), ({"stencil_order": 2.0}, {}),
        ({"time_fractions": [0, 0.125, 0.25]}, {}), ({"seed": 0}, {}), ({"threads": 1}, {}),
        ({"grids": [[16.0, 16.0]]}, {}), ({"stencil_order": 4.0}, {"stencil_order": 4}),
        ({"out": {"report": "a.json"}}, {}),
        ({"out": {"report": "a.json"}}, {"out": {"report": "b.json", "rows": "b.csv"}}),
    ], ids=["rind", "stencil_order", "stencil_order_float", "time_fractions", "seed", "threads",
            "grids_float", "stencil_order_4_float", "out", "out_paths"])
    def test_spellings_of_one_computation_hash_alike(self, written, effective, tmp_path):
        base = {"flows": [{"name": "gerstner"}], "grids": [[16, 16]],
                "checks": [{"id": "cauchy.invariant_drift", "tolerance": 1.0}]}
        written, effective = dict(base, **written), dict(base, **effective)
        loaded = load_config(written)
        assert loaded.get("out") == written.get("out")  # kept for `run` to write to
        computation = {k: v for k, v in loaded.items() if k != "out"}
        assert computation == {k: v for k, v in load_config(effective).items() if k != "out"}
        assert not {"seed", "threads"} & loaded.keys()
        paths = []
        for name, cfg in (("a", written), ("b", effective)):
            report, code = run_suite(cfg)
            # the report's config block is the effective config without "out"
            assert code == 0 and report.config == computation
            paths.append(tmp_path / f"{name}.json")
            report.to_json(paths[-1])
        same, text = report_diff(*paths)
        assert same and text.startswith("reports identical")

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
        # 32 nodes per axis is an odd interval count: the quadrature takes
        # trapezoid weights there and Simpson's on the 33-node grid
        cfg = {"flows": [{"name": "rigid_rotation"}],
               "checks": [{"id": "energy.living_force_drift", "tolerance": 1e-8}],
               "grids": [[32, 32], [33, 33]]}
        report, code = run_suite(cfg)
        assert code == 0 and len(report.rows) == 2

    def test_energy_drift_propagates_a_later_nan(self):
        # the velocity is NaN at the last time only: the row's number is NaN,
        # so it fails, where a running max would keep the finite first drift
        from types import SimpleNamespace

        from flowmaplab import AnalyticFlowMap, catalog_flow

        rot = catalog_flow("rigid_rotation").map
        m = AnalyticFlowMap(rot.grid, rot._position,
                            lambda lab, t: rot._velocity(lab, t) * (np.nan if t > 0.6 else 1.0))
        fn, _ = CHECKS["energy.living_force_drift"]
        out = fn(SimpleNamespace(map=m), [0.0, 0.5, 1.0], {})
        assert math.isnan(out["linf"])

    def test_momentum_row_reads_a_nan_component(self):
        # a NaN label pressure gradient along b makes the b residual NaN; the
        # row takes it over the finite a residual, so it fails
        import dataclasses
        from types import SimpleNamespace

        from flowmaplab import catalog_flow
        from flowmaplab.grids import StencilSpec

        e = catalog_flow("gerstner")
        exact = e.force.pressure_grad

        def pressure_grad(lab, t):
            g = exact(lab, t)
            g[..., 1] = np.nan
            return g

        fn, _ = CHECKS["dynamics.lagrangian_eom"]
        entry = SimpleNamespace(map=e.map, force=dataclasses.replace(e.force,
                                                                    pressure_grad=pressure_grad))
        out = fn(entry, [0.0, 0.5, 1.0], {"rind": 0, "spec": StencilSpec(2)})
        assert math.isnan(out["linf"])

    def test_density_row_reads_a_later_nan(self):
        # finite partials of 1e200 at the last time: det3's minors are
        # inf - inf there, so det F is NaN, and the row reads that summary
        from types import SimpleNamespace

        from flowmaplab import AnalyticFlowMap, LabelGrid
        from flowmaplab.grids import StencilSpec

        def partials(lab, t):
            F = np.broadcast_to(np.eye(3), lab.shape[:-1] + (3, 3)).copy()
            return np.full_like(F, 1e200) if t > 0.6 else F

        m = AnalyticFlowMap(LabelGrid((8, 8), (0.0, 0.0), (0.1, 0.1)), lambda lab, t: lab.copy(),
                            lambda lab, t: np.zeros_like(lab), partials=partials)
        fn, _ = CHECKS["flowmap.density_lagrangian"]
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(SimpleNamespace(map=m), [0.0, 0.5, 1.0], {"rind": 0, "spec": StencilSpec(2)})
        assert math.isnan(out["linf"]) and out["time"] == 1.0

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

    @pytest.mark.parametrize("order,lo,hi", [(2, 1.5, 2.5), (4, 3.5, 4.5)])
    def test_top_level_stencil_order_reaches_the_grid_checks(self, order, lo, hi):
        cfg = {"flows": [{"name": "gerstner"}], "stencil_order": order,
               "checks": [{"id": c, "tolerance": 1.0, "options": {"mode": "fd"}}
                          for c in ("cauchy.invariant_drift", "flowmap.density_lagrangian")],
               "grids": [[32, 32], [64, 64]]}
        report, _ = run_suite(cfg)
        fitted = [r.order for r in report.rows[1::2]]
        assert len(fitted) == 2 and all(lo <= p < hi for p in fitted), fitted

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

    def test_diff_names_every_differing_field(self, tmp_path):
        from flowmaplab.reporting import ReportRow

        def write(name, config, **changes):
            row = dict(flow="gerstner", check="c", anchor="x", grid="16x16", time=0.5,
                       linf=1e-3, tolerance=1e-2)
            rows = [ReportRow(**row, l2=1e-4, location=(0.25, 0.5)),
                    ReportRow(**dict(row, linf=2e-3, **changes))]
            path = tmp_path / name
            VerificationReport(rows, config=config).to_json(path)
            return path

        cfg = {"name": "n", "seed": 0, "grids": [[16, 16]]}
        a = write("a.json", cfg)
        # the second row of one (flow, check, grid), so the match is by position
        b = write("b.json", cfg, tolerance=1e-1, l2=3e-4, location=(0.5, 0.5),
                  anchor="y", time=0.75)
        same, text = report_diff(a, b)
        row_line = text.splitlines()[2]
        assert not same and len(text.splitlines()) == 3
        assert row_line.startswith("('gerstner', 'c', '16x16', 1): ")
        for part in ("anchor 'x' -> 'y'", "time 0.5 -> 0.75", "l2 None -> 0.0003",
                     "location None -> (0.5, 0.5)", "tolerance 0.01 -> 0.1"):
            assert part in row_line, (part, row_line)
        assert "linf" not in row_line and "passed" not in row_line
        # rows equal: the top-level config keys that differ are named
        c = write("c.json", dict(cfg, seed=1, name="m"))
        same, text = report_diff(a, c)
        assert not same and text.splitlines()[2:] == ["rows equal; config keys differ: name, seed"]

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


GRID_CHECKS = ("cauchy.invariant_drift", "cauchy.solenoidality", "flowmap.density_lagrangian",
               "flowmap.cofactor_identity", "dynamics.lagrangian_eom")


def _row_bits(row):
    """A row's linf, l2 and location as float hex, so equality is bitwise."""
    hexes = lambda xs: None if xs is None else tuple(float(x).hex() for x in xs)
    return hexes([row.linf]), hexes(None if row.l2 is None else [row.l2]), hexes(row.location)


class TestSharedEntry:
    """Checks on one catalog entry share its deformation gradient; each row
    must equal, bit for bit, the same check run alone on its own entry."""

    @staticmethod
    def _shared_and_alone(flow, checks, grids):
        cfg = {"flows": [flow], "grids": grids,
               "checks": [{"id": c, "tolerance": 1.0, "options": {"mode": mode}}
                          for c, mode in checks]}
        shared, _ = run_suite(cfg)
        for i, chk in enumerate(cfg["checks"]):
            alone, _ = run_suite(dict(cfg, checks=[chk]))
            rows = shared.rows[i * len(grids):(i + 1) * len(grids)]
            assert [_row_bits(r) for r in rows] == [_row_bits(r) for r in alone.rows], chk

    @pytest.mark.parametrize("flow", [
        {"name": "rigid_rotation", "params": {"omega": 1.0}},
        {"name": "gerstner", "params": {"k": 1.0, "g": 1.0}},
        {"name": "stagnation", "params": {"k": 1.0}},
    ])
    def test_fd_grid_checks(self, flow):
        self._shared_and_alone(flow, [(c, "fd") for c in GRID_CHECKS], [[32, 32], [64, 64]])

    def test_sampled_map(self):
        self._shared_and_alone({"name": "point_vortex"}, [(c, "auto") for c in GRID_CHECKS],
                               [[16, 16]])

    def test_auto_and_fd_on_one_entry(self):
        # gerstner registers analytic partials, so "auto" and "fd" build
        # different gradients at the same time
        checks = [(c, mode) for c in GRID_CHECKS for mode in ("auto", "fd", "auto")]
        self._shared_and_alone({"name": "gerstner"}, checks, [[32, 32]])

    def test_gradient_builds_per_entry(self, monkeypatch):
        # an fd build fills F slab by slab, so a build is a first-slab
        # difference taken by deformation_gradient (the construction gate's
        # partials check differences each slab but builds no F): three times
        # for the drift (the solenoidality check reuses the last), J(0) and
        # two later times for the density check, and none for the cofactor
        # and momentum checks at the last time
        import sys

        import flowmaplab.flowmap as flowmap

        builds = []
        build = flowmap._fd_partials_slab

        def counted(m, sl, t, order):
            if sl.start == 0 and sys._getframe(1).f_code is flowmap.deformation_gradient.__code__:
                builds.append(t)
            return build(m, sl, t, order)

        monkeypatch.setattr(flowmap, "_fd_partials_slab", counted)
        cfg = {"flows": [{"name": "rigid_rotation"}], "grids": [[32, 32]],
               "checks": [{"id": c, "tolerance": 1.0, "options": {"mode": "fd"}}
                          for c in GRID_CHECKS]}
        run_suite(cfg)
        assert len(builds) == 6


class TestConvergenceStudy:
    def test_stokes_slope_band(self):
        out = convergence_study(
            "circulation.stokes", "rigid_rotation",
            resolutions=[(64, 64), (128, 128), (256, 256)],
            flow_params={"omega": 0.1},
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

    @pytest.mark.parametrize("above", [False, True], ids=["at_floor", "one_ulp_above"])
    def test_the_suite_and_the_study_share_the_order_floor(self, monkeypatch, above):
        # the finer row's error sits at the floor exactly or one float above it
        floor = flowmaplab.suite.ORDER_FLOOR
        fine = np.nextafter(floor, 1.0) if above else floor

        def check(entry, times, ctx):
            return {"time": times[-1], "linf": 4 * floor if entry.map.grid.shape[0] == 9 else fine}

        monkeypatch.setitem(CHECKS, "test.floor", (check, "an error at the order floor"))
        report, _ = run_suite({"flows": [{"name": "uniform_translation"}],
                               "grids": [[9, 9], [17, 17]],
                               "checks": [{"id": "test.floor", "tolerance": 1.0}]})
        study = convergence_study("test.floor", "uniform_translation",
                                  resolutions=[(9, 9), (17, 17)])
        assert (report.rows[1].order is not None) == (study["order"] is not None) == above

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

    def test_run_writes_out_paths_and_out_flag_overrides(self, tmp_path):
        cfg = dict(SUITE, grids=[[16, 16]], flows=SUITE["flows"][:1])
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(json.dumps(dict(cfg, out={"report": str(tmp_path / "a.json"),
                                               "rows": str(tmp_path / "a.csv")})))
        q.write_text(json.dumps(dict(cfg, out={"report": str(tmp_path / "b.json")})))
        assert run_cli("run", str(p)).returncode == 0
        assert (tmp_path / "a.json").exists() and (tmp_path / "a.csv").exists()
        assert run_cli("run", str(q), "--out", str(tmp_path / "c.json")).returncode == 0
        assert (tmp_path / "c.json").exists() and not (tmp_path / "b.json").exists()
        # one computation written to two places hashes alike
        proc = run_cli("report", "diff", str(tmp_path / "a.json"), str(tmp_path / "c.json"))
        assert proc.returncode == 0 and "identical" in proc.stdout

    def test_kelvin_normal_whose_squared_length_overflows_runs(self, tmp_path):
        # (1e200, 0, 0) has a direction: its loop is (1, 0, 0)'s, bit for bit
        rows = []
        for normal in ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]):
            p = tmp_path / "k.json"
            p.write_text(json.dumps(dict(SUITE, grids=[[16, 16]], flows=SUITE["flows"][:1], checks=[
                {"id": "circulation.kelvin_drift", "tolerance": 1e-6,
                 "options": {"normal": normal}}])))
            proc = run_cli("run", str(p), "--out", str(tmp_path / "rep.json"))
            assert proc.returncode == 0 and "Warning" not in proc.stderr, proc.stderr
            rows.append(json.loads((tmp_path / "rep.json").read_text())["rows"])
        assert rows[0] == rows[1]

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
        pytest.param(("run", {"checks": [{"id": "cauchy.invariant_drift", "tolerance": 1.0,
                                          "options": {"stencil_order": 4}}]}),
                     "stencil_order", id="invariant_drift_stencil_order"),
        pytest.param(("run", {"flows": [{"name": "stagnation"}],
                              "checks": [{"id": "flowmap.density_eulerian", "tolerance": 1.0,
                                          "options": {"resample": "cubic"}}]}),
                     "resample", id="resample"),
        pytest.param(("run", {"checks": [{"id": "cauchy.invariant_drift", "tolerance": 1.0,
                                          "options": {"mode": "FD"}}]}), "mode", id="mode_FD"),
        pytest.param(("run", {"stencil_ordr": 4}), "stencil_ordr", id="top_level_key"),
        pytest.param(("run", {"time_fractions": [0.0]}), "time_fractions",
                     id="one_time_fraction"),
        pytest.param(("run", {"time_fractions": [0.0, 0.0]}), "time_fractions",
                     id="repeated_time_fraction"),
        pytest.param(("run", {"flows": [{"name": "gerstner", "params": {"k": 0}}]}),
                     "wavenumber k", id="gerstner_k0"),
        pytest.param(("flows", "describe", "gerstner", "--params", '{"k": 0}'),
                     "wavenumber k", id="describe_gerstner_k0"),
        # param values a flow cannot be built with: each factory names the param
        pytest.param(("run", {"flows": [{"name": "rigid_rotation", "params": {"omega": 0}}]}),
                     "omega", id="rigid_rotation_omega0"),
        pytest.param(("run", {"flows": [{"name": "simple_shear", "params": {"gamma": 0}}]}),
                     "gamma", id="simple_shear_gamma0"),
        pytest.param(("run", {"flows": [{"name": "stagnation", "params": {"k": 0}}]}),
                     "stagnation k", id="stagnation_k0"),
        pytest.param(("run", {"flows": [{"name": "point_vortex", "params": {"gamma": 0}}]}),
                     "gamma", id="point_vortex_gamma0"),
        pytest.param(("run", {"flows": [{"name": "gerstner", "params": {"g": 0}}]}),
                     "gravity g", id="gerstner_g0"),
        pytest.param(("run", {"flows": [{"name": "gerstner", "params": {"g": -1}}]}),
                     "gravity g", id="gerstner_g_negative"),
        # a bool is no number, though float(True) is 1.0
        pytest.param(("run", {"flows": [{"name": "rigid_rotation", "params": {"omega": True}}]}),
                     "omega must be a number", id="rigid_rotation_omega_bool"),
        pytest.param(("flows", "describe", "rigid_rotation", "--params", '{"omega": true}'),
                     "omega must be a number", id="describe_rigid_rotation_omega_bool"),
        # a config with no checks would write a report with no rows and exit 0
        pytest.param(("run", {"checks": []}), "config.checks: [] should be non-empty",
                     id="checks_empty"),
        pytest.param(("run", {"flows": [{"name": "point_vortex", "params": {"dt": 0}}]}),
                     "dt > 0", id="point_vortex_dt0"),
        pytest.param(("run", {"flows": [{"name": "point_vortex", "params": {"dt": -0.01}}]}),
                     "dt > 0", id="point_vortex_dt_negative"),
        pytest.param(("run", {"flows": [{"name": "taylor_green", "params": {"dt": 0.3}}]}),
                     "dt must divide", id="taylor_green_dt_not_dividing"),
        pytest.param(("run", {"flows": [{"name": "point_vortex", "params": {"times": [0.0]}}]}),
                     "times", id="point_vortex_one_time"),
        pytest.param(("run", {"flows": [{"name": "taylor_green", "params": {"times": []}}]}),
                     "times", id="taylor_green_no_times"),
        pytest.param(("run", {"flows": [{"name": "taylor_green",
                                         "params": {"times": [0.5, 1.0]}}]}),
                     "t=0", id="taylor_green_times_not_from_zero"),
        pytest.param(("run", {"flows": [{"name": "uniform_translation",
                                         "params": {"velocity": [1.0, 0.0]}}]}),
                     "velocity", id="uniform_translation_velocity_2"),
        pytest.param(("run", {"quadrature": "simpson"}), "quadrature", id="retired_quadrature_key"),
        # json reads NaN and Infinity, and the schema's "number" takes them
        pytest.param(("run", {"time_fractions": [0.0, math.nan]}), "config.time_fractions[1]",
                     id="time_fraction_nan"),
        pytest.param(("run", {"time_fractions": [0.0, math.inf]}), "config.time_fractions[1]",
                     id="time_fraction_inf"),
        pytest.param(("run", {"time_fractions": [math.nan, 0.25]}), "config.time_fractions[0]",
                     id="time_fraction_nan_first"),
        pytest.param(("run", {"checks": [{"id": "cauchy.invariant_drift", "tolerance": math.inf}]}),
                     "config.checks[0].tolerance", id="tolerance_inf"),
        pytest.param(("run", {"checks": [{"id": "cauchy.invariant_drift", "tolerance": 1.0,
                                          "min_order": math.nan}]}),
                     "config.checks[0].min_order", id="min_order_nan"),
        pytest.param(("run", {"stencil_order": 4, "grids": [[5, 5]]}),
                     "config.grids [5, 5]: stencil_order 4", id="order4_grid_under_6"),
        pytest.param(("flows", "describe", "rigid_rotation", "--params", '{"omega": 0}'),
                     "omega", id="describe_rigid_rotation_omega0"),
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
        # a zero normal would give a loop of NaN labels
        pytest.param(("run", {"checks": [{"id": "circulation.kelvin_drift", "tolerance": 1.0,
                                          "options": {"normal": [0, 0, 0]}}]}),
                     "config.checks[0].options.normal", id="kelvin_zero_normal"),
        pytest.param(("run", {"checks": [{"id": "circulation.kelvin_drift", "tolerance": 1.0,
                                          "options": {"normal": [0.0, math.nan, 1.0]}}]}),
                     "config.checks[0].options.normal", id="kelvin_nan_normal"),
        pytest.param(("run", {"checks": [{"id": "circulation.kelvin_drift", "tolerance": 1.0,
                                          "options": {"normal": [math.inf, 0.0, 0.0]}}]}),
                     "config.checks[0].options.normal", id="kelvin_inf_normal"),
        pytest.param(("run", {"checks": [{"id": "circulation.stokes", "tolerance": 1.0,
                                          "options": {"normal": [0.0, 0.0, 0.0]}}]}),
                     "config.checks[0].options.normal", id="stokes_zero_normal"),
        # the wavelength 2 pi / k overflows: the grid names its spacing
        pytest.param(("run", {"flows": [{"name": "gerstner", "params": {"k": 1e-320}}]}),
                     "spacings must be finite", id="gerstner_k_spacing_overflows"),
        pytest.param(("converge", "flows.rk4_closure", "gerstner", "--dts", "0.1,0.05"),
                     "gerstner", id="rk4_closure_other_flow"),
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "0.1,0.05",
                      "--params", '{"omgea": 2}'), "omgea", id="rk4_closure_param"),
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "0,0.1"),
                     "step 0.0 is not positive and finite", id="rk4_closure_dt_zero"),
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts=-0.1,0.1"),
                     "step -0.1 is not positive and finite", id="rk4_closure_dt_negative"),
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "nan,0.1"),
                     "step nan is not positive and finite", id="rk4_closure_dt_nan"),
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "inf,0.1"),
                     "step inf is not positive and finite", id="rk4_closure_dt_inf"),
        # one step size leaves no slope to fit, however far above the floor
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "0.1"),
                     "--dts", id="rk4_closure_one_dt"),
        pytest.param(("converge", "circulation.stokes", "rigid_rotation",
                      "--grids", "16x16,16x16"), "--grids", id="converge_same_grid_twice"),
        # a step list the study does not read is named, not dropped
        pytest.param(("converge", "cauchy.invariant_drift", "rigid_rotation",
                      "--grids", "16x16,32x32", "--dts", "0.1,0.05"),
                     "cauchy.invariant_drift does not read --dts", id="grid_study_with_dts"),
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation",
                      "--dts", "0.1,0.05", "--grids", "16x16,32x32"),
                     "flows.rk4_closure does not read --grids", id="rk4_closure_with_grids"),
        # json reads NaN and Infinity in --params as well
        pytest.param(("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "0.1,0.05",
                      "--params", '{"omega": NaN}'), "--params.omega: nan is not a finite number",
                     id="rk4_closure_param_nan"),
        pytest.param(("flows", "describe", "rigid_rotation", "--params", '{"omega": NaN}'),
                     "--params.omega: nan is not a finite number", id="describe_param_nan"),
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

    @pytest.mark.parametrize("content", [None, '{"rows": 5}', "[1, 2]", "not json"],
                             ids=["missing", "rows_not_a_list", "not_an_object", "not_json"])
    def test_report_diff_unreadable_report_exits_three(self, tmp_path, content):
        # exit 1 means "reports differ", so a file that is no report exits 3
        path = tmp_path / "r.json"
        if content is not None:
            path.write_text(content)
        proc = run_cli("report", "diff", str(path), str(path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot read report: ")
        assert "Traceback" not in proc.stderr

    def test_converge_unwritable_out_exits_three(self, tmp_path):
        proc = run_cli("converge", "flows.rk4_closure", "rigid_rotation", "--dts", "0.1,0.05",
                       "--out", str(tmp_path / "missing" / "conv.dat"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot write ") and "Traceback" not in proc.stderr

    def test_report_diff_cli(self, tmp_path):
        cfg = dict(SUITE)
        cfg["grids"] = [[32, 32]]
        p, q = tmp_path / "s.json", tmp_path / "t.json"
        p.write_text(json.dumps(cfg))
        # the same computation spelled without the keys SUITE writes out
        q.write_text(json.dumps({k: v for k, v in cfg.items()
                                 if k not in ("seed", "rind", "stencil_order",
                                              "time_fractions")}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("run", str(p), "--out", str(a)).returncode == 0
        assert run_cli("run", str(q), "--out", str(b)).returncode == 0
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

