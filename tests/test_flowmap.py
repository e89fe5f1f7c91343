"""Flow-map calculus: deformation gradients, density equations, cofactor
relations, the volume-integral transform and map inversion."""

import ast
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import flowmaplab.flowmap as flowmap
import flowmaplab.flows as flows

from flowmaplab import (
    AnalyticFlowMap,
    LabelGrid,
    SingularMapError,
    StencilSpec,
    catalog_flow,
    cofactor_identity_residual,
    deformation_gradient,
    density_residual,
    mass_integral_transform,
)
from flowmaplab.flowmap import _grid_in_hull, adjugate3, det3, invert_map
from flowmaplab.grids import ACCELERATION_STEP, summarize_residual
from flowmaplab.flows import default_grid


def box_grid(n=9, lo=-0.5, hi=0.5, dims=3):
    h = (hi - lo) / (n - 1)
    return LabelGrid((n,) * dims, (lo,) * dims, (h,) * dims)


def identity_map(grid=None):
    grid = grid or box_grid()
    return AnalyticFlowMap(
        grid,
        position=lambda lab, t: lab.copy(),
        velocity=lambda lab, t: np.zeros_like(lab),
        acceleration=lambda lab, t: np.zeros_like(lab),
        name="rest",
    )


def linear_map(A, grid=None):
    """x = A . labels (well-conditioned A with det near 1)."""
    A = np.asarray(A, dtype=float)
    grid = grid or box_grid()

    def pos(lab, t):
        return np.einsum("ij,...j->...i", np.eye(3) + t * (A - np.eye(3)), lab)

    return AnalyticFlowMap(
        grid, pos,
        velocity=lambda lab, t: np.einsum("ij,...j->...i", A - np.eye(3), lab),
        name="linear",
    )


class TestDeformationGradient:
    def test_identity_map_all_times(self):
        m = identity_map()
        for t in (0.0, 0.5, 2.0):
            g = deformation_gradient(m, t, StencilSpec(2))
            err = np.abs(g - np.eye(3)).max()
            assert err < 1e-12

    def test_identity_at_zero_gate(self):
        grid = box_grid()
        with pytest.raises(ValueError):
            AnalyticFlowMap(grid, lambda lab, t: lab + 0.001,
                            lambda lab, t: np.zeros_like(lab))

    def test_rigid_rotation_matches_rotation_matrix(self):
        # oracle: differentiate the closed-form map by hand; the gradient is
        # the rotation matrix itself
        w = 1.3
        e = catalog_flow("rigid_rotation", omega=w)
        t = 0.7
        c, s = np.cos(w * t), np.sin(w * t)
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        partials = e.map.label_partials(e.map.grid_labels(), t)
        for mode in ("analytic", "fd"):
            g = deformation_gradient(e.map, t, StencilSpec(2), mode=mode)
            assert np.abs(g - R).max() < 1e-12
            # the mode decides the build: the registered partials bit for bit, or not
            assert (g.tobytes() == partials.tobytes()) == (mode == "analytic")

    def test_simple_shear_slot(self):
        e = catalog_flow("simple_shear", gamma=0.8)
        g = deformation_gradient(e.map, 2.0, mode="fd")
        expect = np.eye(3)
        expect[0, 1] = 0.8 * 2.0
        assert np.abs(g - expect).max() < 1e-12

    def test_fd_exact_on_linear_maps(self):
        A = np.array([[1.1, 0.2, 0.0], [-0.1, 0.95, 0.05], [0.0, 0.1, 1.0]])
        m = linear_map(A)
        g = deformation_gradient(m, 1.0, StencilSpec(2), mode="fd")
        assert np.abs(g - A).max() < 1e-12


class TestGradientArray:
    """deformation_gradient returns the plain grid.shape + (3, 3) array it
    fills in place, read-only."""

    @staticmethod
    def build(name, n):
        m = catalog_flow(name, validate=False, grid=default_grid(name, (n, n))).map
        return m, float(m.times[1]) if hasattr(m, "times") else 0.3 * m.timescale

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name, n", [("gerstner", 160), ("taylor_green", 32),
                                         ("point_vortex", 32)])
    def test_fd_is_the_whole_grid_gradient_of_the_displacement(self, name, n, order):
        # gerstner at 160^2 fills 7 slabs with a halo; taylor_green is
        # periodic, and both sampled maps are one slab
        from flowmaplab.grids import gradient

        m, t = self.build(name, n)
        assert len(flowmap._pointwise_slabs(m)) == (7 if name == "gerstner" else 1)
        F = deformation_gradient(m, t, StencilSpec(order), mode="fd")
        assert type(F) is np.ndarray and F.shape == m.grid.shape + (3, 3)
        assert not F.flags.writeable
        lab = m.grid_labels()
        want = gradient(m.positions(lab, t) - lab, StencilSpec(order), grid=m.grid) + np.eye(3)
        assert F.tobytes() == want.tobytes()

    def test_analytic_is_the_registered_partials(self):
        m, t = self.build("gerstner", 160)
        F = deformation_gradient(m, t, mode="analytic")
        assert type(F) is np.ndarray and not F.flags.writeable
        assert F.tobytes() == m.label_partials(m.grid_labels(), t).tobytes()

    def test_fd_build_copies_no_slab_result(self):
        # point_vortex at 32^2 is one slab at a table time: F, the slab's
        # labels (made its displacement in place) and their axis-0
        # difference (1/3 F each), and numpy's fixed ufunc buffers measure
        # 2.64 F; a slab result built apart and copied into F adds one F
        n = 32
        f_bytes = 8 * 9 * n * n
        m, t = self.build("point_vortex", n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            deformation_gradient(m, t, mode="fd")
            rise = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rise <= 2.9 * f_bytes, f"the fd build rose {rise / f_bytes:.2f} F"


class TestDerivativeMode:
    """flowmap._uses_partials is the one rule for a derivative mode: auto,
    analytic or fd, read off the map's registered partials."""

    @pytest.fixture(scope="class")
    def gerstner(self):
        return catalog_flow("gerstner", grid=default_grid("gerstner", (16, 16)))

    @pytest.mark.parametrize("name", ["deformation_gradient", "cofactor_identity_residual",
                                      "density_residual", "lagrangian_eom_residual",
                                      "cauchy_invariants", "invariant_drift"])
    def test_misspelled_mode_raises(self, gerstner, name):
        from flowmaplab.cauchy import cauchy_invariants, invariant_drift
        from flowmaplab.dynamics import lagrangian_eom_residual

        m, t, bad = gerstner.map, 0.25 * gerstner.map.timescale, "analytc"
        call = {
            "deformation_gradient": lambda: deformation_gradient(m, t, mode=bad),
            "cofactor_identity_residual": lambda: cofactor_identity_residual(m, t, mode=bad),
            "density_residual": lambda: density_residual(m, t, gradient_mode=bad),
            "lagrangian_eom_residual": lambda: lagrangian_eom_residual(m, gerstner.force, t,
                                                                       mode=bad),
            "cauchy_invariants": lambda: cauchy_invariants(m, t, mode=bad),
            "invariant_drift": lambda: invariant_drift(m, [0.0, t], mode=bad),
        }[name]
        with pytest.raises(ValueError, match="mode must be 'auto', 'analytic' or 'fd', "
                                             "got 'analytc'"):
            call()

    def test_the_rule_reads_the_registration_only(self):
        def unreachable(lab, t):
            raise AssertionError("the mode rule evaluated a callable")

        m = AnalyticFlowMap(box_grid(), lambda lab, t: lab.copy(), unreachable,
                            partials=unreachable)
        assert flowmap._uses_partials(m, "auto") and flowmap._uses_partials(m, "analytic")
        assert not flowmap._uses_partials(m, "fd")
        assert not flowmap._uses_partials(m, "auto", velocity=True)
        assert not flowmap._uses_partials(m, "fd", velocity=True)
        with pytest.raises(ValueError, match="lacks the partials mode 'analytic' needs"):
            flowmap._uses_partials(m, "analytic", velocity=True)
        with pytest.raises(ValueError, match="lacks the partials mode 'analytic' needs"):
            flowmap._uses_partials(identity_map(), "analytic")

    def test_closed_form_hooks_live_on_flowmap(self):
        for hook in ("accelerations", "label_partials", "velocity_label_partials"):
            assert hook in vars(flowmap.FlowMap) and hook not in vars(AnalyticFlowMap)

    def test_mode_rule_has_one_home(self):
        # no module compares a derivative mode with "auto", "analytic" or "fd"
        # outside flowmap._uses_partials: a literal mode (or a literal
        # container of one) on either side of a comparison, or any name
        # ending in "mode" compared with a string. density_residual's
        # lagrangian/eulerian mode is another option, exempt by name
        MODES = {"auto", "analytic", "fd"}
        HOME, EXEMPT = "_uses_partials", "density_residual"

        def literal_modes(e):
            items = e.elts if isinstance(e, (ast.Tuple, ast.List, ast.Set)) else [e]
            return any(isinstance(i, ast.Constant) and i.value in MODES for i in items)

        def mode_named(e):
            name = e.id if isinstance(e, ast.Name) else getattr(e, "attr", "")
            return name.endswith("mode")

        def compares(path):
            found = []

            def visit(node, fn):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = node.name
                if isinstance(node, ast.Compare):
                    ops = [node.left, *node.comparators]
                    strings = any(isinstance(o, ast.Constant) and isinstance(o.value, str)
                                  for o in ops)
                    if any(literal_modes(o) for o in ops) or (
                            fn != EXEMPT and strings and any(mode_named(o) for o in ops)):
                        found.append((fn, node.lineno))
                for child in ast.iter_child_nodes(node):
                    visit(child, fn)

            visit(ast.parse(path.read_text()), None)
            return found

        src = Path(__file__).resolve().parents[1] / "src" / "flowmaplab"
        assert {fn for fn, _ in compares(src / "flowmap.py")} == {HOME}
        offenders = [f"{f.name}:{n}" for f in sorted(src.glob("*.py"))
                     for fn, n in compares(f) if fn != HOME]
        assert offenders == []


class TestGradientMemo:
    """deformation_gradient keeps one gradient per map, read-only."""

    def test_a_new_key_releases_the_kept_gradient(self):
        m = catalog_flow("rigid_rotation", validate=False).map
        g1 = deformation_gradient(m, 0.1, mode="fd")
        assert deformation_gradient(m, 0.1, mode="fd") is g1
        kept = weakref.ref(g1)
        del g1
        g2 = deformation_gradient(m, 0.2, mode="fd")
        assert kept() is None
        assert deformation_gradient(m, 0.2, mode="fd") is g2

    def test_kept_gradient_is_released_before_the_next_build(self):
        # the second build may rise no higher above the memory without a kept
        # gradient than the first did; holding the old F through it adds F
        n = 128
        f_bytes = 8 * 9 * n * n
        m = catalog_flow("rigid_rotation", validate=False,
                         grid=default_grid("rigid_rotation", (n, n))).map
        tracemalloc.start()
        try:
            rises = []
            for t in (0.1, 0.2):
                start = tracemalloc.get_traced_memory()[0] - (f_bytes if rises else 0)
                tracemalloc.reset_peak()
                deformation_gradient(m, t, mode="fd")
                rises.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert rises[1] <= rises[0] + f_bytes / 4

    def test_modes_that_resolve_alike_share_one_build(self, monkeypatch):
        # auto and analytic both resolve to gerstner's registered partials,
        # and analytic F does not depend on the stencil order
        m = catalog_flow("gerstner", validate=False, grid=default_grid("gerstner", (64, 64))).map
        calls = []
        partials = m._partials
        monkeypatch.setattr(m, "_partials", lambda *a: calls.append(1) or partials(*a))
        slabs = len(flowmap._pointwise_slabs(m))
        g = deformation_gradient(m, 0.3, mode="auto")
        for mode, spec in (("analytic", StencilSpec(2)), ("auto", StencilSpec(4))):
            assert deformation_gradient(m, 0.3, spec, mode=mode) is g
        assert len(calls) == slabs
        fd = deformation_gradient(m, 0.3, mode="fd")
        assert fd is not g and len(calls) == slabs
        assert deformation_gradient(m, 0.3, StencilSpec(4), mode="fd") is not fd

    @pytest.mark.parametrize("name", ["gerstner", "point_vortex"])
    def test_catalog_entry_holds_no_gradient(self, name):
        # the construction gate builds one; the entry must not keep it
        e = catalog_flow(name, grid=default_grid(name, (16, 16)))
        assert e.map._gradient is None

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_array_is_read_only(self, mode):
        g = deformation_gradient(catalog_flow("gerstner").map, 1.0, mode=mode)
        with pytest.raises(ValueError):
            g[0, 0, 0, 0] = 1.0

    def test_partials_callable_array_stays_writable(self):
        grid = box_grid()
        eye = np.broadcast_to(np.eye(3), grid.shape + (3, 3)).copy()
        m = AnalyticFlowMap(grid, lambda lab, t: lab, lambda lab, t: np.zeros_like(lab),
                            partials=lambda lab, t: eye)
        deformation_gradient(m, 0.5)
        eye[0, 0, 0, 0, 0] = 1.0  # the callable's own array is not frozen

    def test_keys_do_not_collide(self):
        # time, stencil order and mode each key the kept gradient; every
        # result equals, bit for bit, a build on a fresh map
        grid = default_grid("gerstner", (32, 32))
        m = catalog_flow("gerstner", grid=grid).map
        for t, order, mode in [(1.0, 2, "fd"), (1.0, 4, "fd"), (1.0, 4, "auto"),
                               (1.0, 2, "fd"), (2.0, 2, "fd"), (1.0, 2, "fd")]:
            fresh = catalog_flow("gerstner", validate=False, grid=grid).map
            got = deformation_gradient(m, t, StencilSpec(order), mode)
            want = deformation_gradient(fresh, t, StencilSpec(order), mode)
            assert got.tobytes() == want.tobytes(), (t, order, mode)


class TestGridCheckMemory:
    """How far each gate or grid check rises above the memory at its entry,
    in units of one 128^2 deformation gradient F, starting with no kept
    gradient. The bounds sit about 0.25 F above what the checks measure, so
    one more (N, 3) or F-sized array alive at the peak fails them. The
    cofactor check measures 2.01 F: the kept F, its BLOCK-node pieces and
    the residual reduction's planes. The construction gates and the
    identity check hold slab-sized pieces of BLOCK nodes (0.25 F each at
    128^2) and, for the momentum residual, its three whole-grid planes. The
    fd invariant drift measures 2.26 F on either flow: the kept F, the t0
    and current invariant fields (1/3 F each), and one slab's covelocity, its
    gradient and numpy's fixed ufunc buffers (0.6 F at 128^2, 0.15 F at
    256^2); the analytic drift 1.67 F, and the solenoidality check 1.93 F."""

    N = 128

    @pytest.fixture(scope="class")
    def gerstner(self):
        e = catalog_flow("gerstner", validate=False, grid=default_grid("gerstner", (self.N,) * 2))
        t = 0.25 * e.map.timescale
        sgrid = flowmap._inscribed_grid(e.map, e.map.positions(e.map.grid_labels(), t))
        return e, t, sgrid.nodes3().reshape(sgrid.shape + (3,))

    @pytest.fixture(scope="class")
    def rotation(self):
        return catalog_flow("rigid_rotation", validate=False,
                            grid=default_grid("rigid_rotation", (self.N,) * 2)).map

    BOUNDS = {"validate_analytic_partials": 1.35, "cofactor_identity_residual": 2.3,
              "lagrangian_eom_residual": 2.35, "gate_lagrangian_eom_residual": 1.6,
              "invariant_drift": 2.5, "rotation_invariant_drift": 2.5,
              "analytic_invariant_drift": 1.9, "solenoidality_residual": 2.15,
              "invert_map": 1.5, "density_residual": 1.85, "check_identity_at_zero": 0.5}

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_rise_above_entry(self, gerstner, rotation, name):
        from flowmaplab.cauchy import cauchy_invariants, invariant_drift, solenoidality_residual
        from flowmaplab.dynamics import lagrangian_eom_residual

        e, t, points = gerstner
        m = e.map
        tr = 0.25 * rotation.timescale
        call = {
            "validate_analytic_partials": lambda: flowmap.validate_analytic_partials(m, t),
            "cofactor_identity_residual": lambda: cofactor_identity_residual(m, t, mode="fd"),
            "lagrangian_eom_residual": lambda: lagrangian_eom_residual(m, e.force, t, mode="fd"),
            # the construction gate's form: analytic partials, order-2 stencils
            "gate_lagrangian_eom_residual": lambda: lagrangian_eom_residual(m, e.force, t),
            "invariant_drift": lambda: invariant_drift(m, [0.0, 0.5 * t, t], mode="fd"),
            "rotation_invariant_drift":
                lambda: invariant_drift(rotation, [0.0, 0.5 * tr, tr], mode="fd"),
            "analytic_invariant_drift": lambda: invariant_drift(m, [0.0, 0.5 * t, t]),
            "solenoidality_residual":
                lambda: solenoidality_residual(cauchy_invariants(rotation, tr, mode="fd"), rind=1),
            "invert_map": lambda: invert_map(m, points, t),
            "density_residual": lambda: density_residual(m, t, "eulerian"),
            "check_identity_at_zero": rotation.check_identity_at_zero,
        }[name]
        f_bytes = 8 * 9 * self.N ** 2
        m._gradient = rotation._gradient = None
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            rise = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            m._gradient = rotation._gradient = None
        assert rise <= self.BOUNDS[name] * f_bytes, f"{name} rose {rise / f_bytes:.2f} F above its entry"


def _periodic_gerstner():
    # gerstner is periodic in a over one wavelength: the slabs' halo wraps
    grid = LabelGrid((64, 64), (0.0, -3.0), (2 * np.pi / 64, 2.5 / 63), (True, False))
    return catalog_flow("gerstner", grid=grid)


class TestSlabGates:
    """The construction gates, the identity check, the Eulerian density
    check and the Cauchy invariants evaluate closed-form maps on slabs of
    grids.BLOCK nodes; each result equals, as float.hex, its whole-grid form
    written out here. The 64^2 grids have 64 planes of 64 nodes: one-plane
    slabs, and slabs of 3 and 5 planes that end in a partial slab."""

    FLOWS = ["gerstner", "rigid_rotation", "stagnation", "periodic_gerstner"]

    @pytest.fixture(params=[30, 200, 330])
    def block(self, request, monkeypatch):
        import flowmaplab.grids as grids

        monkeypatch.setattr(grids, "BLOCK", request.param)
        monkeypatch.setattr(flowmap, "BLOCK", request.param)
        return request.param

    @staticmethod
    def entry(name):
        if name == "periodic_gerstner":
            return _periodic_gerstner()
        return catalog_flow(name, grid=default_grid(name, (64, 64)))

    @staticmethod
    def hexed(s):
        return s.linf.hex(), s.l2.hex(), s.location

    @pytest.mark.parametrize("name", FLOWS)
    def test_validation_mismatch(self, block, name):
        from flowmaplab.grids import gradient

        m = self.entry(name).map
        t = 0.3 * m.timescale
        lab = m.grid_labels()
        F = m.label_partials(lab, t)
        fd = gradient(m.positions(lab, t) - lab, StencilSpec(2), grid=m.grid) + np.eye(3)
        want = float(np.max(np.abs(fd - F)[m.grid.interior_slices(2)]))
        assert flowmap.validate_analytic_partials(m, t).hex() == want.hex()
        assert len(flowmap._plane_slabs(m.grid)) == {30: 64, 200: 22, 330: 13}[block]

    @staticmethod
    def whole_grid_partials(m, t, spec, mode):
        from flowmaplab.grids import gradient

        lab = m.grid_labels()
        if mode == "auto":
            return m.label_partials(lab, t)
        return gradient(m.positions(lab, t) - lab, spec, grid=m.grid) + np.eye(3)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", FLOWS)
    def test_fd_deformation_gradient(self, block, name, order):
        m = self.entry(name).map
        t = 0.3 * m.timescale
        got = deformation_gradient(m, t, StencilSpec(order), "fd")
        want = self.whole_grid_partials(m, t, StencilSpec(order), "fd")
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", FLOWS)
    def test_analytic_deformation_gradient(self, block, name):
        # mode "auto" fills the registered partials slab by slab
        m = self.entry(name).map
        t = 0.3 * m.timescale
        g = deformation_gradient(m, t, mode="auto")
        want = self.whole_grid_partials(m, t, StencilSpec(2), "auto")
        assert g.tobytes() == want.tobytes()

    def check_momentum(self, m, fp, spec, mode):
        from flowmaplab.dynamics import lagrangian_eom_residual
        from flowmaplab.grids import gradient

        t = 0.3 * m.timescale
        lab = m.grid_labels()
        F = self.whole_grid_partials(m, t, spec, mode)
        pos = m.positions(lab, t)
        net = m.accelerations(lab, t) - fp.V_grad_at(pos, t)
        if fp.pressure_frame == "position":
            dp = np.einsum("...i,...ij->...j", fp.pressure_grad(pos, t), F)
        elif fp.pressure_grad is not None:
            dp = fp.pressure_grad(lab, t)
        else:
            dp = gradient(fp.pressure_at(lab, t), spec, grid=m.grid)
        core = np.einsum("...i,...ij->...j", net, F) + dp
        want = [summarize_residual(core[..., j], m.grid, rind=1) for j in range(3)]
        got = lagrangian_eom_residual(m, fp, t, spec, mode=mode, rind=1)
        assert [self.hexed(s) for s in got] == [self.hexed(s) for s in want]

    @pytest.mark.parametrize("mode", ["auto", "fd"])
    @pytest.mark.parametrize("name", FLOWS)
    def test_momentum_summaries(self, block, name, mode):
        e = self.entry(name)
        self.check_momentum(e.map, e.force, StencilSpec(2), mode)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", ["gerstner", "periodic_gerstner"])
    def test_label_pressure_differences(self, block, name, order):
        # without its analytic gradient, gerstner's label-frame pressure is
        # differenced on each slab over an order // 2-plane halo
        import dataclasses

        e = self.entry(name)
        fp = dataclasses.replace(e.force, pressure_grad=None)
        self.check_momentum(e.map, fp, StencilSpec(order), "auto")

    def test_non_finite_label_pressure_raises(self, block):
        import dataclasses

        from flowmaplab.dynamics import lagrangian_eom_residual

        e = self.entry("gerstner")  # a > 6 holds on the last plane only
        bad = lambda lab, t: np.where(lab[..., 0] > 6.0, np.nan, e.force.pressure(lab, t))  # noqa: E731
        fp = dataclasses.replace(e.force, pressure=bad, pressure_grad=None)
        with pytest.raises(ValueError, match="non-finite values in field"):
            lagrangian_eom_residual(e.map, fp, 1.0)

    def test_mis_shaped_label_pressure_raises(self, block):
        import dataclasses

        from flowmaplab.dynamics import lagrangian_eom_residual

        e = self.entry("gerstner")
        for bad in (lambda lab, t: 0.0, lambda lab, t: e.force.pressure(lab, t)[..., :1]):
            fp = dataclasses.replace(e.force, pressure=bad, pressure_grad=None)
            with pytest.raises(ValueError, match="is not sampled on axis-0 planes"):
                lagrangian_eom_residual(e.map, fp, 1.0)

    @pytest.mark.parametrize("name", ["rigid_rotation", "stagnation"])
    def test_identity_holds(self, block, name):
        self.entry(name).map.check_identity_at_zero()

    @pytest.mark.parametrize("size", [0.5e-12, 2e-12])
    @pytest.mark.parametrize("plane", [0, 31, 63])
    def test_identity_error_on_one_plane(self, block, plane, size):
        # x(a, 0) - a is `size` on one axis-0 plane and 0 elsewhere: the
        # check raises exactly when the error crosses 1e-12, wherever it sits
        # (the check runs as the map is built)
        grid = LabelGrid((64, 64), (0.0, 0.0), (1.0, 1.0))
        build = lambda: AnalyticFlowMap(grid, lambda lab, t: lab + size * (lab[..., :1] == plane),  # noqa: E731
                                        lambda lab, t: np.zeros_like(lab))
        if size > 1e-12:
            with pytest.raises(ValueError, match="identity-at-zero"):
                build()
        else:
            build()

    @pytest.mark.parametrize("name", ["gerstner", "stagnation", "periodic_gerstner"])
    def test_eulerian_density_summary(self, block, name):
        from flowmaplab.flowmap import deformation_at, inv3
        from flowmaplab.grids import differentiate

        m = self.entry(name).map
        t = 0.25 * m.timescale
        sgrid = flowmap._inscribed_grid(m, m.positions(m.grid_labels(), t))
        pts = sgrid.nodes3().reshape(sgrid.shape + (3,))
        lab = pts.copy()
        for _ in range(flowmap.INVERT_MAX_ITER):
            res = pts - m.positions(lab, t)
            if np.max(np.abs(res)) < flowmap.INVERT_TOL:
                break
            lab = lab + np.einsum("...ij,...j->...i", inv3(deformation_at(m, lab, t)), res)
        vel = m.velocities(lab, t)
        div = (differentiate(vel[..., 0], 0, grid=sgrid)
               + differentiate(vel[..., 1], 1, grid=sgrid))
        want = summarize_residual(np.abs(div), sgrid, rind=1)
        assert self.hexed(density_residual(m, t, "eulerian")) == self.hexed(want)

    @staticmethod
    def half_curl(J):
        return 0.5 * np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                               J[..., 1, 0] - J[..., 0, 1]], axis=-1)

    def whole_grid_covelocity_curl(self, m, t, spec, F):
        from flowmaplab.grids import gradient

        lab = m.grid_labels()
        cov = np.einsum("...i,...ij->...j", m.velocities(lab, t), F)
        return self.half_curl(gradient(cov, spec, grid=m.grid))

    @pytest.mark.parametrize("mode", ["auto", "fd"])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", FLOWS)
    def test_cauchy_invariants(self, block, name, order, mode):
        # auto: Cauchy's first-derivative form from the exact partials, half
        # the antisymmetric part of sum_i F_ij G_ik; fd: half the grid curl
        # of the covelocity u . F, F the fd gradient
        from flowmaplab.cauchy import cauchy_invariants

        m = self.entry(name).map
        t = 0.3 * m.timescale
        spec = StencilSpec(order)
        if mode == "auto":
            lab = m.grid_labels()
            D = np.einsum("...ik,...ij->...jk", m.velocity_label_partials(lab, t),
                          m.label_partials(lab, t))
            want = self.half_curl(D)
        else:
            want = self.whole_grid_covelocity_curl(
                m, t, spec, self.whole_grid_partials(m, t, spec, "fd"))
        got = cauchy_invariants(m, t, spec, mode)
        assert got.mode == ("analytic" if mode == "auto" else f"fd-order{order}")
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", ["gerstner", "periodic_gerstner"])
    def test_cauchy_invariants_without_velocity_partials(self, block, name, order):
        # exact F but no velocity partials: the covelocity's grid curl with
        # the analytic F
        from flowmaplab.cauchy import cauchy_invariants

        e = self.entry(name).map
        m = AnalyticFlowMap(e.grid, e._position, e._velocity, partials=e._partials,
                            convention=e.convention, timescale=e.timescale)
        t = 0.3 * m.timescale
        spec = StencilSpec(order)
        want = self.whole_grid_covelocity_curl(m, t, spec, m.label_partials(m.grid_labels(), t))
        got = cauchy_invariants(m, t, spec)
        assert got.mode == f"fd-order{order}"
        assert got.values.tobytes() == want.tobytes()


class TestSlabReach:
    """No grid check or construction gate hands a closed-form map's
    callables, or its force's, more than one slab of grids.BLOCK nodes plus
    its 1-plane axis-0 halo on each side (order-2 stencils), here on a 128^2
    gerstner entry whose slabs are 32 of its 128 planes."""

    N = 128
    CALLS = ["deformation_gradient", "fd_deformation_gradient", "validate_analytic_partials",
             "gate_lagrangian_eom_residual", "cauchy_invariants", "fd_cauchy_invariants",
             "lagrangian_eom_residual", "fd_lagrangian_eom_residual"]

    @pytest.mark.parametrize("name", CALLS)
    def test_callables_see_one_slab_and_its_halo(self, name):
        import dataclasses

        import flowmaplab.grids as grids
        from flowmaplab.cauchy import cauchy_invariants
        from flowmaplab.dynamics import lagrangian_eom_residual

        e = catalog_flow("gerstner", validate=False, grid=default_grid("gerstner", (self.N,) * 2))
        m, t = e.map, 0.3 * e.map.timescale
        seen = []

        def wrap(fn):
            def counted(points, t):
                seen.append(np.shape(points)[:-1])
                return fn(points, t)
            return counted

        for attr in ("_position", "_velocity", "_acceleration", "_partials",
                     "_velocity_partials"):
            setattr(m, attr, wrap(getattr(m, attr)))
        force = dataclasses.replace(e.force, V_grad=wrap(e.force.V_grad),
                                    pressure_grad=wrap(e.force.pressure_grad))
        call = {
            "deformation_gradient": lambda: deformation_gradient(m, t),
            "fd_deformation_gradient": lambda: deformation_gradient(m, t, mode="fd"),
            "validate_analytic_partials": lambda: flowmap.validate_analytic_partials(m, t),
            "gate_lagrangian_eom_residual": lambda: lagrangian_eom_residual(m, force, t),
            "cauchy_invariants": lambda: cauchy_invariants(m, t),
            "fd_cauchy_invariants": lambda: cauchy_invariants(m, t, mode="fd"),
            "lagrangian_eom_residual": lambda: lagrangian_eom_residual(m, force, t, mode="auto"),
            "fd_lagrangian_eom_residual": lambda: lagrangian_eom_residual(m, force, t, mode="fd"),
        }[name]
        call()
        planes = grids.BLOCK // self.N
        assert seen and all(s[1:] == (self.N,) for s in seen)
        assert max(s[0] for s in seen) <= planes + 2, f"{name} passed labels of shape {max(seen)}"


class TestJacobian:
    def test_identity_is_one(self):
        m = identity_map()
        J = det3(deformation_gradient(m, 1.0))
        assert np.abs(J - 1.0).max() < 1e-13

    def test_rotation_volume_preserving(self):
        # oracle: determinant of a rotation matrix is 1
        e = catalog_flow("rigid_rotation")
        for t in (0.3, 1.7, 5.0):
            J = det3(deformation_gradient(e.map, t))
            assert np.abs(J - 1.0).max() < 1e-12

    def test_gerstner_jacobian_closed_form(self):
        # oracle: hand-expanded 2x2 determinant gives 1 - e^(2kb) at every t
        k = 1.0
        e = catalog_flow("gerstner", k=k)
        lab = e.map.grid_labels()
        expect = 1.0 - np.exp(2 * k * lab[..., 1])
        for t in (0.0, 1.1, 4.0):
            J = det3(deformation_gradient(e.map, t))
            assert np.abs(J - expect).max() < 1e-12


class TestCofactorIdentity:
    def test_identity_map(self):
        assert cofactor_identity_residual(identity_map(), 1.0).linf < 1e-14

    def test_rotation(self):
        # oracle: inverse of a rotation is its transpose
        e = catalog_flow("rigid_rotation")
        assert cofactor_identity_residual(e.map, 0.9).linf <= 1e-12

    def test_random_well_conditioned_linear(self):
        # oracle: explicit matrix inverse of the (det ~ 1) linear map
        rng = np.random.default_rng(7)
        A = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        A /= np.linalg.det(A) ** (1 / 3)
        m = linear_map(A)
        assert cofactor_identity_residual(m, 1.0).linf <= 1e-10

    def test_catalog_flows_machine_level(self):
        for name in ("rigid_rotation", "gerstner", "stagnation", "simple_shear"):
            e = catalog_flow(name)
            t = 0.4 * e.map.timescale
            assert cofactor_identity_residual(e.map, t).linf <= 1e-10, name

    def test_adjugate_matches_the_written_out_cofactors(self):
        # reference: each cofactor written out; the same products, bit for bit
        m = np.random.default_rng(0).normal(size=(5, 4, 3, 3))
        want = np.empty_like(m)
        want[..., 0, 0] = m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1]
        want[..., 0, 1] = m[..., 0, 2] * m[..., 2, 1] - m[..., 0, 1] * m[..., 2, 2]
        want[..., 0, 2] = m[..., 0, 1] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 1]
        want[..., 1, 0] = m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2]
        want[..., 1, 1] = m[..., 0, 0] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 0]
        want[..., 1, 2] = m[..., 0, 2] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 2]
        want[..., 2, 0] = m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]
        want[..., 2, 1] = m[..., 0, 1] * m[..., 2, 0] - m[..., 0, 0] * m[..., 2, 1]
        want[..., 2, 2] = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        assert adjugate3(m).tobytes() == want.tobytes()
        assert flowmap.inv3(m).tobytes() == (want / det3(m)[..., None, None]).tobytes()

    @staticmethod
    def _elimination_inverse(F):
        B = flowmap._inverse_planes(np.moveaxis(F, (-2, -1), (0, 1)).copy())
        return np.moveaxis(np.array(B), (0, 1), (-2, -1))

    def test_in_place_form_matches_the_plain_expression(self):
        # the in-place arithmetic performs the same operations as the plain
        # expression on the elimination inverse, so the summary agrees bit for bit
        e = catalog_flow("gerstner", grid=default_grid("gerstner", (32, 32)))
        F = deformation_gradient(e.map, 1.0, mode="fd")
        ref = np.max(np.abs(det3(F)[..., None, None] * self._elimination_inverse(F)
                            - adjugate3(F)), axis=(-2, -1))
        want = summarize_residual(ref, e.map.grid, rind=1)
        got = cofactor_identity_residual(e.map, 1.0, mode="fd", rind=1)
        assert (got.linf.hex(), got.l2.hex()) == (want.linf.hex(), want.l2.hex())
        assert got.location == want.location

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_blocked_check_is_bit_identical(self, monkeypatch, mode):
        # 64^2 nodes are one BLOCK, so the default call checks the whole grid
        # at once; blocks of 100 nodes end in a partial block
        m = catalog_flow("gerstner", grid=default_grid("gerstner", (64, 64))).map
        assert m.grid.node_count == flowmap.BLOCK
        t = 0.37 * m.timescale
        whole = cofactor_identity_residual(m, t, mode=mode, rind=1)
        monkeypatch.setattr(flowmap, "BLOCK", 100)
        assert m.grid.node_count % 100
        assert cofactor_identity_residual(m, t, mode=mode, rind=1) == whole

    def test_singular_node_in_the_last_block_raises(self, monkeypatch):
        # 729 nodes in blocks of 100: only the last node's F is singular
        def partials(lab, t):
            F = np.broadcast_to(np.eye(3), lab.shape[:-1] + (3, 3)).copy()
            F.reshape(-1, 3, 3)[-1, 0, 0] = 0.0
            return F

        m = AnalyticFlowMap(box_grid(), lambda lab, t: lab.copy(), lambda lab, t: 0 * lab,
                            partials=partials)
        monkeypatch.setattr(flowmap, "BLOCK", 100)
        with pytest.raises(SingularMapError, match="singular deformation gradient in cofactor"):
            cofactor_identity_residual(m, 1.0, mode="analytic")

    def test_elimination_inverse_matches_lapack(self):
        # oracle: LAPACK's inverse, node by node, relative to each node's largest entry
        e = catalog_flow("gerstner", grid=default_grid("gerstner", (32, 32)))
        F = deformation_gradient(e.map, 1.0, mode="fd")
        oracle = np.linalg.inv(F)
        err = np.max(np.abs(self._elimination_inverse(F) - oracle), axis=(-2, -1))
        assert np.max(err / np.max(np.abs(oracle), axis=(-2, -1))) <= 1e-14

    @pytest.mark.parametrize("A", [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                                   [[0, -1, 0], [1, 0, 0], [0, 0, 1]]],
                             ids=["swap", "quarter_turn"])
    def test_zero_leading_entry_needs_a_pivot(self, A):
        # F[..., 0, 0] is exactly 0, so elimination without row swaps divides by it
        m = linear_map(A)
        assert np.all(deformation_gradient(m, 1.0)[..., 0, 0] == 0.0)
        assert cofactor_identity_residual(m, 1.0).linf <= 1e-15

    def test_runs_without_lapack_inverse(self, monkeypatch):
        e = catalog_flow("gerstner", grid=default_grid("gerstner", (16, 16)))

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        assert cofactor_identity_residual(e.map, 1.0, mode="fd").linf <= 1e-15

    def test_no_lapack_inverse_in_the_library(self):
        # inv3 is the library's one 3x3 inverse, with the singular-map guard;
        # this catches `<module>.linalg.inv` and `from numpy.linalg import inv`
        def inverse_lines(path):
            lines = []
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "inv"
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                        or isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                        and any(alias.name == "inv" for alias in node.names)):
                    lines.append(node.lineno)
            return lines

        src = Path(__file__).resolve().parents[1] / "src" / "flowmaplab"
        offenders = [f"{f.name}:{n}" for f in sorted(src.glob("*.py")) for n in inverse_lines(f)]
        assert offenders == []

    def test_singular_map_raises(self):
        def collapse(lab, t):
            out = lab.copy()
            out[..., 0] = out[..., 0] * (1.0 - t)
            return out

        m = AnalyticFlowMap(box_grid(), collapse, lambda lab, t: 0 * lab)
        with pytest.raises(SingularMapError):
            cofactor_identity_residual(m, 1.0)


class TestDensityResidual:
    def test_rotation_lagrangian(self):
        e = catalog_flow("rigid_rotation")
        assert density_residual(e.map, 1.2, "lagrangian").linf <= 1e-12

    def test_gerstner_lagrangian_time_independence(self):
        e = catalog_flow("gerstner")
        T = e.map.timescale
        for t in (0.0, T / 4, T / 2):
            assert density_residual(e.map, t, "lagrangian").linf <= 1e-10

    def test_gerstner_lagrangian_fd_converges(self):
        from flowmaplab.flows import default_grid

        errs = []
        for n in (33, 65):
            e = catalog_flow("gerstner", grid=default_grid("gerstner", (n, n)),
                             validate=False)
            errs.append(density_residual(e.map, 1.0, "lagrangian",
                                         gradient_mode="fd", rind=1).linf)
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_stagnation_eulerian_divergence(self):
        e = catalog_flow("stagnation")
        assert density_residual(e.map, 0.5, "eulerian").linf <= 1e-12

    def test_incompressible_catalog(self):
        for name in ("rigid_rotation", "uniform_translation", "simple_shear", "stagnation"):
            e = catalog_flow(name)
            t = 0.6 * e.map.timescale
            assert density_residual(e.map, t, "lagrangian").linf <= 1e-9, name

    def test_eulerian_inversion_builds_no_interpolant(self, monkeypatch):
        import scipy.interpolate

        e = catalog_flow("gerstner")
        expect = density_residual(e.map, 1.0, "eulerian").linf

        def interpolate(*args, **kwargs):
            raise AssertionError("the Eulerian density path must not interpolate")

        for name in ("CloughTocher2DInterpolator", "LinearNDInterpolator"):
            monkeypatch.setattr(scipy.interpolate, name, interpolate)
        assert density_residual(e.map, 1.0, "eulerian").linf == expect

    @pytest.mark.parametrize("name,message", [
        ("taylor_green", "exits the mapped domain"),
        ("rigid_rotation", "too distorted"),
    ])
    def test_eulerian_spatial_grid_guards(self, name, message):
        from flowmaplab.flows import default_grid

        e = catalog_flow(name, grid=default_grid(name, (16, 16)))
        with pytest.raises(ValueError, match=message):
            density_residual(e.map, 0.25 * e.map.timescale, "eulerian")


class TestEulerianInversionCost:
    """The Eulerian path guards its spatial grid by the four corners of the
    box and seeds Newton by one backward march of the target points."""

    @staticmethod
    def clouds():
        rng = np.random.default_rng(7)
        yield rng.uniform(-1.0, 1.0, (400, 2))
        yield rng.normal(0.0, 0.5, (300, 2)) * (1.0, 0.4)
        a, b = np.meshgrid(np.linspace(-1, 1, 24), np.linspace(-1, 1, 24), indexing="ij")
        r2 = a ** 2 + b ** 2
        swirl = 1.5 * (1.0 - r2)  # rotation that depends on the radius
        yield np.stack([a * np.cos(swirl) - b * np.sin(swirl),
                        a * np.sin(swirl) + b * np.cos(swirl)], axis=-1).reshape(-1, 2)
        yield np.stack([a + 0.3 * np.sin(3 * b), b + 0.2 * np.cos(2 * a)],
                       axis=-1).reshape(-1, 2)

    def test_corner_guard_matches_triangulation_over_every_node(self):
        from scipy.spatial import Delaunay

        rng = np.random.default_rng(11)
        kinds = set()
        for xy in self.clouds():
            tri = Delaunay(xy)
            lo, hi = xy.min(axis=0), xy.max(axis=0)
            span = hi - lo
            for _ in range(60):
                centre = rng.uniform(lo - 0.3 * span, hi + 0.3 * span)
                half = rng.uniform(0.02, 0.4) * span
                box = LabelGrid((8, 8), tuple(centre - half), tuple(2 * half / 7))
                inside = tri.find_simplex(box.nodes3()[:, :2]) >= 0
                kinds.add("inside" if inside.all() else "outside" if not inside.any()
                          else "straddling")
                assert _grid_in_hull(xy, box) == bool(inside.all())
        assert kinds == {"inside", "straddling", "outside"}

    def test_eulerian_path_imports_no_scipy(self):
        code = ("import sys, flowmaplab\n"
                "from flowmaplab import catalog_flow, density_residual\n"
                "density_residual(catalog_flow('gerstner').map, 1.0, 'eulerian')\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = Path(flowmap.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"

    def test_sampled_inversion_marches_the_targets_back_once(self, monkeypatch):
        m = catalog_flow("point_vortex", grid=default_grid("point_vortex", (16, 16))).map
        t = 0.37 * m.timescale  # off the table (0, T/8, T/4) and its lattice
        rk4, jacobian, invert = flows.rk4_advect, flowmap.deformation_at, flowmap.invert_map
        marches, jacobians, inversions = [], [], []

        def counting_rk4(field_fn, labels, t0, t1, dt):
            marches.append((float(t0), float(t1), np.size(labels) // 3))
            return rk4(field_fn, labels, t0, t1, dt)

        def counting_jacobian(*args, **kwargs):
            jacobians.append(args[2])
            return jacobian(*args, **kwargs)

        def recording_invert(*args, **kwargs):
            lab = invert(*args, **kwargs)
            inversions.append((args[1], lab))
            return lab

        monkeypatch.setattr(flows, "rk4_advect", counting_rk4)
        monkeypatch.setattr(flowmap, "deformation_at", counting_jacobian)
        monkeypatch.setattr(flowmap, "invert_map", recording_invert)
        density_residual(m, t, "eulerian")
        (targets, lab), = inversions
        assert [s for s in marches if s[1] == 0.0] == [(t, 0.0, np.size(targets) // 3)]
        assert len(jacobians) <= 2
        back = rk4(m.field_fn, lab, 0.0, t, m.dt)
        assert np.abs(back - targets).max() <= 1e-12

    def test_guard_raises_before_any_march_of_target_points(self, monkeypatch):
        m = catalog_flow("taylor_green", grid=default_grid("taylor_green", (16, 16))).map
        rk4, marches = flows.rk4_advect, []

        def counting_rk4(*args, **kwargs):
            marches.append(args[2:4])
            return rk4(*args, **kwargs)

        monkeypatch.setattr(flows, "rk4_advect", counting_rk4)
        with pytest.raises(ValueError, match="exits the mapped domain"):
            density_residual(m, 1.0, "eulerian")
        assert marches == []


class TestMassIntegralTransform:
    def test_rotation_mass_conserved(self):
        e = catalog_flow("rigid_rotation")
        a, b = mass_integral_transform(e.map, 1.0, lambda p: np.ones(p.shape[:-1]))
        assert abs(a - b) <= 1e-10

    def test_gerstner_mass_conserved(self):
        e = catalog_flow("gerstner")
        a, b = mass_integral_transform(e.map, 2.0, lambda p: np.ones(p.shape[:-1]))
        assert abs(a - b) <= 1e-10

    def test_rotation_quarter_turn_swaps_moments(self):
        # oracle: at t = pi/(2w) the rotation maps x -> -b, so the x^2 moment
        # equals the label b^2 moment, computed by direct quadrature
        w = 1.0
        e = catalog_flow("rigid_rotation", omega=w)
        t = np.pi / (2 * w)
        mapped, _ = mass_integral_transform(e.map, t, lambda p: p[..., 0] ** 2)
        lab = e.map.grid_labels()
        from flowmaplab.quadrature import grid_integral

        direct = grid_integral(lab[..., 1] ** 2, e.map.grid.spacing)
        assert mapped == pytest.approx(direct, abs=1e-12)

    def test_noninvariant_function_disagrees(self):
        e = catalog_flow("stagnation")
        a, b = mass_integral_transform(e.map, 1.0, lambda p: p[..., 0] ** 2)
        assert abs(a - b) > 1e-3  # x^2 is not a material invariant here


class TestMapInversion:
    def test_gerstner_inversion_roundtrip(self):
        e = catalog_flow("gerstner")
        lab = e.map.grid_labels()[4:-4:3, 4:-4:3]
        pos = e.map.positions(lab, 1.0)
        back = invert_map(e.map, pos, 1.0)
        assert np.abs(back - lab).max() < 1e-10

    def test_non_finite_point_named(self):
        m = catalog_flow("taylor_green", grid=default_grid("taylor_green", (16, 16))).map
        pts = m.positions(m.grid_labels(), 1.0)[:2, :2].copy()
        pts[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"point \[.*nan.*\] is not finite"):
            invert_map(m, pts, 1.0)

    def test_non_finite_residual_is_a_stall(self):
        # the field is NaN beyond x = 5, so the target's backward march and
        # every Newton iterate are NaN; NaN labels must not come back
        def field(x, t):
            u = np.stack([-x[..., 1], x[..., 0], np.zeros(x.shape[:-1])], axis=-1)
            return np.where(x[..., :1] > 5.0, np.nan, u)

        g = LabelGrid((8, 8), (0.0, 0.0), (0.1, 0.1))
        m = flows.integrate_trajectories(field, g, [0.0, 0.5], 0.05)
        with pytest.raises(ValueError, match="stalled at residual nan"):
            invert_map(m, np.array([[6.0, 0.0, 0.0]]), 0.5)

    @pytest.mark.parametrize("partials", [True, False])
    def test_blocked_newton_update_is_bit_identical(self, monkeypatch, partials):
        """Newton updates by blocks of BLOCK points, including a partial last
        block, give the labels of one whole-set update bit for bit, with the
        map's analytic Jacobians and with local-stencil ones."""
        m = catalog_flow("gerstner", grid=default_grid("gerstner", (64, 64))).map
        if not partials:
            m = AnalyticFlowMap(m.grid, m._position, m._velocity, convention=m.convention)
        t = 0.37 * m.timescale
        pts = flowmap._inscribed_grid(m, m.positions(m.grid_labels(), t)).nodes3()
        whole = invert_map(m, pts, t)
        monkeypatch.setattr(flowmap, "BLOCK", 100)
        assert len(pts) > 100 and len(pts) % 100
        assert np.array_equal(invert_map(m, pts, t), whole)


@pytest.mark.parametrize("name", ["gerstner", "point_vortex"])
def test_accelerations_without_a_callable_are_the_grids_time_difference(name):
    # a map with no acceleration callable differences its velocities in time
    # at grids.ACCELERATION_STEP times its timescale, the +dt side first
    m = catalog_flow(name, grid=default_grid(name, (16, 16))).map
    if name == "gerstner":
        m = AnalyticFlowMap(m.grid, m._position, m._velocity, convention=m.convention,
                            timescale=m.timescale)
    lab, t = m.grid_labels(), 0.37 * m.timescale
    dt = ACCELERATION_STEP * m.timescale
    want = (m.velocities(lab, t + dt) - m.velocities(lab, t - dt)) / (2 * dt)
    assert m.accelerations(lab, t).tobytes() == want.tobytes()


def test_det3_matches_numpy():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(50, 3, 3))
    assert np.abs(det3(M) - np.linalg.det(M)).max() < 1e-12


def test_analytic_partials_gate():
    # x = (a + t sin b, b, c) on [0, 1]^2, h = 1/16: the true partial
    # dx/db = t cos b passes the gate with an O(h^2) mismatch; a sign error
    # there misses by up to 2 t and trips the gate, 50 h^2 ~ 0.195
    from flowmaplab.flowmap import PARTIALS_GATE_FACTOR, validate_analytic_partials

    grid = LabelGrid((17, 17), (0.0, 0.0), (1 / 16, 1 / 16))

    def shear_map(sign):
        def partials(lab, t):
            F = np.broadcast_to(np.eye(3), lab.shape[:-1] + (3, 3)).copy()
            F[..., 0, 1] = sign * t * np.cos(lab[..., 1])
            return F

        return AnalyticFlowMap(
            grid,
            position=lambda lab, t: lab + np.stack(
                [t * np.sin(lab[..., 1]), 0 * lab[..., 1], 0 * lab[..., 1]], axis=-1),
            velocity=lambda lab, t: np.stack(
                [np.sin(lab[..., 1]), 0 * lab[..., 1], 0 * lab[..., 1]], axis=-1),
            partials=partials,
        )

    err = validate_analytic_partials(shear_map(1.0), 0.5)
    assert 0.0 < err <= PARTIALS_GATE_FACTOR * (1 / 16) ** 2
    with pytest.raises(ValueError, match="analytic partials disagree with finite differences"):
        validate_analytic_partials(shear_map(-1.0), 0.5)


def test_analytic_partials_gate_fails_a_nan():
    # gerstner's partials made NaN for a > 3, half the 32^2 grid: the
    # mismatch is NaN, and a NaN is not within the gate
    e = catalog_flow("gerstner", validate=False, grid=default_grid("gerstner", (32, 32))).map
    m = AnalyticFlowMap(e.grid, e._position, e._velocity,
                        partials=lambda lab, t: np.where((lab[..., 0] > 3)[..., None, None],
                                                         np.nan, e._partials(lab, t)),
                        convention=e.convention, timescale=e.timescale)
    with pytest.raises(ValueError, match="finite differences: nan > "):
        flowmap.validate_analytic_partials(m, 0.3 * m.timescale)
