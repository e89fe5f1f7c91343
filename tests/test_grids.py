"""Grid, field, and finite-difference substrate tests."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmaplab import (LabelGrid, StencilSpec, differentiate, divergence, gradient,
                        point_jacobian)
from flowmaplab.grids import _half_curl, _slab_gradient, summarize_residual


def periodic_grid(n, length=2 * np.pi):
    return LabelGrid((n,), (0.0,), (length / n,), (True,))


def line_grid(n, lo=0.0, hi=1.0):
    return LabelGrid((n,), (lo,), ((hi - lo) / (n - 1),), (False,))


class TestLabelGrid:
    def test_rejects_small_extent(self):
        with pytest.raises(ValueError):
            LabelGrid((3,), (0.0,), (0.1,))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            LabelGrid((8,), (0.0,), (0.0,))

    @pytest.mark.parametrize("origin, spacing, named", [
        ((0.0, np.nan), (0.1, 0.1), "origin"),
        ((np.inf, 0.0), (0.1, 0.1), "origin"),
        ((0.0, 0.0), (np.nan, 0.1), "spacings"),
        ((0.0, 0.0), (0.1, np.inf), "spacings"),
        ((0.0, np.nan), (np.nan, np.inf), "origin"),
    ])
    def test_rejects_non_finite_origin_and_spacing(self, origin, spacing, named):
        # NaN passes a `h <= 0` test, and an inf spacing makes every node but
        # the first infinite
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            LabelGrid((4, 4), origin, spacing)

    def test_catalog_spacing_that_overflows_is_named(self):
        # gerstner's wavelength 2 pi / k overflows for k = 1e-320; the grid,
        # not the e^(2kb) gate downstream, names the fault
        from flowmaplab.flows import catalog_flow, default_grid

        with pytest.raises(ValueError, match=r"spacings must be finite and positive, got \(inf"):
            default_grid("gerstner", (16, 16), k=1e-320)
        with pytest.raises(ValueError, match="spacings must be finite"):
            catalog_flow("gerstner", k=1e-320)

    def test_rejects_bad_dimensionality(self):
        with pytest.raises(ValueError):
            LabelGrid((4, 4, 4, 4), (0,) * 4, (1,) * 4)

    def test_nodes_multiplicative_no_drift(self):
        # spacing 0.1 is inexact in binary; accumulation would drift by ~1e-13
        g = LabelGrid((10001,), (0.0,), (0.1,))
        coords = g.axis_coords(0)
        assert coords[10000] == pytest.approx(1000.0, abs=0.0)
        assert coords[10000] == 10000 * 0.1

    def test_node_layout(self):
        g = LabelGrid((4, 5), (1.0, 2.0), (0.5, 0.25))
        pts = g.nodes3()
        assert pts.shape == (20, 3)
        assert not pts[:, 2].any()
        # row-major: second axis fastest
        assert pts[1] == pytest.approx([1.0, 2.25, 0.0])
        assert pts[5] == pytest.approx([1.5, 2.0, 0.0])

    @pytest.mark.parametrize("grid", [
        LabelGrid((7,), (0.3,), (0.1,)),
        LabelGrid((5,), (0.0,), (2 * np.pi / 5,), (True,)),
        LabelGrid((6, 9), (-0.5, 1.0), (0.2, 0.125), (False, True)),
        LabelGrid((4, 5, 7), (0.1, -0.2, 0.3), (0.3, 0.07, 0.11), (True, False, True)),
    ])
    def test_nodes3_matches_meshgrid_reference(self, grid):
        axes = np.meshgrid(*[grid.axis_coords(k) for k in range(grid.ndim)], indexing="ij")
        ref = np.zeros((grid.node_count, 3))
        ref[:, :grid.ndim] = np.stack([a.ravel() for a in axes], axis=-1)
        pts = grid.nodes3()
        assert pts.shape == ref.shape
        assert [float(x).hex() for x in pts.ravel()] == [float(x).hex() for x in ref.ravel()]
        # a fresh array per call: a copy cached on the grid would live as
        # long as the grid, 6 MiB for a 64^3 Biot-Savart source grid
        assert not np.shares_memory(pts, grid.nodes3())


class TestDifferentiate:
    def test_constant_gives_zero(self):
        g = line_grid(16)
        vals = np.full(16, 3.7)
        assert np.max(np.abs(differentiate(vals, 0, grid=g))) == 0.0

    def test_linear_exact_everywhere(self):
        g = line_grid(16)
        x = g.axis_coords(0)
        d = differentiate(x, 0, StencilSpec(order=2), grid=g)
        assert np.max(np.abs(d - 1.0)) < 1e-13

    def test_order4_exact_on_cubics(self):
        g = line_grid(16, 0.0, 2.0)
        x = g.axis_coords(0)
        d = differentiate(x ** 3, 0, StencilSpec(order=4), grid=g)
        assert np.max(np.abs(d - 3 * x ** 2)) < 1e-11

    def test_sin_order2_convergence(self):
        # frozen oracle: analytic derivative of sin is cos
        errs = []
        for n in (64, 128):
            g = periodic_grid(n)
            x = g.axis_coords(0)
            d = differentiate(np.sin(x), 0, StencilSpec(order=2), grid=g)
            errs.append(np.max(np.abs(d - np.cos(x))))
        order = np.log2(errs[0] / errs[1])
        assert errs[0] <= 0.7 * (2 * np.pi / 64) ** 2  # C*h^2 with C < 1
        assert 1.9 <= order <= 2.1

    def test_richardson_order_within_band(self):
        for spec, formal in ((StencilSpec(order=2), 2), (StencilSpec(order=4), 4)):
            errs = []
            for n in (48, 96):
                g = periodic_grid(n)
                x = g.axis_coords(0)
                d = differentiate(np.sin(2 * x), 0, spec, grid=g)
                errs.append(np.max(np.abs(d - 2 * np.cos(2 * x))))
            order = np.log2(errs[0] / errs[1])
            assert abs(order - formal) <= 0.15

    def test_one_sided_boundary_matches_order(self):
        g = line_grid(32)
        x = g.axis_coords(0)
        d = differentiate(x ** 2, 0, StencilSpec(order=2), grid=g)
        # 3-point one-sided rows are exact on quadratics
        assert abs(d[0] - 0.0) < 1e-12 and abs(d[-1] - 2.0) < 1e-12

    def test_rejects_small_grid_for_order4(self):
        g = line_grid(5)
        with pytest.raises(ValueError):
            differentiate(np.zeros(5), 0, StencilSpec(order=4), grid=g)
        # periodic axes too: order 4 needs 6 nodes on every axis, wrapped or not
        for n in (4, 5):
            g = LabelGrid((n, 6), (0.0, 0.0), (0.3, 0.2), (True, False))
            with pytest.raises(ValueError, match="order-4 stencils need >= 6 nodes"):
                differentiate(np.zeros(g.shape), 0, StencilSpec(order=4), grid=g)
            with pytest.raises(ValueError, match="order-4 stencils need >= 6 nodes"):
                gradient(np.zeros(g.shape), StencilSpec(order=4), grid=g)

    def test_rejects_nonfinite(self):
        g = line_grid(8)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            differentiate(vals, 0, grid=g)

    @pytest.mark.parametrize("op, components", [
        (lambda f, g: differentiate(f, 0, grid=g), ()),
        (lambda f, g: gradient(f, grid=g), ()),
        (lambda f, g: divergence(f, grid=g), (3,)),
        (lambda f, g: _half_curl(gradient(f, grid=g)), (3,)),
        (lambda f, g: summarize_residual(f, g), ()),
    ], ids=["differentiate", "gradient", "divergence", "curl", "summarize_residual"])
    def test_rejects_array_not_on_grid(self, op, components):
        # a (5, 10) array is not sampled on a 16x16 grid; differencing it with
        # the grid's spacing gives numbers that mean nothing
        g = LabelGrid((16, 16), (0.0, 0.0), (0.1, 0.1))
        with pytest.raises(ValueError, match=r"shape \(5, 10.*\) is not sampled on a grid of "
                                             r"shape \(16, 16\)"):
            op(np.zeros((5, 10) + components), g)

    def test_rejects_bad_axis(self):
        g = line_grid(8)
        with pytest.raises(ValueError):
            differentiate(np.zeros(8), 1, grid=g)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        order=st.sampled_from([2, 4]),
    )
    def test_linearity(self, a, b, order):
        g = periodic_grid(32)
        x = g.axis_coords(0)
        f, h = np.sin(x), np.cos(2 * x)
        spec = StencilSpec(order=order)
        lhs = differentiate(a * f + b * h, 0, spec, grid=g)
        rhs = a * differentiate(f, 0, spec, grid=g) + b * differentiate(h, 0, spec, grid=g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + abs(a) + abs(b))


class TestStencilLayer:
    @pytest.mark.parametrize("shape", [(40, 3), (6, 8, 3)])
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_point_jacobian_and_vector_gradient(self, kind, shape):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=shape)
        A = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        if kind == "scalar":
            fn, want = (lambda p: p @ A[0] + b[0]), np.broadcast_to(A[0], shape)
        else:
            fn, want = (lambda p: p @ A.T + b), np.broadcast_to(A, shape[:-1] + (4, 3))
        # central differences of an affine map are exact up to rounding
        jac = point_jacobian(fn, pts, 0.25)
        assert jac.shape == want.shape
        assert np.abs(jac - want).max() <= 1e-13

        # gradient of a (..., 3) field is the per-component stack, [..., i, k]
        g = LabelGrid(shape[:-1], (0.0,) * (len(shape) - 1), (0.1,) * (len(shape) - 1))
        vec = rng.normal(size=g.shape + (3,))
        for order in (2, 4):
            spec = StencilSpec(order=order)
            stacked = np.stack([gradient(vec[..., i], spec, grid=g) for i in range(3)], axis=-2)
            assert np.array_equal(gradient(vec, spec, grid=g), stacked)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("shape, periodic", [
        ((9,), (False,)), ((8,), (True,)), ((7, 8), (True, False)), ((8, 6), (False, True)),
        ((6, 7, 8), (False, True, False)), ((7, 6, 9), (True, False, True)),
    ])
    @pytest.mark.parametrize("components", [(), (3,)], ids=["scalar", "vector"])
    def test_gradient_is_differentiate_on_every_axis(self, order, shape, periodic, components):
        # gradient is the whole grid as one slab of _slab_gradient: axis 0
        # through the slab's window, the other axes in place; each slot is
        # the differentiate result bit for bit, and missing axes are zero
        g = LabelGrid(shape, (0.1,) * len(shape), (0.3, 0.2, 0.45)[:len(shape)], periodic)
        f = np.random.default_rng(len(shape)).normal(size=shape + components)
        spec = StencilSpec(order)
        grad = gradient(f, spec, grid=g)
        assert grad.shape == shape + components + (3,)
        for k in range(g.ndim):
            assert grad[..., k].tobytes() == differentiate(f, k, spec, grid=g).tobytes(), k
        assert not grad[..., g.ndim:].any()

    @pytest.mark.parametrize("shape", [(9,), (7, 8), (6, 7, 8)])
    def test_slab_gradient_overwrites_every_slot_of_its_output(self, shape):
        # the caller's array may hold anything: each slot, the missing axes'
        # zeros included, is written, and the result is gradient's bit for bit
        g = LabelGrid(shape, (0.1,) * len(shape), (0.3, 0.2, 0.45)[:len(shape)])
        f = np.random.default_rng(len(shape)).normal(size=shape + (3,))
        out = np.full(shape + (3, 3), np.nan)
        got = _slab_gradient(out, lambda rows: f[rows], g, slice(0, shape[0]), 2)
        assert got is out
        assert out.tobytes() == gradient(f, StencilSpec(2), grid=g).tobytes()

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("n", [6, 7, 32])
    def test_periodic_axis_matches_the_rolled_stencil(self, order, n):
        # reference: the wrapped stencil written with np.roll copies. The
        # in-place kernel performs the same operations in the same order, so
        # every derivative agrees bit for bit, edge rows included
        g = LabelGrid((n, 6), (0.0, 0.0), (0.3, 0.2), (True, False))
        f = np.random.default_rng(n).normal(size=(n, 6, 3))
        r = lambda shift: np.roll(f, shift, axis=0)  # noqa: E731
        h = g.spacing[0]
        want = ((r(-1) - r(1)) / (2 * h) if order == 2
                else (r(2) - 8 * r(1) + 8 * r(-1) - r(-2)) / (12 * h))
        assert gradient(f, StencilSpec(order), grid=g)[..., 0].tobytes() == want.tobytes()
        assert differentiate(f, 0, StencilSpec(order), grid=g).tobytes() == want.tobytes()

    def test_no_difference_quotient_outside_grids(self):
        # grids.py is the only stencil layer. This guard catches one spelling
        # of a difference quotient in space or time, `/ (c * step ...)` with c
        # in {2, 4, 12} and a step named as in STEPS, in any spacing; it
        # misses others such as `0.5 / h`
        STEPS = {"h", "eps", "dx", "dy", "dz", "step", "delta", "dt"}

        def factors(e):
            if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Mult):
                return factors(e.left) + factors(e.right)
            return [e]

        def quotient_lines(path):
            lines = []
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    fs = factors(node.right)
                    if (any(isinstance(f, ast.Constant) and f.value in (2, 4, 12) for f in fs)
                            and any(isinstance(f, ast.Name) and f.id in STEPS for f in fs)):
                        lines.append(node.lineno)
            return lines

        src = Path(__file__).resolve().parents[1] / "src" / "flowmaplab"
        files = sorted(src.glob("*.py"))
        assert quotient_lines(src / "grids.py")
        offenders = [f"{f.name}:{n}" for f in files if f.name != "grids.py"
                     for n in quotient_lines(f)]
        assert offenders == []

    def test_no_difference_step_defined_outside_grids(self):
        # the steps of the central differences of callables are one table in
        # grids.py; no other module defines a *_STEP or *STENCIL_H constant
        def step_names(path):
            return [t.id for node in ast.parse(path.read_text()).body
                    if isinstance(node, ast.Assign) for t in node.targets
                    if isinstance(t, ast.Name) and t.id.endswith(("_STEP", "STENCIL_H"))]

        src = Path(__file__).resolve().parents[1] / "src" / "flowmaplab"
        assert len(step_names(src / "grids.py")) == 4
        offenders = {f.name: step_names(f) for f in sorted(src.glob("*.py"))
                     if f.name != "grids.py" and step_names(f)}
        assert offenders == {}


class TestResidualSummary:
    def test_rind_excludes_boundary(self):
        g = LabelGrid((8, 8), (0, 0), (1, 1))
        vals = np.zeros((8, 8))
        vals[0, 0] = 10.0  # boundary spike
        vals[4, 4] = 1.0
        s_all = summarize_residual(vals, g, rind=0)
        s_int = summarize_residual(vals, g, rind=2)
        assert s_all.linf == 10.0
        assert s_int.linf == 1.0 and s_int.location == (4.0, 4.0)
        assert s_int.excluded == 64 - 16

    def test_l2_is_rms(self):
        g = LabelGrid((4,), (0.0,), (1.0,))
        s = summarize_residual(np.array([1.0, 1.0, 1.0, 1.0]), g)
        assert s.l2 == pytest.approx(1.0)

    def test_periodic_axes_have_no_rind(self):
        g = LabelGrid((8,), (0.0,), (1.0,), (True,))
        vals = np.zeros(8)
        vals[0] = 5.0
        assert summarize_residual(vals, g, rind=2).linf == 5.0
