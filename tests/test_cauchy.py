"""Label-space vorticity invariants: covelocity, constancy in time,
solenoidality, the Eulerian half-curl, and vortex-line function checks.

Sign convention under test everywhere: (A, B, C) and (X, Y, Z) are half the
standard right-handed curl, so rigid rotation at angular velocity w carries
(0, 0, w) and the full vorticity vector is twice that.
"""

import numpy as np
import pytest

from flowmaplab import (
    LabelGrid,
    StencilSpec,
    catalog_flow,
    cauchy_invariants,
    deformation_gradient,
    eulerian_vorticity,
    invariant_drift,
    solenoidality_residual,
    vortex_line_function_residual,
)
from flowmaplab.cauchy import VorticityField, _covelocity


def rest_map():
    from flowmaplab import AnalyticFlowMap

    g = LabelGrid((9, 9, 9), (0, 0, 0), (0.125,) * 3)
    return AnalyticFlowMap(g, lambda lab, t: lab.copy(),
                           lambda lab, t: np.zeros_like(lab))


def spatial_fields(fn, n=33, lo=-1.0, hi=1.0):
    """(velocity fn(x) on an n x n spatial grid, the grid)."""
    h = (hi - lo) / (n - 1)
    g = LabelGrid((n, n), (lo, lo), (h, h))
    pts = g.nodes3().reshape(g.shape + (3,))
    return fn(pts), g


def label_covelocity(m, t):
    """The covelocity on the map's grid, as the invariants' fd form takes it."""
    return _covelocity(m, m.grid_labels(), t, deformation_gradient(m, t))


class TestCovelocity:
    def test_equals_initial_velocity_at_t0(self):
        e = catalog_flow("gerstner")
        cov = label_covelocity(e.map, 0.0)
        # generalized labels still satisfy the identity covel = F^T u; for
        # identity-label maps at t=0 it reduces to the velocity itself
        e2 = catalog_flow("rigid_rotation")
        cov2 = label_covelocity(e2.map, 0.0)
        vel2 = e2.map.velocities(e2.map.grid_labels(), 0.0)
        assert np.abs(cov2 - vel2).max() < 1e-14
        assert cov.shape == e.map.grid.shape + (3,)

    def test_rotation_covelocity_time_independent(self):
        # oracle (matrix algebra by hand): covelocity of the rotation is
        # (-w b, w a, 0) at every time
        w = 1.3
        e = catalog_flow("rigid_rotation", omega=w)
        lab = e.map.grid_labels()
        expect = np.stack([-w * lab[..., 1], w * lab[..., 0], 0 * lab[..., 0]], -1)
        for t in (0.0, 0.9, 4.4):
            cov = label_covelocity(e.map, t)
            assert np.abs(cov - expect).max() < 1e-12

    def test_rest_zero(self):
        cov = label_covelocity(rest_map(), 1.0)
        assert np.abs(cov).max() == 0.0


class TestInvariants:
    def test_rest_zero(self):
        w = cauchy_invariants(rest_map(), 1.0)
        assert np.abs(w.values).max() == 0.0

    def test_rotation_every_node_every_time(self):
        # oracle: half-curl of (-w b, w a, 0) is (0, 0, w)
        w_ = 1.3
        e = catalog_flow("rigid_rotation", omega=w_)
        for t in (0.0, 1.1, 5.2):
            w = cauchy_invariants(e.map, t)
            assert np.abs(w.values[..., 2] - w_).max() < 1e-12
            assert np.abs(w.values[..., :2]).max() < 1e-12

    def test_gerstner_closed_form_sympy_oracle(self):
        # independent computer-algebra derivation of the covelocity half-curl
        sympy = pytest.importorskip("sympy")
        a, b, t, k, c = sympy.symbols("a b t k c", positive=True)
        E = sympy.exp(k * b)
        th = k * (a - c * t)
        x = a - E / k * sympy.sin(th)
        y = b + E / k * sympy.cos(th)
        u, v = sympy.diff(x, t), sympy.diff(y, t)
        alpha = u * sympy.diff(x, a) + v * sympy.diff(y, a)
        beta = u * sympy.diff(x, b) + v * sympy.diff(y, b)
        C = sympy.simplify((sympy.diff(beta, a) - sympy.diff(alpha, b)) / 2)
        kk, gg = 1.0, 1.0
        cw = np.sqrt(gg / kk)
        C_fn = sympy.lambdify((a, b), C.subs({k: kk, c: cw}), "numpy")
        e = catalog_flow("gerstner", k=kk, g=gg)
        lab = e.map.grid_labels()
        w = cauchy_invariants(e.map, 2.3)
        assert w.mode == "analytic"
        assert np.abs(w.values[..., 2] - C_fn(lab[..., 0], lab[..., 1])).max() < 1e-12

    def test_shear_invariant(self):
        # oracle: u = (g y, 0, 0) has half-curl (0, 0, -g/2)
        e = catalog_flow("simple_shear", gamma=0.8)
        w = cauchy_invariants(e.map, 1.7)
        assert np.abs(w.values[..., 2] + 0.4).max() < 1e-12


class TestInvariantDrift:
    def test_rest(self):
        out = invariant_drift(rest_map(), [0.0, 1.0, 2.0])
        assert out["drift"] == 0.0

    def test_rotation_one_period_eight_times(self):
        w = 1.0
        e = catalog_flow("rigid_rotation", omega=w)
        times = np.linspace(0, 2 * np.pi / w, 8)
        out = invariant_drift(e.map, times)
        assert out["drift"] <= 1e-10

    def test_gerstner_analytic(self):
        e = catalog_flow("gerstner")
        T = e.map.timescale
        out = invariant_drift(e.map, [0.0, T / 4, T / 2])
        assert out["mode"] == "analytic"
        assert out["drift"] <= 1e-8

    def test_point_vortex_fd_convergence(self):
        # refinement study is its own oracle: drift is discretization noise
        # that must shrink at the stencil's order
        from flowmaplab.flows import default_grid

        drifts = []
        for n in (64, 128):
            e = catalog_flow("point_vortex",
                             grid=default_grid("point_vortex", (n, n)),
                             validate=False)
            out = invariant_drift(e.map, e.map.times, StencilSpec(2), mode="fd", rind=1)
            drifts.append(out["drift"])
        order = np.log2(drifts[0] / drifts[1])
        assert order >= 1.8, (drifts, order)

    def test_needs_two_times(self):
        with pytest.raises(ValueError):
            invariant_drift(rest_map(), [0.0])

    def test_a_nan_deviation_makes_the_drift_nan(self):
        # finite partials of 1e200 from t = 0.5 on: every D_jk overflows to
        # +inf, so the invariants there are inf - inf = NaN; the drift must
        # read NaN and fail its row, not keep the 0.0 of the first time
        from flowmaplab import AnalyticFlowMap

        g = LabelGrid((8, 8), (0.0, 0.0), (0.1, 0.1))

        def big(lab, t, at_zero):
            shape = lab.shape[:-1] + (3, 3)
            return np.full(shape, 1e200) if t > 0.4 else np.broadcast_to(at_zero, shape).copy()

        m = AnalyticFlowMap(g, lambda lab, t: lab.copy(), lambda lab, t: np.zeros_like(lab),
                            partials=lambda lab, t: big(lab, t, np.eye(3)),
                            velocity_partials=lambda lab, t: big(lab, t, np.zeros((3, 3))))
        with np.errstate(over="ignore", invalid="ignore"):
            out = invariant_drift(m, [0.0, 0.25, 0.5])
        assert out["mode"] == "analytic" and np.isnan(out["drift"])

    @pytest.mark.parametrize("which", ["partials", "velocity_partials"])
    def test_non_finite_partials_raise(self, which):
        from flowmaplab import AnalyticFlowMap

        e = catalog_flow("gerstner").map
        callables = {"partials": e._partials, "velocity_partials": e._velocity_partials}
        exact = callables[which]
        callables[which] = lambda lab, t: exact(lab, t) * (np.nan if t > 0 else 1.0)
        m = AnalyticFlowMap(e.grid, e._position, e._velocity, convention=e.convention,
                            **callables)
        T = m.timescale
        with pytest.raises(ValueError, match="non-finite analytic partials"):
            invariant_drift(m, [0.0, T / 8, T / 4])


@pytest.mark.parametrize("name, calls, point_steps", [
    ("point_vortex", 52, 192512), ("taylor_green", 53, 193536)])
def test_sampled_invariants_march_as_the_whole_grid_form(monkeypatch, name, calls, point_steps):
    # a sampled map's one slab is its whole grid, so the invariants query its
    # table and checkpoint lattice exactly as the whole-grid computation did:
    # these counts of rk4_advect calls and points x steps are that form's
    import flowmaplab.flows as flows
    from flowmaplab.flows import default_grid

    m = catalog_flow(name, grid=default_grid(name, (16, 16))).map
    T = m.timescale
    real, log = flows.rk4_advect, []

    def counted(field_fn, labels, t0, t1, dt):
        span = float(t1) - float(t0)
        steps = 0 if span == 0.0 else max(1, int(np.ceil(abs(span) / dt - 1e-12)))
        log.append(steps * (np.size(labels) // 3))
        return real(field_fn, labels, t0, t1, dt)

    monkeypatch.setattr(flows, "rk4_advect", counted)
    for order in (2, 4):
        invariant_drift(m, [0.0, 0.25 * T, 0.5 * T, 0.61 * T], StencilSpec(order))
        cauchy_invariants(m, 0.37 * T, StencilSpec(order), mode="fd")
    assert (len(log), sum(log)) == (calls, point_steps)


class TestSolenoidality:
    def test_constant_field(self):
        g = LabelGrid((9, 9, 9), (0, 0, 0), (0.1,) * 3)
        w = VorticityField(g, np.broadcast_to([0.0, 0.0, 1.0], (9, 9, 9, 3)).copy())
        assert solenoidality_residual(w).linf == 0.0

    def test_fd_curl_commutes_to_roundoff(self):
        # discrete div of a same-stencil discrete curl vanishes identically
        e = catalog_flow("gerstner")
        w = cauchy_invariants(e.map, 1.0, StencilSpec(2), mode="fd")
        assert solenoidality_residual(w, StencilSpec(2)).linf < 1e-12

    def test_gerstner_analytic_invariants_divergence_free_exactly(self):
        # the closed-form invariant points along z and varies only with b, so
        # its discrete divergence is identically zero
        e = catalog_flow("gerstner")
        w = cauchy_invariants(e.map, 1.0, mode="analytic")
        assert solenoidality_residual(w).linf == 0.0

    def test_vortex_line_built_field_converges_at_order_two(self):
        # analytic field from two line functions, hand gradients:
        # phi = sin 2a cos b, psi = c + 0.3 sin a;
        # w = -1/2 grad(phi) x grad(psi) has vanishing true divergence, so the
        # grid divergence is pure stencil truncation, shrinking at order 2
        # (the unequal wavenumbers keep the per-axis truncations from
        # cancelling each other)
        def built(grid):
            lab = grid.nodes3().reshape(grid.shape + (3,))
            a, b = lab[..., 0], lab[..., 1]
            gp = np.stack([2 * np.cos(2 * a) * np.cos(b), -np.sin(2 * a) * np.sin(b),
                           np.zeros_like(a)], -1)
            gq = np.stack([0.3 * np.cos(a), np.zeros_like(a), np.ones_like(a)], -1)
            return VorticityField(grid, -0.5 * np.cross(gp, gq))

        errs = []
        for n in (17, 33):
            g = LabelGrid((n, n, 9), (0, 0, 0), (2.0 / (n - 1),) * 2 + (1 / 8,))
            errs.append(solenoidality_residual(built(g), rind=1).linf)
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_fd_built_vortex_line_field_commutes(self):
        # the same construction through grid stencils commutes to roundoff
        g = LabelGrid((33, 33, 9), (0, 0, 0), (1 / 32, 1 / 32, 1 / 8))
        lab = g.nodes3().reshape(g.shape + (3,))
        phi = np.sin(lab[..., 0]) * np.cos(lab[..., 1])
        psi = lab[..., 2]
        from flowmaplab.grids import gradient

        gp = gradient(phi, grid=g)
        gq = gradient(psi, grid=g)
        w = VorticityField(g, -0.5 * np.cross(gp, gq))
        s = solenoidality_residual(w, rind=1)
        assert s.linf < 1e-12

    def test_frame_mismatch_rejected(self):
        g = LabelGrid((9, 9), (0, 0), (0.1, 0.1))
        w = VorticityField(g, np.zeros((9, 9, 3)), frame="spatial")
        with pytest.raises(TypeError):
            solenoidality_residual(w)


class TestEulerianVorticity:
    def test_rotation_field(self):
        w_ = 1.0
        vel, g = spatial_fields(
            lambda p: np.stack([-w_ * p[..., 1], w_ * p[..., 0], 0 * p[..., 0]], -1))
        W = eulerian_vorticity(vel, grid=g)
        assert W.frame == "spatial"
        assert np.abs(W.values[..., 2] - w_).max() < 1e-12

    def test_potential_flow_curl_free(self):
        k = 1.0
        vel, g = spatial_fields(
            lambda p: np.stack([k * p[..., 0], -k * p[..., 1], 0 * p[..., 0]], -1))
        W = eulerian_vorticity(vel, grid=g)
        assert np.abs(W.values).max() < 1e-12  # linear field: stencil-exact

    def test_shear_field(self):
        # oracle: half-curl of (g y, 0, 0) is (0, 0, -g/2)
        g_ = 2.0
        vel, g = spatial_fields(
            lambda p: np.stack([g_ * p[..., 1], 0 * p[..., 0], 0 * p[..., 0]], -1))
        W = eulerian_vorticity(vel, grid=g)
        assert np.abs(W.values[..., 2] + g_ / 2).max() < 1e-12

    @pytest.mark.parametrize("shape", [(33, 32, 3), (33, 33), (33, 33, 2)])
    def test_rejects_array_not_vectors_on_the_grid(self, shape):
        # off the grid, a scalar array, or the wrong component count: the
        # message names the array's shape and the grid's vector shape
        _, g = spatial_fields(lambda p: p)
        with pytest.raises(ValueError) as exc:
            eulerian_vorticity(np.zeros(shape), grid=g)
        assert str(shape) in str(exc.value) and "(33, 33, 3)" in str(exc.value)


class TestCauchyConsistency:
    def test_invariants_match_eulerian_vorticity_at_t0(self):
        # at t=0 with identity labels the covelocity is the velocity and the
        # label curl is the spatial curl
        e = catalog_flow("taylor_green")
        w_label = cauchy_invariants(e.map, 0.0, StencilSpec(2), mode="fd")
        g = e.map.grid
        pts = g.nodes3().reshape(g.shape + (3,))
        vel = e.map.velocities(pts, 0.0)
        w_spatial = eulerian_vorticity(vel, StencilSpec(2), grid=g)
        h2 = max(g.spacing) ** 2
        assert np.abs(w_label.values - w_spatial.values).max() <= h2

    def test_irrotational_permanence(self):
        # potential catalog flows stay invariant-free at all times
        for name in ("stagnation", "uniform_translation"):
            e = catalog_flow(name)
            h2 = max(e.map.grid.spacing) ** 2
            for t in (0.0, 0.4, 0.9):
                w = cauchy_invariants(e.map, t, mode="fd")
                assert np.abs(w.values).max() <= 2 * h2, name

    def test_rotational_permanence(self):
        # a rotating flow never loses its invariant magnitude
        e = catalog_flow("rigid_rotation", omega=1.0)
        w0 = np.abs(cauchy_invariants(e.map, 0.0).values).max()
        for t in (1.0, 3.0, 6.0):
            wt = np.abs(cauchy_invariants(e.map, t).values).max()
            assert wt >= w0 - 1e-10


class TestVortexLineFunctions:
    def grid(self):
        return LabelGrid((17, 17, 9), (0, 0, 0), (1 / 16, 1 / 16, 1 / 8))

    def test_planes_pair(self):
        # phi = a, psi = b have constant unit gradients; the determinant
        # relations force w = (0, 0, -1/2) exactly
        g = self.grid()
        lab = g.nodes3().reshape(g.shape + (3,))
        w = VorticityField(g, np.broadcast_to([0.0, 0.0, -0.5], g.shape + (3,)).copy())
        s = vortex_line_function_residual(lab[..., 0], lab[..., 1], w)
        assert s.linf < 1e-14

    def test_constant_functions_need_zero_vorticity(self):
        g = self.grid()
        wvals = np.broadcast_to([0.0, 0.0, 0.7], g.shape + (3,)).copy()
        w = VorticityField(g, wvals)
        s = vortex_line_function_residual(np.ones(g.shape), np.ones(g.shape), w)
        assert s.linf == pytest.approx(2 * 0.7)

    def test_rotation_admissible_pair(self):
        # oracle (solved by hand before the build): for the rotation's
        # invariants (0, 0, w) the pair phi = -2 w a, psi = b satisfies all
        # three determinant relations with zero residual
        w_ = 1.3
        e = catalog_flow("rigid_rotation", omega=w_)
        g = e.map.grid
        lab = g.nodes3().reshape(g.shape + (3,))
        w = cauchy_invariants(e.map, 0.8)
        s = vortex_line_function_residual(-2 * w_ * lab[..., 0], lab[..., 1], w)
        assert s.linf < 1e-12

    def test_inadmissible_pair_flagged(self):
        w_ = 1.0
        e = catalog_flow("rigid_rotation", omega=w_)
        g = e.map.grid
        lab = g.nodes3().reshape(g.shape + (3,))
        w = cauchy_invariants(e.map, 0.0)
        s = vortex_line_function_residual(lab[..., 0] ** 2 + lab[..., 1] ** 2,
                                          lab[..., 2] * np.ones(g.shape), w)
        assert s.linf > 0.5
