"""Charts, metric coefficients, transformed equations of motion, the
transformed density equation, and the axisymmetric angular invariant."""

import numpy as np
import pytest

from flowmaplab import (
    AnalyticFlowMap,
    LabelGrid,
    catalog_flow,
    cartesian_chart,
    chart_metrics,
    curvilinear_density_residual,
    curvilinear_eom_residual,
    curvilinear_lagrangian_eom_residual,
    cylindrical_chart,
    elliptical_chart,
    polar_chart,
    svanberg_invariant,
)
from flowmaplab.curvilinear import skewed_chart
from flowmaplab.flowmap import det3


def quadrant_grid(n=7):
    """3D label box in the first octant, clear of the z axis and poles."""
    return LabelGrid((n, n, n), (0.5, 0.3, 0.4), (0.5 / (n - 1), 0.5 / (n - 1), 0.5 / (n - 1)))


def rotation_3d(omega=1.0, n=7):
    return catalog_flow("rigid_rotation", omega=omega, grid=quadrant_grid(n))


def rest_3d():
    g = quadrant_grid()
    return AnalyticFlowMap(g, lambda lab, t: lab.copy(),
                           lambda lab, t: np.zeros_like(lab))


class TestMetrics:
    def test_polar_coefficients(self, sample_domain):
        chart = polar_chart()
        rng = np.random.default_rng(1)
        rho = sample_domain(chart, rng, 200)
        mc = chart_metrics(chart, rho)
        r, th = rho[..., 0], rho[..., 1]
        assert np.abs(mc.N[..., 0] - 1.0).max() < 1e-12
        assert np.abs(mc.N[..., 1] - r ** 2).max() < 1e-10
        assert np.abs(mc.N[..., 2] - (r * np.sin(th)) ** 2).max() < 1e-10
        assert np.abs(mc.n).max() < 1e-10

    def test_cylindrical_coefficients(self, sample_domain):
        chart = cylindrical_chart()
        rng = np.random.default_rng(2)
        rho = sample_domain(chart, rng, 200)
        mc = chart_metrics(chart, rho)
        assert np.abs(mc.N[..., 0] - 1.0).max() < 1e-12
        assert np.abs(mc.N[..., 1] - rho[..., 0] ** 2).max() < 1e-10
        assert np.abs(mc.N[..., 2] - 1.0).max() < 1e-12

    def test_elliptical_coefficients_positive_and_closed_form(self, sample_domain):
        al, be, ga = 3.0, 2.0, 1.0
        chart = elliptical_chart(al, be, ga)
        rng = np.random.default_rng(3)
        rho = sample_domain(chart, rng, 300)
        mc = chart_metrics(chart, rho)
        assert np.all(mc.N > 0)
        # closed-form coefficients from the square-root coordinate relations
        a2, b2, g2 = al ** 2, be ** 2, ga ** 2
        r2 = rho ** 2
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            expect = -r2[..., i] * (r2[..., i] - r2[..., j]) * (r2[..., i] - r2[..., k]) / (
                (r2[..., i] - a2) * (r2[..., i] - b2) * (r2[..., i] - g2))
            assert np.abs(mc.N[..., i] - expect).max() < 1e-8

    def test_determinant_identity(self, sample_domain):
        # det(dx/drho)^2 equals det of the Gram matrix, per point
        for chart in (polar_chart(), cylindrical_chart(), elliptical_chart()):
            rng = np.random.default_rng(4)
            rho = sample_domain(chart, rng, 200)
            P = chart.partials_at(rho)
            gram = chart_metrics(chart, rho).gram()
            lhs = det3(P) ** 2
            rhs = det3(gram)
            rel = np.abs(lhs - rhs) / np.abs(rhs)
            assert rel.max() <= 1e-9, chart.name


def orthogonality(chart, rho):
    """(max |n_i| / sqrt(N_j N_k), max |N_i |grad rho_i|^2 - 1|): the cross
    metric terms and the tangent-gradient reciprocity, both zero on an
    orthogonal chart."""
    mc = chart_metrics(chart, rho)
    N = mc.N
    cross = np.abs(mc.n) / np.sqrt(np.roll(N, -1, axis=-1) * np.roll(N, -2, axis=-1))
    Q = np.linalg.inv(chart.partials_at(rho))  # drho_i/dx_j
    recip = np.abs(N * np.einsum("...ij,...ij->...i", Q, Q) - 1.0)
    return cross.max(), recip.max()


class TestOrthogonality:
    def test_polar(self, sample_domain):
        chart = polar_chart()
        rho = sample_domain(chart, np.random.default_rng(5), 300)
        cross, recip = orthogonality(chart, rho)
        assert cross <= 1e-10 and recip <= 1e-10

    def test_elliptical(self, sample_domain):
        chart = elliptical_chart()
        rho = sample_domain(chart, np.random.default_rng(6), 300)
        cross, recip = orthogonality(chart, rho)
        assert cross <= 1e-8 and recip <= 1e-8

    def test_skewed_chart_detected(self, sample_domain):
        chart = skewed_chart()
        rho = sample_domain(chart, np.random.default_rng(7), 50)
        mc = chart_metrics(chart, rho)
        assert np.abs(np.abs(mc.n[..., 2]) - 1.0).max() < 1e-8  # |n3| = 1
        assert not chart.orthogonal
        cross, _ = orthogonality(chart, rho)
        assert cross > 0.5


class TestRoundTrip:
    @pytest.mark.parametrize("maker", [cartesian_chart, cylindrical_chart,
                                       polar_chart, elliptical_chart, skewed_chart])
    def test_roundtrip_1e4_points(self, maker, sample_domain):
        chart = maker()
        pos = chart.inverse(sample_domain(chart, np.random.default_rng(0), 10000))
        assert np.abs(chart.inverse(chart.forward(pos)) - pos).max() <= 1e-10

    def test_elliptical_forward_matches_per_point_roots(self, sample_domain):
        # the batched companion eigenvalues are np.roots of each point's cubic
        chart = elliptical_chart()
        a2, b2, g2 = 9.0, 4.0, 1.0
        pos = chart.inverse(sample_domain(chart, np.random.default_rng(0), 500))
        expect = []
        for x2, y2, z2 in pos ** 2:
            c2 = -(a2 + b2 + g2) + x2 + y2 + z2
            c1 = (a2 * b2 + b2 * g2 + g2 * a2) - x2 * (b2 + g2) - y2 * (a2 + g2) - z2 * (a2 + b2)
            c0 = -(a2 * b2 * g2) + x2 * b2 * g2 + y2 * a2 * g2 + z2 * a2 * b2
            expect.append(np.sqrt(np.sort(np.real(np.roots([1.0, c2, c1, c0])))[::-1]))
        assert np.array_equal(chart.forward(pos), np.array(expect))

    def test_elliptical_roots_near_coincident(self):
        # near rho1 = rho2 = beta round-off pushes a root of the cubic past
        # its bracket; it must be clipped back, not replaced by a bracket end
        chart = elliptical_chart()
        rng = np.random.default_rng(12)
        n = 2000
        band = np.stack([2.0 + 10 ** rng.uniform(-12, -3, n), 2.0 - 10 ** rng.uniform(-12, -3, n),
                         rng.uniform(0.05, 0.95, n)], axis=-1)
        band[0] = (2.0000000009852448, 1.9999999981651924, 0.5251971950781755)
        assert np.abs(chart.forward(chart.inverse(band)) - band).max() <= 1e-7

    def test_elliptical_point_outside_the_chart_is_off_domain(self):
        # outside x^2/9 + y^2/4 + z^2 = 1 the smallest root is negative, so
        # the point has no chart coordinates; it must not get in-domain ones
        chart = elliptical_chart()
        rho = chart.forward(np.array([[7 / 12, 0.8, 0.9]]))
        assert rho[0, 2] == 0.0 and not chart.domain(rho).any()


class TestEOMResiduals:
    def test_rest_any_chart(self):
        for chart in (cylindrical_chart(), polar_chart()):
            res = curvilinear_eom_residual(rest_3d(), chart, lambda rho: 0.0 * rho[..., 0], 0.5)
            assert max(r.linf for r in res) <= 1e-12

    def test_rotation_polar_chart(self):
        # rotation about z is azimuthal in the polar chart: r, theta fixed,
        # dphi/dt = w; the combined potential is -(w^2/2) (r sin theta)^2
        w = 1.0
        e = rotation_3d(w)

        def omega(rho):
            return -0.5 * w * w * (rho[..., 0] * np.sin(rho[..., 1])) ** 2

        def omega_grad(rho):
            r, th = rho[..., 0], rho[..., 1]
            out = np.zeros(rho.shape)
            out[..., 0] = -w * w * r * np.sin(th) ** 2
            out[..., 1] = -w * w * r * r * np.sin(th) * np.cos(th)
            return out

        res = curvilinear_eom_residual(e.map, polar_chart(), omega, 0.4,
                                       omega_grad=omega_grad)
        assert max(r.linf for r in res) <= 1e-10

    def test_rotation_cylindrical_chart(self):
        w = 1.0
        e = rotation_3d(w)

        def omega(rho):
            return -0.5 * w * w * rho[..., 0] ** 2

        def omega_grad(rho):
            out = np.zeros(rho.shape)
            out[..., 0] = -w * w * rho[..., 0]
            return out

        res = curvilinear_eom_residual(e.map, cylindrical_chart(), omega, 0.4,
                                       omega_grad=omega_grad)
        assert max(r.linf for r in res) <= 1e-10

    def test_point_vortex_cylindrical(self):
        G = 2 * np.pi
        e = catalog_flow("point_vortex", gamma=G)

        def omega(rho):
            return G ** 2 / (8 * np.pi ** 2 * rho[..., 0] ** 2)

        t = float(e.map.times[1])
        res = curvilinear_eom_residual(e.map, cylindrical_chart(), omega, t)
        assert max(r.linf for r in res) <= 1e-6

    def test_nonorthogonal_chart_rejected(self):
        with pytest.raises(ValueError):
            curvilinear_eom_residual(rest_3d(), skewed_chart(), lambda rho: 0.0, 0.0)

    def test_wrong_omega_detected(self):
        w = 1.0
        e = rotation_3d(w)
        res = curvilinear_eom_residual(e.map, cylindrical_chart(),
                                       lambda rho: 0.0 * rho[..., 0], 0.4)
        assert max(r.linf for r in res) > 0.1


class TestLagrangianForm:
    def test_rest(self):
        res = curvilinear_lagrangian_eom_residual(
            rest_3d(), cylindrical_chart(), lambda rho: 0.0 * rho[..., 0], 0.5)
        assert max(r.linf for r in res) <= 1e-12

    def test_rotation_polar(self):
        w = 1.0
        e = rotation_3d(w, n=9)

        def omega(rho):
            return -0.5 * w * w * (rho[..., 0] * np.sin(rho[..., 1])) ** 2

        def omega_grad(rho):
            r, th = rho[..., 0], rho[..., 1]
            out = np.zeros(rho.shape)
            out[..., 0] = -w * w * r * np.sin(th) ** 2
            out[..., 1] = -w * w * r * r * np.sin(th) * np.cos(th)
            return out

        res = curvilinear_lagrangian_eom_residual(e.map, polar_chart(), omega, 0.4,
                                                  omega_grad=omega_grad)
        assert max(r.linf for r in res) <= 1e-10

    def test_gerstner_trivial_chart_reduces_to_cartesian_form(self):
        # with the identity chart (N = 1) and rho0 = labels, the contracted
        # residual equals -2 times the label-space momentum residual; both
        # sides here use the same centered time-difference acceleration and a
        # deliberately wrong (zero) potential so the values are nonzero
        from flowmaplab.flowmap import deformation_gradient

        e = catalog_flow("gerstner")
        m = e.map
        t, dt = 1.0, 1e-4 * m.timescale
        res_c = curvilinear_lagrangian_eom_residual(
            m, cartesian_chart(), lambda rho: 0.0 * rho[..., 0], t)
        labels = m.grid_labels()
        # the chart route differentiates positions over the label grid, so the
        # comparison uses the finite-difference gradient too
        F = deformation_gradient(m, t, mode="fd")
        acc = (m.velocities(labels, t + dt) - m.velocities(labels, t - dt)) / (2 * dt)
        lag = np.einsum("...i,...ij->...j", acc, F)
        for j, r in enumerate(res_c):
            assert abs(r.linf - np.abs(2.0 * lag[..., j]).max()) <= 1e-12

    @pytest.mark.parametrize("maker", [polar_chart, cylindrical_chart])
    def test_wrong_omega_detected(self, maker):
        # rigid rotation with Omega = 0 instead of -(w^2/2) (distance to the
        # axis)^2: about 2.44 in the polar chart, 2.56 in the cylindrical one
        e = rotation_3d(1.0, n=9)
        res = curvilinear_lagrangian_eom_residual(e.map, maker(),
                                                  lambda rho: 0.0 * rho[..., 0], 0.4)
        assert max(r.linf for r in res) > 0.1

class TestDensity:
    def test_rest_both_sides_one(self):
        s = curvilinear_density_residual(rest_3d(), cylindrical_chart(), 0.7)
        assert s.linf <= 1e-12

    def test_rotation_polar(self):
        e = rotation_3d(1.0, n=9)
        s = curvilinear_density_residual(e.map, polar_chart(), 0.4)
        assert s.linf <= 1e-9

    def test_radial_stretch_with_density_ratio(self):
        # r -> r0 (1 + t) triples volumes by (1+t)^3; the density ratio
        # rho/rho0 = (1+t)^-3 balances the transformed equation exactly
        g = quadrant_grid(9)
        m = AnalyticFlowMap(
            g,
            lambda lab, t: (1.0 + t) * lab,
            lambda lab, t: lab.copy(),
            convention="generalized",
        )
        t = 0.6
        s = curvilinear_density_residual(m, polar_chart(), t,
                                         density_ratio=(1.0 + t) ** -3)
        assert s.linf <= 1e-9


class TestSvanberg:
    def test_rotation_constant(self):
        e = catalog_flow("rigid_rotation", omega=1.0)
        out = svanberg_invariant(e.map, np.linspace(0, 2 * np.pi, 6))
        assert out["drift"] <= 1e-10
        lab = e.map.grid_labels()
        expect = 1.0 * (lab[..., 0] ** 2 + lab[..., 1] ** 2)
        assert np.abs(out["H_reference"] - expect).max() <= 1e-12

    def test_a_nan_drift_is_not_swallowed_by_time_order(self):
        # NaN velocities after t = 0.5: the drift is NaN whether or not a
        # finite time follows the NaN one
        rot = catalog_flow("rigid_rotation").map
        m = AnalyticFlowMap(rot.grid, rot._position,
                            lambda lab, t: rot._velocity(lab, t) * (np.nan if t > 0.5 else 1.0))
        for times in ([0.0, 0.2, 0.6], [0.0, 0.6, 0.2]):
            assert np.isnan(svanberg_invariant(m, times)["drift"]), times

    def test_point_vortex_gamma_over_2pi(self):
        G = 2 * np.pi
        e = catalog_flow("point_vortex", gamma=G)
        out = svanberg_invariant(e.map, e.map.times)
        assert out["drift"] <= 1e-6
        assert np.abs(out["H_reference"] - G / (2 * np.pi)).max() <= 1e-9

    def test_rest_zero(self):
        out = svanberg_invariant(rest_3d(), [0.0, 1.0])
        assert out["drift"] == 0.0


def test_chart_partials_match_finite_differences(sample_domain):
    # chart invariant: registered analytic partials agree with central
    # differences of the inverse map to O(h^2)
    from flowmaplab.grids import point_jacobian

    rng = np.random.default_rng(11)
    for maker in (cylindrical_chart, polar_chart, elliptical_chart):
        chart = maker()
        rho = sample_domain(chart, rng, 100)
        exact = chart.partials_at(rho)
        fd = point_jacobian(chart.inverse, rho, h=1e-6)
        assert np.abs(exact - fd).max() <= 1e-7, chart.name
