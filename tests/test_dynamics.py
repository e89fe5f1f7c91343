"""Momentum-balance residuals in both dependences."""

import numpy as np
import pytest

from flowmaplab import (
    ForcePotential,
    LabelGrid,
    catalog_flow,
    chain_rule_mismatch,
    eulerian_eom_residual,
    lagrangian_eom_residual,
)
from flowmaplab.dynamics import eulerian_residual_at_points


def spatial_grid_2d(n=33, lo=-1.0, hi=1.0):
    h = (hi - lo) / (n - 1)
    return LabelGrid((n, n), (lo, lo), (h, h))


def fields_from(fn, grid):
    return fn(grid.nodes3().reshape(grid.shape + (3,)))


class TestEulerianResidual:
    def test_fluid_at_rest(self):
        g = spatial_grid_2d()
        vel = fields_from(lambda p: np.zeros_like(p), g)
        res = eulerian_eom_residual(vel, ForcePotential(pressure=1.0), grid=g)
        assert max(r.linf for r in res) == 0.0

    def test_stagnation_bernoulli_pressure(self):
        # oracle: substitute u = (kx, -ky) and p/rho = -k^2(x^2+y^2)/2 by hand;
        # all fields are polynomial, so order-2 stencils are exact
        k = 1.4
        e = catalog_flow("stagnation", k=k)
        g = spatial_grid_2d()
        vel = fields_from(
            lambda p: np.stack([k * p[..., 0], -k * p[..., 1], 0 * p[..., 0]], -1), g)
        res = eulerian_eom_residual(vel, e.force, grid=g)
        assert max(r.linf for r in res) <= 1e-12

    def test_rigid_rotation_centripetal_pressure(self):
        w_ = 0.9
        e = catalog_flow("rigid_rotation", omega=w_)
        g = spatial_grid_2d()
        vel = fields_from(
            lambda p: np.stack([-w_ * p[..., 1], w_ * p[..., 0], 0 * p[..., 0]], -1), g)
        res = eulerian_eom_residual(vel, e.force, grid=g)
        assert max(r.linf for r in res) <= 1e-12

    def test_missing_pressure_unbalanced(self):
        w_ = 0.9
        g = spatial_grid_2d()
        vel = fields_from(
            lambda p: np.stack([-w_ * p[..., 1], w_ * p[..., 0], 0 * p[..., 0]], -1), g)
        res = eulerian_eom_residual(vel, ForcePotential(pressure=0.0), grid=g)
        assert max(r.linf for r in res) > 0.1

    @pytest.mark.parametrize("shape", [(33, 32, 3), (33, 33), (33, 33, 2)])
    def test_rejects_array_not_vectors_on_the_grid(self, shape):
        # off the grid, a scalar array, or the wrong component count: the
        # message names the array's shape and the grid's vector shape
        with pytest.raises(ValueError) as exc:
            eulerian_eom_residual(np.zeros(shape), ForcePotential(), grid=spatial_grid_2d())
        assert str(shape) in str(exc.value) and "(33, 33, 3)" in str(exc.value)


class TestLagrangianResidual:
    def test_uniform_translation(self):
        e = catalog_flow("uniform_translation")
        res = lagrangian_eom_residual(e.map, e.force, 0.8)
        assert max(r.linf for r in res) <= 1e-12

    def test_gerstner_with_closed_form_pressure(self):
        # pressure oracle p/rho = -g b + g e^(2kb)/(2k), verified by hand
        # substitution into the label-space momentum balance before the build
        e = catalog_flow("gerstner", k=1.0, g=1.0)
        for t in (0.0, 1.0, 3.5):
            res = lagrangian_eom_residual(e.map, e.force, t)
            assert max(r.linf for r in res) <= 1e-8

    def test_rotation_with_centripetal_pressure(self):
        e = catalog_flow("rigid_rotation", omega=1.1)
        res = lagrangian_eom_residual(e.map, e.force, 2.2)
        assert max(r.linf for r in res) <= 1e-10

    def test_gauge_invariance(self):
        # adding constants to V and p changes neither residual (machine level)
        e = catalog_flow("rigid_rotation")
        base = e.force
        shifted = ForcePotential(
            V=lambda p, t: 7.5 + 0 * p[..., 0],
            V_grad=lambda p, t: np.zeros_like(p),
            pressure=lambda p, t: base.pressure(p, t) + 123.0,
            pressure_grad=base.pressure_grad,
        )
        r0 = lagrangian_eom_residual(e.map, base, 1.0)
        r1 = lagrangian_eom_residual(e.map, shifted, 1.0)
        for a, b in zip(r0, r1):
            assert abs(a.linf - b.linf) <= 1e-13

    def test_wrong_pressure_detected(self):
        e = catalog_flow("gerstner")
        wrong = ForcePotential(V=e.force.V, V_grad=e.force.V_grad, pressure=0.0)
        res = lagrangian_eom_residual(e.map, wrong, 1.0)
        assert max(r.linf for r in res) > 1e-3


class TestChainRule:
    def test_rotation_chain_rule_equivalence(self):
        # the Lagrangian residual is the Eulerian one contracted with the
        # deformation gradient; checked with a deliberately wrong pressure so
        # both sides are nonzero
        w = 1.0
        e = catalog_flow("rigid_rotation", omega=w)
        fp = ForcePotential(pressure=0.0)

        def u_fn(p, t):
            return np.stack([-w * p[..., 1], w * p[..., 0], 0 * p[..., 0]], -1)

        s = chain_rule_mismatch(e.map, fp, u_fn, 0.8)
        h = max(e.map.grid.spacing)
        assert s.linf <= 5.0 * h ** 2

    def test_stagnation_chain_rule_equivalence(self):
        k = 1.0
        e = catalog_flow("stagnation", k=k)
        fp = ForcePotential(pressure=0.0)

        def u_fn(p, t):
            return np.stack([k * p[..., 0], -k * p[..., 1], 0 * p[..., 0]], -1)

        s = chain_rule_mismatch(e.map, fp, u_fn, 0.5)
        h = max(e.map.grid.spacing)
        assert s.linf <= 5.0 * h ** 2

    def test_label_frame_pressure_rejected(self):
        # gerstner's pressure is a function of the labels: read at positions
        # it would give a number that means nothing, so both forms raise
        e = catalog_flow("gerstner")
        assert e.force.pressure_frame == "label"

        def u_fn(p, t):
            return np.zeros(p.shape)

        pts = e.map.positions(e.map.grid_labels(), 0.5)
        with pytest.raises(ValueError, match="position-frame pressure"):
            eulerian_residual_at_points(u_fn, e.force, pts, 0.5)
        with pytest.raises(ValueError, match="position-frame pressure"):
            chain_rule_mismatch(e.map, e.force, u_fn, 0.5)


def test_omega_combines_v_and_pressure():
    fp = ForcePotential(
        V=lambda p, t: 3.0 * p[..., 0] + t,
        pressure=lambda p, t: p[..., 0] * p[..., 1],
    )
    pts = np.array([[1.0, 0.0, 0.0], [3.0, 1.0, -1.0], [-0.5, 2.0, 4.0]])
    # Omega = V - p, bit for bit
    want = (3.0 * pts[:, 0] + 0.5) - pts[:, 0] * pts[:, 1]
    assert fp.omega_at(pts, 0.5).tobytes() == want.tobytes()
    # no V and a constant pressure: -p at every point
    assert np.array_equal(ForcePotential(pressure=2.0).omega_at(pts), np.full(3, -2.0))
