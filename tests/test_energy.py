"""Kinetic-energy accounting: living force, boundary flux, energy identity."""

import numpy as np
import pytest

from flowmaplab import (
    AnalyticFlowMap,
    LabelGrid,
    MaterialSurface,
    boundary_energy_identity,
    catalog_flow,
    energy_flux_residual,
    living_force,
    momentum_integral,
)
from flowmaplab.flows import default_grid


def cube_grid(n=17, lo=0.0, hi=1.0):
    h = (hi - lo) / (n - 1)
    return LabelGrid((n, n, n), (lo,) * 3, (h,) * 3)


def centered_cube_grid(n=17):
    return cube_grid(n, -0.5, 0.5)


def box_faces(lo, hi, n=17):
    """Six outward-oriented rectangle patches bounding the box [lo, hi]^3."""
    L = hi - lo
    e = [np.eye(3)[i] * L for i in range(3)]
    c0 = np.full(3, lo)
    faces = [
        MaterialSurface.rectangle(c0 + e[0], e[1], e[2], n, n),   # +x
        MaterialSurface.rectangle(c0, e[2], e[1], n, n),          # -x
        MaterialSurface.rectangle(c0 + e[1], e[2], e[0], n, n),   # +y
        MaterialSurface.rectangle(c0, e[0], e[2], n, n),          # -y
        MaterialSurface.rectangle(c0 + e[2], e[0], e[1], n, n),   # +z
        MaterialSurface.rectangle(c0, e[1], e[0], n, n),          # -z
    ]
    return faces


def rest_map(grid):
    return AnalyticFlowMap(grid, lambda lab, t: lab.copy(),
                           lambda lab, t: np.zeros_like(lab))


def potential_stretch_map(grid):
    """Incompressible potential flow u = (1+t)(y, x, 0), integrated by hand:
    x +/- y evolve by factors exp(+/-(t + t^2/2)). Driven purely by the force
    potential V = x y + (1+t)^2 (x^2 + y^2)/2 at constant pressure, so the
    energy flux identity holds with both sides nonzero."""

    def s(t):
        return np.exp(t + 0.5 * t * t)

    def pos(lab, t):
        p = (lab[..., 0] + lab[..., 1]) * s(t)
        m = (lab[..., 0] - lab[..., 1]) / s(t)
        return np.stack([(p + m) / 2, (p - m) / 2, lab[..., 2]], axis=-1)

    def vel(lab, t):
        x = pos(lab, t)
        return (1 + t) * np.stack([x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], -1)

    return AnalyticFlowMap(grid, pos, vel, name="potential_stretch")


def stretch_V(x, t):
    return x[..., 0] * x[..., 1] + 0.5 * (1 + t) ** 2 * (x[..., 0] ** 2 + x[..., 1] ** 2)


class TestLivingForce:
    def test_rest_zero(self):
        assert living_force(rest_map(cube_grid()), 0.7) == 0.0

    def test_rotation_unit_cube_moment(self):
        # oracle: 0.5 w^2 * integral (a^2 + b^2) over the centered unit cube
        # = w^2 / 12; Simpson integrates the quadratic exactly
        w = 1.0
        e = catalog_flow("rigid_rotation", omega=w, grid=centered_cube_grid())
        for t in (0.0, 0.9):
            assert abs(living_force(e.map, t) - w * w / 12) <= 1e-8

    def test_uniform_translation_half_m_u_sq(self):
        e = catalog_flow("uniform_translation", velocity=(1.0, 0.0, 0.0),
                         grid=cube_grid())
        assert living_force(e.map, 0.3) == pytest.approx(0.5, abs=1e-12)

    def test_additivity_on_split_domains(self):
        w = 1.2
        whole = catalog_flow("rigid_rotation", omega=w, grid=cube_grid(17)).map
        left = catalog_flow(
            "rigid_rotation", omega=w,
            grid=LabelGrid((9, 17, 17), (0, 0, 0), (0.5 / 8, 1 / 16, 1 / 16))).map
        right = catalog_flow(
            "rigid_rotation", omega=w,
            grid=LabelGrid((9, 17, 17), (0.5, 0, 0), (0.5 / 8, 1 / 16, 1 / 16))).map
        t = 0.4
        assert living_force(left, t) + living_force(right, t) == pytest.approx(
            living_force(whole, t), abs=1e-14)

    def test_even_node_counts_integrate(self):
        # point_vortex on its 32^2 grid: an even node count per axis, where
        # the quadrature takes trapezoid weights instead of raising
        e = catalog_flow("point_vortex", grid=default_grid("point_vortex", shape=(32, 32)))
        for t in e.map.times:
            assert np.isfinite(living_force(e.map, t))
            assert np.all(np.isfinite(momentum_integral(e.map, t)))

    def test_galilean_offset(self):
        # K(u + U) - K(u) = M |U|^2 / 2 + U . momentum
        w = 1.0
        U = np.array([0.3, -0.2, 0.1])
        grid = cube_grid()
        base = catalog_flow("rigid_rotation", omega=w, grid=grid)

        def pos(lab, t):
            return base.map.positions(lab, t) + U * t

        def vel(lab, t):
            return base.map.velocities(lab, t) + U

        boosted = AnalyticFlowMap(grid, pos, vel)
        t = 0.6
        K0 = living_force(base.map, t)
        K1 = living_force(boosted, t)
        P = momentum_integral(base.map, t)
        M = 1.0  # unit density over the unit cube
        assert K1 - K0 == pytest.approx(0.5 * M * U @ U + U @ P, abs=1e-12)


class TestEnergyFlux:
    def test_rest(self):
        grid = cube_grid(9)
        ledger = energy_flux_residual(rest_map(grid), lambda x, t: x[..., 0],
                                      [0.0, 0.5], box_faces(0.0, 1.0, 9))
        assert ledger.residual == 0.0
        assert np.all(ledger.K == 0.0)

    def test_rotation_in_coaxial_cylinder(self):
        # tangential velocity: U_n = 0 on the cylinder wall and the lids, so
        # the flux vanishes for any V, and K is constant per particle
        w = 1.0
        e = catalog_flow("rigid_rotation", omega=w, grid=centered_cube_grid(9))
        R, z0, z1 = 0.4, -0.3, 0.3
        th = 2 * np.pi * np.arange(128) / 128
        zz = np.linspace(z0, z1, 16)
        TH, ZZ = np.meshgrid(th, zz, indexing="ij")
        side = MaterialSurface(
            np.stack([R * np.cos(TH), R * np.sin(TH), ZZ], axis=-1),
            param_periodic=(True, False),
        )
        lid_top = MaterialSurface.disk(center=(0, 0, z1), radius=R, nr=12, ntheta=64)
        lid_bot = MaterialSurface.disk(center=(0, 0, z0), radius=R, nr=12, ntheta=64,
                                       normal=(0, 0, -1))
        ledger = energy_flux_residual(
            e.map, lambda x, t: x[..., 0] ** 2 + x[..., 1] ** 2,
            [0.0, 1.0], [side, lid_top, lid_bot])
        assert ledger.residual <= 1e-8
        assert np.abs(ledger.flux).max() <= 1e-10

    def test_potential_stretch_two_sided_balance(self):
        # both sides nonzero; the mismatch shrinks at second order under
        # joint refinement of the time step and the face quadrature
        residuals = []
        for n, dt in ((9, 2e-3), (17, 1e-3)):
            m = potential_stretch_map(cube_grid(n))
            ledger = energy_flux_residual(m, stretch_V, [0.4],
                                          box_faces(0.0, 1.0, n), dt=dt)
            assert abs(ledger.dKdt[0]) > 1.0  # genuinely two-sided
            residuals.append(ledger.residual)
        assert residuals[1] < residuals[0] / 3.0

    def test_times_must_increase(self):
        grid = cube_grid(9)
        with pytest.raises(ValueError):
            energy_flux_residual(rest_map(grid), lambda x, t: 0 * x[..., 0],
                                 [0.5, 0.5], box_faces(0.0, 1.0, 9))


class TestBoundaryEnergyIdentity:
    def grid(self, n=33):
        return cube_grid(n)

    def test_constant_potential(self):
        out = boundary_energy_identity(lambda p: np.full(p.shape[:-1], 2.5),
                                       self.grid())
        assert out["volume_side"] == 0.0 and out["boundary_side"] == 0.0
        assert out["normal_derivative_vanishes"]
        assert out["stationary_energy"] == 0.0

    def test_xy_potential(self):
        # oracle: both sides equal 1/2 * integral (x^2 + y^2) over the unit
        # cube = 1/3 (analytic double integral)
        out = boundary_energy_identity(lambda p: p[..., 0] * p[..., 1],
                                       self.grid())
        assert out["laplace_linf"] <= 1e-10
        assert out["volume_side"] == pytest.approx(1 / 3, abs=1e-10)
        assert out["residual"] <= 1e-6

    def test_x2_minus_y2_potential(self):
        # oracle: volume side = 1/2 * integral (4x^2 + 4y^2) = 4/3
        out = boundary_energy_identity(
            lambda p: p[..., 0] ** 2 - p[..., 1] ** 2, self.grid())
        assert out["laplace_linf"] <= 1e-10
        assert out["volume_side"] == pytest.approx(4 / 3, abs=1e-10)
        assert out["residual"] <= 1e-6

    def test_analytic_gradient_accepted(self):
        out = boundary_energy_identity(
            lambda p: p[..., 0] * p[..., 1], self.grid(),
            grad_fn=lambda p: np.stack([p[..., 1], p[..., 0],
                                        np.zeros_like(p[..., 0])], -1))
        assert out["residual"] <= 1e-10

    def test_helmholtz_implication(self):
        # zero normal derivative on the whole boundary forces zero energy and
        # a gradient bounded by C h^2 (here: exactly zero for a constant)
        g = self.grid(17)
        out = boundary_energy_identity(lambda p: np.full(p.shape[:-1], 1.0), g)
        assert out["normal_derivative_vanishes"]
        h2 = max(g.spacing) ** 2
        assert out["max_gradient"] <= h2
        assert out["stationary_energy"] <= h2

    def test_a_nan_normal_derivative_does_not_vanish(self):
        # F = 0 with a gradient that is NaN only on the x = 1 face, the
        # second face a running Python max would visit
        def grad_fn(p):
            return np.where(p[..., :1] == 1.0, np.nan, np.zeros_like(p))

        out = boundary_energy_identity(lambda p: np.zeros(p.shape[:-1]), self.grid(9),
                                       grad_fn=grad_fn)
        assert not out["normal_derivative_vanishes"]
        assert out["stationary_energy"] is None

    def test_nonvanishing_normal_derivative_blocks_implication(self):
        out = boundary_energy_identity(lambda p: p[..., 0], self.grid(9))
        assert not out["normal_derivative_vanishes"]
        assert out["stationary_energy"] is None

    def test_linear_potential_exact(self):
        # F = x: volume side 1/2, boundary side 1/2 exactly
        out = boundary_energy_identity(lambda p: p[..., 0], self.grid(9))
        assert out["volume_side"] == pytest.approx(0.5, abs=1e-13)
        assert out["boundary_side"] == pytest.approx(0.5, abs=1e-13)
