"""Clebsch decomposition residuals and the potential-flow specialization."""

import numpy as np
import pytest

from flowmaplab import (
    ClebschTriple,
    LabelGrid,
    catalog_flow,
    catalog_names,
    clebsch_advection_residual,
    clebsch_vorticity_residual,
    potential_flow_checks,
)
from flowmaplab.clebsch import incompressibility_residual


def grid_2d(n=33, lo=-1.0, hi=1.0):
    h = (hi - lo) / (n - 1)
    return LabelGrid((n, n), (lo, lo), (h, h))


def grid_3d(n=17, lo=-1.0, hi=1.0):
    h = (hi - lo) / (n - 1)
    return LabelGrid((n, n, n), (lo,) * 3, (h,) * 3)


def pts_of(grid):
    return grid.nodes3().reshape(grid.shape + (3,))


@pytest.fixture(scope="module")
def catalog():
    return {name: catalog_flow(name) for name in catalog_names()}


class TestVelocityAssembly:
    def test_pure_potential(self):
        e = catalog_flow("uniform_translation", velocity=(2.0, 0.0, 0.0))
        pts = pts_of(grid_2d())
        u = e.clebsch.velocity(pts)
        assert np.abs(u - np.array([2.0, 0.0, 0.0])).max() < 1e-9

    def test_phi_grad_psi_term(self):
        # oracle: F=0, phi=gamma y, psi=x gives u = (gamma y, 0, 0) by hand
        g = 1.0
        e = catalog_flow("simple_shear", gamma=g)
        pts = pts_of(grid_2d())
        u = e.clebsch.velocity(pts)
        assert np.abs(u[..., 0] - g * pts[..., 1]).max() < 1e-9
        assert np.abs(u[..., 1]).max() < 1e-9

    def test_rigid_rotation_fixture(self):
        # oracle: F = -w x y, phi = 2 w x, psi = y assembles (-w y, w x, 0)
        w = 1.0
        e = catalog_flow("rigid_rotation", omega=w)
        pts = pts_of(grid_2d())
        u = e.clebsch.velocity(pts)
        expect = np.stack([-w * pts[..., 1], w * pts[..., 0], 0 * pts[..., 0]], -1)
        assert np.abs(u - expect).max() < 1e-9


class TestVorticityIdentity:
    @pytest.mark.parametrize("name,expected_curl", [
        ("uniform_translation", (0.0, 0.0, 0.0)),
        ("simple_shear", (0.0, 0.0, -1.0)),
        ("rigid_rotation", (0.0, 0.0, 2.0)),
    ])
    def test_curl_equals_cross_gradients(self, name, expected_curl):
        e = catalog_flow(name)
        g = grid_2d()
        s = clebsch_vorticity_residual(e.clebsch, g)
        h2 = max(g.spacing) ** 2
        assert s.linf <= 5 * h2

    def test_consistency_with_half_curl_module(self):
        # eulerian_vorticity of the assembled field equals half the cross of
        # the potential gradients
        from flowmaplab import eulerian_vorticity

        w = 1.0
        e = catalog_flow("rigid_rotation", omega=w)
        g = grid_2d()
        pts = pts_of(g)
        u = e.clebsch.velocity(pts)
        W = eulerian_vorticity(u, grid=g)
        assert np.abs(W.values[..., 2] - w).max() <= max(g.spacing) ** 2


class TestAdvection:
    def test_material_scalars_under_rotation(self):
        e = catalog_flow("rigid_rotation")
        g = grid_2d()
        r_phi, r_psi = clebsch_advection_residual(e.material_scalars, e.velocity_field, g)
        h2 = max(g.spacing) ** 2
        assert r_phi.linf <= 5 * h2 and r_psi.linf <= 5 * h2

    def test_rest_steady(self):
        e = catalog_flow("rigid_rotation")
        g = grid_2d()
        r_phi, r_psi = clebsch_advection_residual(
            e.material_scalars, lambda p, t: np.zeros_like(p), g)
        assert r_phi.linf <= 1e-10 and r_psi.linf <= 1e-10

    def test_translating_level_set(self):
        # oracle: d(x - t)/dt = -1 cancels u . grad(x - t) = 1 exactly
        e = catalog_flow("uniform_translation")
        g = grid_2d()
        r_phi, _ = clebsch_advection_residual(e.material_scalars, e.velocity_field, g)
        assert r_phi.linf <= 1e-9


class TestPotentialFlow:
    def test_uniform_flow(self):
        e = catalog_flow("uniform_translation", velocity=(1.5, 0.0, 0.0))
        g = grid_2d()
        lap, bern = potential_flow_checks(e.clebsch.F, e.force.omega_at, g)
        assert lap.linf <= 1e-12 and bern.linf <= 1e-12

    def test_stagnation_quadratics_are_stencil_exact(self):
        e = catalog_flow("stagnation", k=1.0)
        g = grid_2d()
        lap, bern = potential_flow_checks(e.clebsch.F, e.force.omega_at, g)
        assert lap.linf <= 1e-12
        assert bern.linf <= 1e-12

    def test_point_vortex_away_from_cut(self, catalog):
        # residuals away from the cut and core are pure stencil truncation:
        # bounded by C h^2 (C set by the closest included radius) and
        # shrinking at order 2 under refinement
        ct, omega = catalog["point_vortex"].clebsch, catalog["point_vortex"].force.omega_at
        g = grid_2d(n=65, lo=-2.0, hi=2.0)
        lap, bern = potential_flow_checks(ct.F, omega, g, cut_mask=ct.cut_mask)
        assert lap.excluded > 0  # stencils near cut/core were dropped
        h2 = max(g.spacing) ** 2
        assert lap.linf <= 400 * h2 and bern.linf <= 50 * h2

        # order study at a fixed standoff: excluding a larger disk pins the
        # truncation constant, so the residual shrinks cleanly at order 2
        def wide_cut(p):
            return ct.cut_mask(p) | (p[..., 0] ** 2 + p[..., 1] ** 2 < 0.5 ** 2)

        laps, berns = [], []
        for n in (65, 129):
            gn = grid_2d(n=n, lo=-2.0, hi=2.0)
            lapn, bernn = potential_flow_checks(ct.F, omega, gn, cut_mask=wide_cut)
            laps.append(lapn.l2)
            berns.append(bernn.l2)
        # rms order: the Linf max rides the exclusion rim, whose truncation
        # constant grows as nodes approach it, so the bulk norm carries the
        # convergence statement
        assert np.log2(laps[0] / laps[1]) >= 1.8
        assert np.log2(berns[0] / berns[1]) >= 1.8

    def test_gauge_function_of_time_changes_nothing(self):
        k = 1.0
        g = grid_2d()

        def F0(p, t):
            return 0.5 * k * (p[..., 0] ** 2 - p[..., 1] ** 2)

        def F1(p, t):
            return F0(p, t) + 3.0 * t + 7.0

        pts = pts_of(g)
        u0 = ClebschTriple(F=F0).velocity(pts, 0.3)
        u1 = ClebschTriple(F=F1).velocity(pts, 0.3)
        assert np.abs(u0 - u1).max() <= 1e-9

    @pytest.mark.parametrize("periodic, excluded", [(False, 2 * 65), (True, 3 * 65)])
    def test_cut_widens_around_the_ends_of_periodic_axes_only(self, periodic, excluded):
        # a cut on the x = -2 column, graded by a residual x + 2 that peaks
        # on the far x = +2 column: the widened cut reaches that column only
        # when the x axis wraps around
        g = LabelGrid((65, 65), (-2.0, -2.0), (4 / 64, 4 / 64), (periodic, False))
        _, bern = potential_flow_checks(lambda p, t: np.zeros(p.shape[:-1]),
                                        lambda p, t: -(p[..., 0] + 2.0), g, rind=0,
                                        cut_mask=lambda p: p[..., 0] < -1.99)
        assert bern.excluded == excluded
        assert bern.location[0] == (2.0 - g.spacing[0] if periodic else 2.0)

    def test_point_vortex_cut_spares_the_far_edge(self, catalog):
        # the order-4 stencil reaches two nodes; no node with x > 1 is near
        # the point vortex's cut {y = 0, x < 0} or its core
        from flowmaplab.clebsch import _cut_exclusion_mask
        from flowmaplab.grids import StencilSpec

        g = grid_2d(n=65, lo=-2.0, hi=2.0)
        mask = _cut_exclusion_mask(catalog["point_vortex"].clebsch.cut_mask, g,
                                   StencilSpec(order=4))
        assert mask[pts_of(g)[..., 0] > 1.0].all()


class TestIncompressibility:
    def test_divergence_of_fixtures(self):
        for name in ("uniform_translation", "simple_shear", "rigid_rotation", "stagnation"):
            e = catalog_flow(name)
            g = grid_2d()
            s = incompressibility_residual(e.clebsch, g)
            assert s.linf <= 5 * max(g.spacing) ** 2, name


class TestCatalogData:
    def test_triple_realizes_the_velocity_field(self, catalog):
        # grad F + phi grad psi against the entry's own u, at the nodes of
        # its default grid that lie off the declared cut
        checked = []
        for name, e in catalog.items():
            if e.clebsch is None:
                continue
            pts = pts_of(e.map.grid)
            off_cut = np.ones(e.map.grid.shape, dtype=bool)
            if e.clebsch.cut_mask is not None:
                off_cut = ~e.clebsch.cut_mask(pts)
            err = np.abs(e.clebsch.velocity(pts) - e.velocity_field(pts, 0.0))
            assert err[off_cut].max() <= 1e-8, name
            checked.append(name)
        assert checked == ["point_vortex", "rigid_rotation", "simple_shear", "stagnation",
                           "uniform_translation"]

    def test_material_scalars_advect_under_the_velocity_field(self, catalog):
        g = grid_2d()
        h2 = max(g.spacing) ** 2
        checked = []
        for name, e in catalog.items():
            if e.material_scalars is None:
                continue
            r_phi, r_psi = clebsch_advection_residual(e.material_scalars, e.velocity_field, g)
            assert max(r_phi.linf, r_psi.linf) <= 5 * h2, name
            checked.append(name)
        assert checked == ["rigid_rotation", "uniform_translation"]

