"""Material loops and surfaces: circulation, flux, Stokes, Kelvin, tubes."""

import importlib
import warnings

import numpy as np
import pytest

from flowmaplab import (
    MaterialLoop,
    MaterialSurface,
    catalog_flow,
    circulation,
    kelvin_drift,
    label_circulation,
    stokes_residual,
    tube_section_flux,
    vorticity_flux,
)
from flowmaplab.circulation import _frame_from_normal


def rest_map():
    from flowmaplab import AnalyticFlowMap, LabelGrid

    g = LabelGrid((9, 9, 9), (-1, -1, -1), (0.25,) * 3)
    return AnalyticFlowMap(g, lambda lab, t: lab.copy(),
                           lambda lab, t: np.zeros_like(lab))


class TestLoopType:
    def test_needs_16_points(self):
        s = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        pts = np.stack([np.cos(s), np.sin(s), 0 * s], -1)
        with pytest.raises(ValueError):
            MaterialLoop(pts)

    def test_rejects_repeated_points(self):
        pts = MaterialLoop.circle(n=32).labels.copy()
        pts[5] = pts[4]
        with pytest.raises(ValueError):
            MaterialLoop(pts)

    def test_reversal_negates_circulation_exactly(self):
        e = catalog_flow("rigid_rotation", omega=1.0)
        loop = MaterialLoop.circle(radius=0.3, n=64)
        c = circulation(e.map, loop, 0.7)
        cr = circulation(e.map, loop.reversed(), 0.7)
        assert c == -cr

    def test_degenerate_loop_rejected(self):
        pts = np.zeros((32, 3))
        pts[:, 0] = 1e-16 * np.cos(np.linspace(0, 2 * np.pi, 32, endpoint=False))
        pts[:, 1] = 1e-16 * np.sin(np.linspace(0, 2 * np.pi, 32, endpoint=False))
        with pytest.raises(ValueError):
            circulation(rest_map(), MaterialLoop(pts), 0.0)

    @pytest.mark.parametrize("normal", [(0, 0, 0), (0.0, np.nan, 1.0), (np.inf, 0.0, 0.0)])
    def test_circle_rejects_a_normal_without_direction(self, normal):
        # 0/0 would give an all-NaN loop, and NaN labels fail only later,
        # as a map's non-finite positions or a NaN circulation
        with pytest.raises(ValueError, match=r"normal \[.*\] is not a finite vector of "
                                             "non-zero length"):
            MaterialLoop.circle(radius=0.25, normal=normal, n=32)


    @pytest.mark.parametrize("normal, unit", [((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
                                              ((0.0, -1e300, 0.0), (0.0, -1.0, 0.0)),
                                              ((1e-200, 1e-200, 0.0), (1.0, 1.0, 0.0))])
    def test_frame_of_a_normal_whose_squared_length_overflows_or_underflows(self, normal, unit):
        # the normal has a direction; only |n|^2 is out of range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = _frame_from_normal(normal)
        assert all(np.array_equal(a, b) for a, b in zip(frame, _frame_from_normal(unit)))


class TestSurfaceType:
    @pytest.mark.parametrize("normal", [(0, 0, 0), (np.nan, 0.0, 1.0)])
    def test_disk_rejects_a_normal_without_direction(self, normal):
        with pytest.raises(ValueError, match="is not a finite vector of non-zero length"):
            MaterialSurface.disk(radius=0.25, normal=normal, nr=8, ntheta=32)

    def test_disk_boundary_matches_circle(self):
        surf = MaterialSurface.disk(radius=0.5, nr=16, ntheta=64)
        loop = MaterialLoop.circle(radius=0.5, n=64)
        ring = surf.boundary_loop()
        assert np.abs(ring.labels - loop.labels).max() < 1e-14

    def test_normals_exact_on_clamped_quadratic(self):
        # points quadratic in the clamped parameter s, linear in the other:
        # T1 = (2 s, 0, s), T2 = (0, 1, 0), so T1 x T2 = (-s, 0, 2 s); the
        # order-2 surface rows (one-sided at the ends) differentiate
        # quadratics exactly
        s = np.linspace(0.0, 1.0, 21)
        u = np.linspace(0.0, 1.0, 8)
        S, U = np.meshgrid(s, u, indexing="ij")
        surf = MaterialSurface(np.stack([S ** 2, U, 0.5 * S ** 2], axis=-1))
        _, nw = surf.advected_normals(rest_map(), 0.0)
        exact = np.stack([-S, np.zeros_like(S), 2 * S], axis=-1)
        assert np.abs(nw - exact).max() <= 1e-12


class TestCirculation:
    def test_rest_zero(self):
        loop = MaterialLoop.circle(radius=0.5, n=64)
        assert circulation(rest_map(), loop, 1.0) == 0.0

    def test_point_vortex_enclosing(self):
        G = 2 * np.pi
        e = catalog_flow("point_vortex", gamma=G)
        loop = MaterialLoop.circle(center=(0, 0, 0), radius=1.0, n=256)
        t = float(e.map.times[1])
        c = circulation(e.map, loop, t)
        assert isinstance(c, float)
        assert abs(c - G) <= 1e-6

    def test_point_vortex_non_enclosing(self):
        e = catalog_flow("point_vortex", gamma=2 * np.pi)
        loop = MaterialLoop.circle(center=(1.2, 1.2, 0.0), radius=0.2, n=256)
        t = float(e.map.times[1])
        assert abs(circulation(e.map, loop, t)) <= 1e-6

    def test_label_and_position_forms_agree(self):
        # the two integrals are the same 1-form in different variables
        for name in ("rigid_rotation", "gerstner", "point_vortex"):
            e = catalog_flow(name)
            if name == "gerstner":
                loop = MaterialLoop.circle(center=(3.0, -1.8, 0.0), radius=0.5, n=256)
            elif name == "point_vortex":
                loop = MaterialLoop.circle(center=(1.2, 1.2, 0.0), radius=0.3, n=256)
            else:
                loop = MaterialLoop.circle(radius=0.4, n=256)
            t = 0.25 * e.map.timescale
            c = circulation(e.map, loop, t)
            scale = max(1.0, abs(c))
            assert abs(c - label_circulation(e.map, loop, t)) <= 1e-7 * scale, name


class TestVorticityFlux:
    def test_rest_zero(self):
        surf = MaterialSurface.disk(radius=0.5, nr=16, ntheta=64)
        assert vorticity_flux(rest_map(), surf, 0.5) == 0.0

    def test_rotation_disk(self):
        # oracle: constant integrand, flux = 2 w * area = 2 w pi R^2
        w = 0.1
        R = 1.0
        grid_free = catalog_flow("rigid_rotation", omega=w)
        surf = MaterialSurface.disk(radius=R, nr=32, ntheta=256)
        flux = vorticity_flux(grid_free.map, surf, 1.3)
        assert abs(flux - 2 * w * np.pi * R ** 2) <= 1e-4

    def test_potential_flow_zero_flux(self):
        e = catalog_flow("stagnation")
        surf = MaterialSurface.disk(center=(0.6, 0.6, 0.0), radius=0.3, nr=16, ntheta=128)
        assert abs(vorticity_flux(e.map, surf, 0.5)) <= 1e-8


class TestStokes:
    def test_rest(self):
        loop = MaterialLoop.circle(radius=0.5, n=64)
        surf = MaterialSurface.disk(radius=0.5, nr=16, ntheta=64)
        chk = stokes_residual(rest_map(), loop, surf, 0.0)
        assert chk.residual == 0.0

    def test_rotation_disk_resolution_256(self):
        w = 0.1
        e = catalog_flow("rigid_rotation", omega=w)
        loop = MaterialLoop.circle(radius=1.0, n=256)
        surf = MaterialSurface.disk(radius=1.0, nr=32, ntheta=256)
        chk = stokes_residual(e.map, loop, surf, 0.9)
        assert chk.residual <= 1e-4

    def test_rotation_convergence_order(self):
        w = 0.1
        e = catalog_flow("rigid_rotation", omega=w)
        errs = []
        for n in (64, 128, 256):
            loop = MaterialLoop.circle(radius=1.0, n=n)
            surf = MaterialSurface.disk(radius=1.0, nr=max(8, n // 8), ntheta=n)
            errs.append(stokes_residual(e.map, loop, surf, 0.9).residual)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 1.8 for o in orders), (errs, orders)

    def test_gerstner_label_square(self):
        e = catalog_flow("gerstner")
        corner = (2.5, -2.0, 0.0)
        errs = []
        for n in (16, 32):
            surf = MaterialSurface.rectangle(corner, (0.8, 0, 0), (0, 0.6, 0),
                                             n1=n + 1, n2=n + 1)
            loop = surf.boundary_loop()
            errs.append(stokes_residual(e.map, loop, surf, 1.0).residual)
        order = np.log2(errs[0] / errs[1])
        assert errs[1] <= 5e-3 and order >= 1.8, (errs, order)


class TestKelvin:
    def test_rest(self):
        loop = MaterialLoop.circle(radius=0.5, n=64)
        assert kelvin_drift(rest_map(), loop, [0.0, 0.5, 1.0]) == 0.0

    def test_a_later_nan_circulation_is_not_swallowed(self):
        # NaN velocities from t = 1 on: the drift is NaN, not the finite
        # drift at t = 0.5 that a running Python max would keep
        from flowmaplab import AnalyticFlowMap

        rot = catalog_flow("rigid_rotation").map
        m = AnalyticFlowMap(rot.grid, rot._position,
                            lambda lab, t: rot._velocity(lab, t) * (np.nan if t > 0.6 else 1.0))
        loop = MaterialLoop.circle(radius=0.4, n=64)
        assert np.isnan(kelvin_drift(m, loop, [0.0, 0.5, 1.0]))

    def test_rotation_over_period(self):
        e = catalog_flow("rigid_rotation", omega=1.0)
        loop = MaterialLoop.circle(radius=0.4, n=128)
        times = np.linspace(0.0, 2 * np.pi, 5)
        assert kelvin_drift(e.map, loop, times) <= 1e-10

    def test_point_vortex_over_period(self):
        G = 2 * np.pi
        period = 4 * np.pi ** 2 / G
        e = catalog_flow("point_vortex", gamma=G, times=(0.0, period / 2, period),
                         dt=period / 4096)
        loop = MaterialLoop.circle(radius=1.0, n=256)
        assert kelvin_drift(e.map, loop, e.map.times) <= 1e-5

    def test_surface_form_reported(self):
        # the surface form of the same law: the flux through a material disk
        e = catalog_flow("rigid_rotation", omega=0.5)
        surf = MaterialSurface.disk(radius=0.4, nr=16, ntheta=64)
        f0 = vorticity_flux(e.map, surf, 0.0)
        assert max(abs(vorticity_flux(e.map, surf, t) - f0) for t in (1.0, 2.0)) <= 1e-10

    def test_loop_path_needs_no_deformation_gradient(self, monkeypatch):
        # the position form reads positions and velocities only; the values
        # are those of the version that also built the label form
        from flowmaplab.suite import run_suite

        module = importlib.import_module("flowmaplab.circulation")  # the package attribute is the function

        e = catalog_flow("point_vortex")
        loop = MaterialLoop.circle(center=(0.6, 0.6, 0.0), radius=0.2, n=64)

        def refuse(*args, **kwargs):
            raise AssertionError("deformation_at called on the loop path")

        monkeypatch.setattr(module, "deformation_at", refuse)
        drift = kelvin_drift(e.map, loop, [0.0, 0.5, 1.0, 1.5])
        assert drift == float.fromhex("0x1.088642cf53b36p-15")
        report, _ = run_suite({
            "flows": [{"name": "point_vortex"}],
            "checks": [{"id": "circulation.kelvin_drift", "tolerance": 1e-12,
                        "options": {"center": [0.6, 0.6, 0.0], "radius": 0.2}}],
            "grids": [[16, 16]],
        })
        assert report.rows[0].linf == float.fromhex("0x1.1d95f9f1302a3p-11")


class TestTubeSections:
    def test_rotation_parallel_disks(self):
        e = catalog_flow("rigid_rotation", omega=1.0)
        a = MaterialSurface.disk(center=(0, 0, 0.2), radius=0.4, nr=16, ntheta=128)
        b = MaterialSurface.disk(center=(0, 0, 0.7), radius=0.4, nr=16, ntheta=128)
        fa, fb, diff = tube_section_flux(e.map, a, b, 1.1)
        assert diff <= 1e-6
        assert fa == pytest.approx(2 * np.pi * 0.4 ** 2, rel=1e-3)

    def test_rest_all_zero(self):
        a = MaterialSurface.disk(center=(0, 0, 0.2), radius=0.4, nr=8, ntheta=32)
        b = MaterialSurface.disk(center=(0, 0, 0.6), radius=0.4, nr=8, ntheta=32)
        fa, fb, diff = tube_section_flux(rest_map(), a, b, 0.3)
        assert (fa, fb, diff) == (0.0, 0.0, 0.0)

    def test_point_vortex_sections_agree(self):
        # sections away from the excluded core see an irrotational field:
        # both fluxes vanish to the stencil/quadrature level and agree
        e = catalog_flow("point_vortex")
        a = MaterialSurface.disk(center=(1.2, 1.2, 0.0), radius=0.25, nr=12, ntheta=96)
        b = MaterialSurface.disk(center=(1.2, 1.2, 0.1), radius=0.25, nr=12, ntheta=96)
        t = float(e.map.times[1])
        fa, fb, diff = tube_section_flux(e.map, a, b, t)
        assert diff <= 1e-5 and abs(fa) <= 1e-5

    def test_surface_independence(self):
        # two spanning surfaces of one loop: flat disk vs lifted cap
        e = catalog_flow("rigid_rotation", omega=0.7)
        flat = MaterialSurface.disk(radius=0.5, nr=24, ntheta=192)
        cap = MaterialSurface.disk(radius=0.5, nr=24, ntheta=192,
                                   lift=lambda r: 0.3 * (0.25 - r ** 2))
        t = 0.8
        assert abs(vorticity_flux(e.map, flat, t)
                   - vorticity_flux(e.map, cap, t)) <= 1e-5
