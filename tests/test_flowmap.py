"""Flow-map calculus: deformation gradients, density equations, cofactor
relations, the volume-integral transform, and the trajectory file format."""

import struct

import numpy as np
import pytest

from flowmaplab import (
    AnalyticFlowMap,
    LabelGrid,
    SingularMapError,
    StencilSpec,
    catalog_flow,
    cofactor_identity_residual,
    deformation_gradient,
    density_residual,
    jacobian_det,
    load_flowmap,
    mass_integral_transform,
    save_flowmap,
)
from flowmaplab.flowmap import det3, invert_map
from flowmaplab.quadrature import SIMPSON

HEADER = "<8sI3I3d3d3BBI"  # save_flowmap's header layout


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
            err = np.abs(g.values - np.eye(3)).max()
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
        for mode in ("analytic", "fd"):
            g = deformation_gradient(e.map, t, StencilSpec(2), mode=mode)
            assert np.abs(g.values - R).max() < 1e-12
            assert g.mode.startswith(mode[:2])

    def test_simple_shear_slot(self):
        e = catalog_flow("simple_shear", gamma=0.8)
        g = deformation_gradient(e.map, 2.0, mode="fd")
        expect = np.eye(3)
        expect[0, 1] = 0.8 * 2.0
        assert np.abs(g.values - expect).max() < 1e-12

    def test_fd_exact_on_linear_maps(self):
        A = np.array([[1.1, 0.2, 0.0], [-0.1, 0.95, 0.05], [0.0, 0.1, 1.0]])
        m = linear_map(A)
        g = deformation_gradient(m, 1.0, StencilSpec(2), mode="fd")
        assert np.abs(g.values - A).max() < 1e-12


class TestJacobian:
    def test_identity_is_one(self):
        m = identity_map()
        J = jacobian_det(deformation_gradient(m, 1.0))
        assert np.abs(J.data - 1.0).max() < 1e-13

    def test_rotation_volume_preserving(self):
        # oracle: determinant of a rotation matrix is 1
        e = catalog_flow("rigid_rotation")
        for t in (0.3, 1.7, 5.0):
            J = jacobian_det(deformation_gradient(e.map, t))
            assert np.abs(J.data - 1.0).max() < 1e-12

    def test_gerstner_jacobian_closed_form(self):
        # oracle: hand-expanded 2x2 determinant gives 1 - e^(2kb) at every t
        k = 1.0
        e = catalog_flow("gerstner", k=k)
        lab = e.map.grid_labels()
        expect = 1.0 - np.exp(2 * k * lab[..., 1])
        for t in (0.0, 1.1, 4.0):
            J = jacobian_det(deformation_gradient(e.map, t))
            assert np.abs(J.data - expect).max() < 1e-12


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
        mapped, _ = mass_integral_transform(e.map, t, lambda p: p[..., 0] ** 2,
                                            rule=SIMPSON)
        lab = e.map.grid_labels()
        from flowmaplab.quadrature import grid_integral

        direct = grid_integral(lab[..., 1] ** 2, e.map.grid.spacing, SIMPSON)
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


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        e = catalog_flow("rigid_rotation")
        times = [0.0, 0.5, 1.0]
        path = tmp_path / "rot.fmap"
        save_flowmap(e.map, path, times=times, metadata={"note": "test"})
        assert (tmp_path / "rot.fmap.json").exists()
        loaded = load_flowmap(path)
        assert loaded.grid.shape == e.map.grid.shape
        assert np.allclose(loaded.times, times)
        lab = loaded.grid_labels()
        for t in times:
            assert np.abs(loaded.positions(lab, t) - e.map.positions(lab, t)).max() < 1e-15

    def test_loaded_map_velocities_by_time_differences(self, tmp_path):
        e = catalog_flow("uniform_translation", velocity=(2.0, 0.0, 0.0))
        path = tmp_path / "trans.fmap"
        save_flowmap(e.map, path, times=[0.0, 0.25, 0.5])
        loaded = load_flowmap(path)
        v = loaded.velocities(loaded.grid_labels(), 0.25)
        assert np.abs(v - np.array([2.0, 0.0, 0.0])).max() < 1e-12

    def test_loaded_map_rejects_offgrid(self, tmp_path):
        e = catalog_flow("rigid_rotation")
        path = tmp_path / "r.fmap"
        save_flowmap(e.map, path, times=[0.0, 1.0])
        loaded = load_flowmap(path)
        with pytest.raises(ValueError):
            loaded.positions(np.zeros((4, 3)), 0.7)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.fmap"
        p.write_bytes(b"NOTAMAP!" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_flowmap(p)

    def _saved(self, tmp_path):
        path = tmp_path / "r.fmap"
        save_flowmap(catalog_flow("rigid_rotation").map, path, times=[0.0, 1.0])
        return path, bytearray(path.read_bytes())

    def test_truncated_payload_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated flowmap payload"):
            load_flowmap(path)

    def test_oversized_payload_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data + bytes(8))
        with pytest.raises(ValueError, match="oversized flowmap payload"):
            load_flowmap(path)

    def test_bad_ndim_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        struct.pack_into("<I", data, 8, 4)  # ndim follows the 8-byte magic
        path.write_bytes(data)
        with pytest.raises(ValueError, match="bad flowmap header: ndim"):
            load_flowmap(path)

    def test_truncated_times_block_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:struct.calcsize(HEADER) + 12])  # 1.5 of 2 times
        with pytest.raises(ValueError, match="truncated flowmap times block"):
            load_flowmap(path)

    @pytest.mark.parametrize("h", [0.0, float("nan"), float("inf")])
    def test_bad_spacing_rejected(self, tmp_path, h):
        path, data = self._saved(tmp_path)
        struct.pack_into("<d", data, struct.calcsize("<8sI3I3d"), h)  # first spacing
        path.write_bytes(data)
        with pytest.raises(ValueError, match="bad flowmap header: spacing"):
            load_flowmap(path)


def test_det3_matches_numpy():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(50, 3, 3))
    assert np.abs(det3(M) - np.linalg.det(M)).max() < 1e-12
