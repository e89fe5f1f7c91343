"""Velocity reconstruction from vorticity and the element-law identities."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmaplab import (
    LabelGrid,
    StencilSpec,
    VorticitySource,
    gaussian_swirl_blob,
    velocity_from_vorticity,
)
from flowmaplab.biotsavart import BLOCK, TILE
from flowmaplab.grids import differentiate


def small_blob(n=32):
    src, u_exact, w_fn, w_mid = gaussian_swirl_blob(n=n)
    return src, u_exact, w_fn, w_mid


class TestSourceValidation:
    def test_non_compact_rejected(self):
        g = LabelGrid((8, 8, 8), (-1, -1, -1), (2 / 7,) * 3)

        def solid(p):
            return np.stack([0 * p[..., 0], 0 * p[..., 0], np.ones_like(p[..., 0])], -1)

        with pytest.raises(ValueError):
            VorticitySource.from_callable(solid, g)

    def test_divergent_field_rejected(self):
        g = LabelGrid((16, 16, 16), (-1 + 1 / 16, -1 + 1 / 16, -1 + 1 / 16), (1 / 8,) * 3)

        def leaky(p):
            r2 = np.einsum("...i,...i->...", p, p)
            c = np.exp(-r2 / (2 * 0.1 ** 2))
            return np.stack([0 * c, 0 * c, c], -1)  # d(wz)/dz != 0

        with pytest.raises(ValueError):
            VorticitySource.from_callable(leaky, g)

    def test_blob_divergence_shrinks_at_order_two(self):
        coarse, _, _, _ = small_blob(32)
        fine, _, _, _ = small_blob(64)
        assert fine.divergence_linf < coarse.divergence_linf / 2.5


class TestReconstruction:
    def test_zero_vorticity_zero_velocity(self):
        g = LabelGrid((8, 8, 8), (-1, -1, -1), (2 / 7,) * 3)
        src = VorticitySource(g, np.zeros((8, 8, 8, 3)))
        u = velocity_from_vorticity(src, [(2.0, 0.0, 0.0)])
        assert np.abs(u).max() == 0.0

    def test_single_element_matches_kernel(self):
        # one nonzero node: the sum has a single term, equal to the closed
        # form of the kernel
        g = LabelGrid((8, 8, 8), (-0.875, -0.875, -0.875), (0.25,) * 3)
        vals = np.zeros((8, 8, 8, 3))
        vals[4, 4, 4] = (0.0, 0.0, 1.0)
        src = VorticitySource(g, vals, compact=False)
        node = g.nodes3().reshape(g.shape + (3,))[4, 4, 4]
        target = node + np.array([0.5, 0.0, 0.0])
        u = velocity_from_vorticity(src, [target], allow_interior_targets=True)[0]
        dv = g.cell_volume
        expect = dv / (2 * np.pi) * np.cross([0.0, 0.0, 1.0], [0.5, 0.0, 0.0]) / 0.5 ** 3
        assert np.abs(u - expect).max() < 1e-15

    def test_axis_targets_see_no_velocity(self):
        src, _, _, _ = small_blob(32)
        targets = [(0.0, 0.0, 0.31), (0.0, 0.0, -0.17)]
        u = velocity_from_vorticity(src, targets, allow_interior_targets=True)
        assert np.abs(u).max() <= 1e-10

    def test_midradius_swirl_within_2pct_of_radial_oracle(self):
        # oracle: the axisymmetric swirl profile from 1D radial quadrature of
        # the midplane axial vorticity
        from scipy.integrate import quad

        src, u_exact, _, w_mid = gaussian_swirl_blob(n=64)
        sigma = 0.105
        r = 1.5 * sigma
        val, _ = quad(lambda s: 2 * w_mid(s) * s, 0.0, r)
        u_theta_oracle = val / r
        target = np.array([r, 0.0, 0.0])
        u = velocity_from_vorticity(src, [target], allow_interior_targets=True)[0]
        assert abs(u[1] - u_theta_oracle) <= 0.02 * abs(u_theta_oracle)
        # the closed-form field agrees with the quadrature oracle
        assert u_exact(target)[1] == pytest.approx(u_theta_oracle, rel=1e-9)

    def test_refinement_reduces_error(self):
        sigma = 0.105
        r = 1.5 * sigma
        errs = []
        for n in (32, 64):
            src, u_exact, _, _ = gaussian_swirl_blob(n=n)
            target = np.array([r, 0.0, 0.0])
            u = velocity_from_vorticity(src, [target], allow_interior_targets=True)[0]
            errs.append(np.linalg.norm(u - u_exact(target)))
        assert errs[0] / errs[1] >= 3.5

    def test_reconstructed_field_divergence_free(self):
        src, _, _, _ = small_blob(32)
        n = 6
        h = 0.05
        tg = LabelGrid((n, n, n), (1.2, 1.1, -0.12), (h,) * 3)
        pts = tg.nodes3().reshape(tg.shape + (3,))
        u = velocity_from_vorticity(src, pts.reshape(-1, 3)).reshape(tg.shape + (3,))
        div = sum(differentiate(u[..., k], k, StencilSpec(2), grid=tg) for k in range(3))
        assert np.abs(div).max() <= 1e-6

    def test_antisymmetry_exact(self):
        src, _, w_fn, _ = small_blob(32)
        flipped = VorticitySource(src.grid, -src.values)
        t = [(1.3, 0.2, 0.1)]
        a = velocity_from_vorticity(src, t)
        b = velocity_from_vorticity(flipped, t)
        assert np.array_equal(a, -b)

    def test_proximity_gate(self):
        src, _, _, _ = small_blob(32)
        with pytest.raises(ValueError):
            velocity_from_vorticity(src, [(0.0, 0.0, 0.0)])


def one_node_source(index, w, h=0.5):
    """A source whose only carrying node is ``index`` of an 8^3 grid, and
    that node's position. At h = 0.5 a single node passes the divergence
    gate wherever it sits."""
    g = LabelGrid((8, 8, 8), (-3.5 * h,) * 3, (h,) * 3)
    vals = np.zeros((8, 8, 8, 3))
    vals[tuple(index)] = w
    return VorticitySource(g, vals, compact=False), g.nodes3().reshape(g.shape + (3,))[tuple(index)]


def element_law_residuals(node, w, targets, u, dv):
    """The three element-law identities, each divided by the magnitudes it
    involves: (x1 - x) . u = 0, w . u = 0, |u| = dV |w| sin(eps) / (2 pi r^2)."""
    d = np.atleast_2d(targets) - node
    r = np.linalg.norm(d, axis=1)
    delta = np.linalg.norm(w)
    scale = dv * delta / (2 * np.pi * r ** 2)  # |u| at sin(eps) = 1
    sin_eps = np.linalg.norm(np.cross(w, d), axis=1) / (delta * r)
    mag = np.linalg.norm(u, axis=1)
    return (np.abs(np.einsum("ij,ij->i", d, u)) / (r * scale),
            np.abs(u @ w) / (delta * scale),
            np.abs(mag - scale * sin_eps) / scale)


class TestElementLaw:
    """The element-law identities graded on the library's own kernel, one
    carrying node at a time; the nodes sit off the grid's centre so the
    split's cancellation is exercised."""

    def test_axis_through_target(self):
        src, node = one_node_source((1, 6, 2), (0, 0, 1.0))
        u = velocity_from_vorticity(src, [node + (0, 0, 2.0)])
        assert np.linalg.norm(u) == 0.0

    def test_perpendicular_unit_case(self):
        # eps = pi/2, r = 1, Delta = 1, unit volume: |u| = 1/(2 pi) along w x d
        src, node = one_node_source((6, 1, 2), (0, 0, 1.0), h=1.0)
        u = velocity_from_vorticity(src, [node + (1.0, 0, 0)], allow_interior_targets=True)[0]
        assert np.abs(u - (0, 1 / (2 * np.pi), 0)).max() <= 1e-15

    def test_hundred_thousand_random_pairs(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            w = rng.normal(size=3)
            src, node = one_node_source(rng.integers(0, 8, 3), w)
            tgt = node + rng.normal(size=(1000, 3)) * 2 + 0.5
            u = velocity_from_vorticity(src, tgt, allow_interior_targets=True)
            res = element_law_residuals(node, w, tgt, u, src.grid.cell_volume)
            worst = max(worst, *(r.max() for r in res))
        assert worst <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_identity_properties(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-3, 3, 3)
        src, node = one_node_source(rng.integers(0, 8, 3), w)
        tgt = node + rng.uniform(0.2, 2, 3)
        u = velocity_from_vorticity(src, [tgt], allow_interior_targets=True)
        for res in element_law_residuals(node, w, tgt, u, src.grid.cell_volume):
            assert res.max() <= 1e-12


def direct_sum(src, targets):
    """u(x1) = dV/(2 pi) sum (X,Y,Z) x (x1 - x) / |x1 - x|^3 over every node,
    one target at a time, the cross product written out in components."""
    x, y, z = src.positions().T
    w = src.values.reshape(-1, 3)
    out = []
    for t in targets:
        dx, dy, dz = t[0] - x, t[1] - y, t[2] - z
        r3 = (dx * dx + dy * dy + dz * dz) ** 1.5
        out.append([np.sum((w[:, 1] * dz - w[:, 2] * dy) / r3),
                    np.sum((w[:, 2] * dx - w[:, 0] * dz) / r3),
                    np.sum((w[:, 0] * dy - w[:, 1] * dx) / r3)])
    return np.array(out) * src.grid.cell_volume / (2 * np.pi)


class TestKernelBlocks:
    """The kernel walks tiles of TILE targets and blocks of BLOCK sources in
    coordinates centred on the source grid."""

    @pytest.mark.parametrize("count", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
    def test_partial_tiles_and_blocks_match_direct_sum(self, count):
        rng = np.random.default_rng(count)
        g = LabelGrid((20, 20, 20), (-0.65, -1.15, -0.85), (0.1,) * 3)  # centre (0.3, -0.2, 0.1)
        # small values keep the random field under the divergence gate
        vals = rng.uniform(-1e-3, 1e-3, g.shape + (3,))
        vals[rng.random(g.shape) < 0.3] = 0.0
        src = VorticitySource(g, vals, compact=False)
        carrying = int(np.count_nonzero(np.abs(vals).max(axis=-1) > 0))
        assert carrying > BLOCK and carrying % BLOCK
        v = rng.normal(size=(count, 3))
        targets = 2.5 * v / np.linalg.norm(v, axis=1)[:, None] + (0.3, -0.2, 0.1)
        u = velocity_from_vorticity(src, targets)
        want = direct_sum(src, targets)
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_node_source_fills_tall_tiles(self):
        # one carrying node: tiles of TILE * BLOCK targets, so 1e5 targets cost
        # four kernel products, not 12,500
        src, node = one_node_source((1, 6, 2), (0.3, -1.0, 0.7))
        targets = node + np.random.default_rng(3).normal(size=(100_000, 3)) * 2
        u = velocity_from_vorticity(src, targets, allow_interior_targets=True)
        d = targets - node
        want = (np.cross((0.3, -1.0, 0.7), d) / np.linalg.norm(d, axis=1)[:, None] ** 3
                * src.grid.cell_volume / (2 * np.pi))
        assert np.abs(u - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(velocity_from_vorticity(src, targets, allow_interior_targets=True), u)

    def test_translation_leaves_the_field_unchanged(self):
        src, _, _, _ = small_blob(32)
        ring = [(0.16 * np.cos(a), 0.16 * np.sin(a), 0.0)
                for a in np.linspace(0, 2 * np.pi, 16, endpoint=False)]
        g = src.grid
        moved = VorticitySource(LabelGrid(g.shape, tuple(o + 100 for o in g.origin), g.spacing),
                                src.values)
        u = velocity_from_vorticity(src, ring, allow_interior_targets=True)
        u_moved = velocity_from_vorticity(moved, np.add(ring, 100.0), allow_interior_targets=True)
        assert np.abs(u_moved - u).max() <= 1e-12 * np.abs(u).max()

    def test_gate_names_a_target_in_the_second_tile(self):
        # moved off the origin, so the message must undo the centring
        blob, _, _, _ = small_blob(32)
        g = blob.grid
        shift = np.array([1.0, 2.0, 3.0])
        src = VorticitySource(LabelGrid(g.shape, tuple(g.origin + shift), g.spacing), blob.values)
        near = shift + (0.0, 0.01, 0.02)
        targets = [shift + (1.3, 0.1 * k, 0.0) for k in range(TILE)] + [shift + (0, 1.3, 0), near]
        w = src.values.reshape(-1, 3)
        pos = src.positions()[np.abs(w).max(axis=1) > 1e-14]
        dmin = np.sqrt(((pos - near) ** 2).sum(axis=1).min())
        gate = 2.0 * min(g.spacing)
        msg = (f"target {near} within {dmin:.3e} of the vorticity support "
               f"(< {gate:.3e}); pass allow_interior_targets=True to override")
        with pytest.raises(ValueError, match=re.escape(msg)):
            velocity_from_vorticity(src, targets)
