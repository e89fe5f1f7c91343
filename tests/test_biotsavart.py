"""Velocity reconstruction from vorticity and the element-law identities."""

import re
import threading
import tracemalloc
import warnings

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
from flowmaplab import biotsavart, grids
from flowmaplab.biotsavart import BLOCK, COMPACT_TOL, TILE
from flowmaplab.grids import differentiate, divergence


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


def full_plane_gate_inputs(vals):
    """The rim maximum and the divergence scale by the full-plane formula:
    per-node max |component|, then its maximum over the nodes within 2 cells
    of the boundary (a boolean rim mask) and over all nodes."""
    mag = np.abs(vals).max(axis=-1)
    rim = np.ones(mag.shape, dtype=bool)
    rim[2:-2, 2:-2, 2:-2] = False
    return float(mag[rim].max()), max(1.0, float(mag.max()))


class TestSourceConstruction:
    def test_from_callable_slabs_match_whole_grid(self):
        # 67 planes of 64 nodes: slabs of 64 planes, then one of 3
        g = LabelGrid((67, 8, 8), (-0.3, 0.2, -0.9), (0.05, 0.11, 0.07))
        seen = []

        def fn(p):
            seen.append(p.shape)
            return np.stack([np.sin(3 * p[..., 1]) * p[..., 2], np.exp(-p[..., 0] ** 2),
                             p[..., 0] * p[..., 1] - np.cos(p[..., 2])], axis=-1)

        src = VorticitySource.from_callable(fn, g, compact=False, divergence_gate=np.inf)
        assert seen == [(64, 8, 8, 3), (3, 8, 8, 3)]
        assert np.array_equal(src.values, fn(g.nodes3().reshape(g.shape + (3,))))

    # 11 planes of 30 nodes: BLOCK -> the number of slabs. One plane each
    # (the end slabs' windows keep 3 planes), 2 and 3 planes with a partial
    # last slab, 5 and 10 planes (a first slab whose halo reaches the far
    # end), and one slab touching both ends
    SLABS = [(30, 11), (60, 6), (90, 4), (150, 3), (300, 2), (330, 1)]

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("block, slabs", SLABS)
    def test_slab_divergence_gate_is_the_whole_grid_maximum(self, monkeypatch, periodic,
                                                            block, slabs):
        # the field is raised tenfold around each plane in turn, so the
        # maximum sits at every plane of every slab once, ends included
        g = LabelGrid((11, 6, 5), (-0.3, 0.2, -0.9), (0.05, 0.11, 0.07), (periodic, True, False))
        base = np.random.default_rng(7).normal(size=g.shape + (3,))
        monkeypatch.setattr(grids, "BLOCK", block)
        assert len(grids._plane_slabs(g)) == slabs
        for plane in range(g.shape[0]):
            vals = base.copy()
            vals[plane] *= 10
            whole = float(np.abs(divergence(vals, StencilSpec(order=2), grid=g)).max())
            src = VorticitySource(g, vals, compact=False, divergence_gate=np.inf)
            assert src.divergence_linf == whole, plane

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        g = LabelGrid((8, 8, 8), (-1, -1, -1), (2 / 7,) * 3)
        vals = np.zeros(g.shape + (3,))
        vals[4, 3, 5, 1] = bad
        with pytest.raises(ValueError, match="non-finite values in field"):
            VorticitySource(g, vals)

    def test_divergence_gate_fails_a_nan(self):
        # d/dx of component 0 is +inf and d/dy of component 1 is -inf at node
        # (3, 3, 3), so its divergence is NaN; the gate itself is inf
        g = LabelGrid((8, 8, 8), (-1, -1, -1), (0.25,) * 3)
        vals = np.zeros(g.shape + (3,))
        vals[4, 3, 3, 0], vals[2, 3, 3, 0] = 1e308, -1e308
        vals[3, 4, 3, 1], vals[3, 2, 3, 1] = -1e308, 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(biotsavart._divergence_linf(vals, g))
            with pytest.raises(ValueError, match="exceeds the O\\(h\\^2\\) gate"):
                VorticitySource(g, vals)

    def test_blob_divergence_gate_is_the_whole_grid_maximum(self):
        # 32 planes of 1024 nodes: 8 slabs of 4 planes
        src, _, _, _ = small_blob(32)
        assert len(grids._plane_slabs(src.grid)) == 8
        div = divergence(src.values, StencilSpec(order=2), grid=src.grid)
        assert src.divergence_linf == float(np.abs(div).max())

    def test_from_callable_rejects_values_of_another_shape(self):
        g = LabelGrid((8, 8, 8), (-1, -1, -1), (2 / 7,) * 3)
        with pytest.raises(ValueError, match=re.escape("grid.shape + (3,)")):
            VorticitySource.from_callable(lambda p: p[..., :2], g)

    # nodes on each face of a (5, 8, 9) grid, and nodes just inside the rim
    RIM = [(0, 4, 4), (1, 3, 5), (4, 4, 4), (3, 2, 2), (2, 0, 4), (2, 1, 6), (2, 7, 4),
           (2, 6, 2), (2, 4, 0), (3, 5, 1), (2, 4, 8), (1, 2, 7)]
    INSIDE = [(2, 2, 2), (2, 5, 6), (2, 3, 4)]

    @pytest.mark.parametrize("node", RIM + INSIDE)
    def test_rim_gate_decides_as_the_full_plane_formula(self, node):
        g = LabelGrid((5, 8, 9), (-1, -1, -1), (0.5,) * 3)
        for value in (np.nextafter(COMPACT_TOL, 0), COMPACT_TOL, np.nextafter(COMPACT_TOL, 1), 1.0):
            vals = np.zeros(g.shape + (3,))
            vals[node + (sum(node) % 3,)] = value if sum(node) % 2 else -value
            worst, _ = full_plane_gate_inputs(vals)
            assert (worst > COMPACT_TOL) == (node in self.RIM and value > COMPACT_TOL)
            if worst > COMPACT_TOL:
                msg = f"|field| reaches {worst:.3e} within 2 cells"
                with pytest.raises(ValueError, match=re.escape(msg)):
                    VorticitySource(g, vals)
            else:
                VorticitySource(g, vals)

    @pytest.mark.parametrize("peak", [0.5, 3.7, -3.7])
    def test_divergence_gate_decides_as_the_full_plane_formula(self, peak):
        # the gate is set one float either side of where the full-plane
        # scale puts the decision
        g = LabelGrid((8, 8, 8), (-1, -1, -1), (2 / 7,) * 3)
        vals = np.random.default_rng(5).uniform(-0.2, 0.2, g.shape + (3,))
        vals[3, 4, 2, 1] = peak
        _, scale = full_plane_gate_inputs(vals)
        linf = VorticitySource(g, vals, compact=False, divergence_gate=np.inf).divergence_linf
        h2 = max(g.spacing) ** 2
        gate = linf / (h2 * scale)
        while linf > gate * h2 * scale:
            gate = np.nextafter(gate, np.inf)
        VorticitySource(g, vals, compact=False, divergence_gate=gate)
        below = np.nextafter(gate, 0)
        while not linf > below * h2 * scale:
            below = np.nextafter(below, 0)
        with pytest.raises(ValueError, match="exceeds the O\\(h\\^2\\) gate"):
            VorticitySource(g, vals, compact=False, divergence_gate=below)


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


class TestTargets:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        src, _, _, _ = small_blob(32)
        targets = [(1.3, 0.2, 0.1), (bad, 0.0, 0.0)]
        with pytest.raises(ValueError, match=re.escape(f"target {np.array([bad, 0.0, 0.0])} "
                                                       "is not finite")):
            velocity_from_vorticity(src, targets)

    @pytest.mark.parametrize("targets", [[[2.0, 0.0]], [2.0, 0.0], [[[2.0, 0.0, 0.0]]],
                                         [[2.0, 0.0, 0.0, 1.0]]])
    def test_targets_without_three_coordinates_rejected(self, targets):
        src, _, _, _ = small_blob(32)
        with pytest.raises(ValueError, match="targets must be points with 3 coordinates"):
            velocity_from_vorticity(src, targets)

    @pytest.mark.parametrize("targets", [[], np.zeros((0, 3))])
    def test_no_targets_give_no_velocities(self, targets):
        src, _, _, _ = small_blob(32)
        u = velocity_from_vorticity(src, targets)
        assert u.shape == (0, 3)

    def test_one_point_is_one_target(self):
        src, _, _, _ = small_blob(32)
        t = (1.3, 0.2, 0.1)
        assert np.array_equal(velocity_from_vorticity(src, t), velocity_from_vorticity(src, [t]))


class TestMemory:
    """tracemalloc rise above the memory at entry on the 64^3 blob: the
    source is built and its divergence gated plane by plane, and the direct
    sum streams its source blocks, so neither holds an (N, 3) array of the
    93,840 carrying nodes (2.1 MiB each) nor a whole 64^3 component plane
    (2 MiB)."""

    MIB = 2 ** 20

    @staticmethod
    def rise(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_blob_build(self):
        # the 6 MiB of values plus one slab's divergence planes (6.4 MiB)
        rise = self.rise(lambda: gaussian_swirl_blob(n=64))
        assert rise <= 7 * self.MIB, f"rose {rise / self.MIB:.2f} MiB"

    def test_kernel_at_512_exterior_targets(self):
        # the two threads' buffers of the direct sum, 0.84 MiB each: 1.86 to
        # 1.90 MiB measured on one machine; the blocked carrying mask stays below
        src, _, _, _ = gaussian_swirl_blob(n=64)
        v = np.random.default_rng(1).normal(size=(512, 3))
        radius = np.random.default_rng(2).uniform(1.15, 1.6, 512)
        targets = radius[:, None] * v / np.linalg.norm(v, axis=1)[:, None]
        rise = self.rise(lambda: velocity_from_vorticity(src, targets))
        assert rise <= 2 * self.MIB, f"rose {rise / self.MIB:.2f} MiB"


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
    x, y, z = src.grid.nodes3().T
    w = src.values.reshape(-1, 3)
    out = []
    for t in targets:
        dx, dy, dz = t[0] - x, t[1] - y, t[2] - z
        r3 = (dx * dx + dy * dy + dz * dz) ** 1.5
        out.append([np.sum((w[:, 1] * dz - w[:, 2] * dy) / r3),
                    np.sum((w[:, 2] * dx - w[:, 0] * dz) / r3),
                    np.sum((w[:, 0] * dy - w[:, 1] * dx) / r3)])
    return np.array(out) * src.grid.cell_volume / (2 * np.pi)


def forced_one_thread(monkeypatch, call):
    """Run ``call()`` as the module decides, recording each ``_sweep``'s
    (first, step) share, then again with the helper thread ruled out. Returns
    both results and the first run's shares, sorted."""
    shares = []
    sweep = biotsavart._sweep

    def recorded(*args):
        shares.append(args[-2:])
        return sweep(*args)

    monkeypatch.setattr(biotsavart, "_sweep", recorded)
    shared = call()
    split = sorted(shares)
    monkeypatch.setattr(biotsavart, "_uses_helper", lambda tiles: False)
    shares.clear()
    alone = call()
    assert shares == [(0, 1)]
    return shared, alone, split


class TestKernelBlocks:
    """The kernel walks tiles of TILE targets and blocks of BLOCK sources in
    coordinates centred on the source grid."""

    @pytest.mark.parametrize("count", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1, 5 * TILE + 3])
    def test_partial_tiles_and_blocks_match_direct_sum(self, monkeypatch, count):
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
        u, alone, split = forced_one_thread(monkeypatch, lambda: velocity_from_vorticity(src, targets))
        assert split == ([(0, 2), (1, 2)] if count > TILE else [(0, 1)])
        assert np.array_equal(u, alone)
        want = direct_sum(src, targets)
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()

    def test_blocked_carrying_mask_is_the_whole_array_mask(self, monkeypatch):
        # blocks of 100 rows, the last one partial; rows of zeros, and rows
        # at the tolerance and one float above it, of both signs
        rng = np.random.default_rng(11)
        g = LabelGrid((12, 10, 9), (-0.55, -0.45, -0.4), (0.1,) * 3)
        vals = rng.uniform(-1e-3, 1e-3, g.shape + (3,))
        vals[rng.random(g.shape) < 0.3] = 0.0
        w = vals.reshape(-1, 3)
        above = np.nextafter(COMPACT_TOL, 1)
        w[[7, 257, 507, 757]] = 0.0
        w[7, 0], w[257, 2], w[507, 1], w[757, 1] = -COMPACT_TOL, COMPACT_TOL, above, -above
        src = VorticitySource(g, vals, compact=False, divergence_gate=np.inf)
        whole = ((w > COMPACT_TOL) | (w < -COMPACT_TOL)).any(axis=1)
        assert not whole[[7, 257]].any() and whole[[507, 757]].all()
        monkeypatch.setattr(biotsavart, "BLOCK", 100)
        assert len(w) > 100 and len(w) % 100
        assert np.array_equal(biotsavart._carrying_mask(src.values.reshape(-1, 3)), whole)
        # the source blocks: 100 carrying rows each, ascending, the last partial
        blocks = [b.copy() for b in biotsavart._source_blocks(w, np.empty(100, dtype=np.intp))]
        assert [len(b) for b in blocks[:-1]] == [100] * (len(blocks) - 1) and 0 < len(blocks[-1]) < 100
        assert np.array_equal(np.concatenate(blocks), np.flatnonzero(whole))

    def test_one_node_source_fills_tall_tiles(self, monkeypatch):
        # one carrying node: tiles of TILE * BLOCK targets, so 1e5 targets cost
        # four kernel products, not 12,500, two on each thread
        src, node = one_node_source((1, 6, 2), (0.3, -1.0, 0.7))
        targets = node + np.random.default_rng(3).normal(size=(100_000, 3)) * 2
        u, alone, split = forced_one_thread(
            monkeypatch, lambda: velocity_from_vorticity(src, targets, allow_interior_targets=True))
        assert split == [(0, 2), (1, 2)] and np.array_equal(u, alone)
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
        pos = src.grid.nodes3()[np.abs(w).max(axis=1) > 1e-14]
        dmin = np.sqrt(((pos - near) ** 2).sum(axis=1).min())
        gate = 2.0 * min(g.spacing)
        msg = (f"target {near} within {dmin:.3e} of the vorticity support "
               f"(< {gate:.3e}); pass allow_interior_targets=True to override")
        with pytest.raises(ValueError, match=re.escape(msg)):
            velocity_from_vorticity(src, targets)


class TestThreadSplit:
    """With two tiles or more the sum is shared between the caller and one
    helper thread, tile k to thread k % 2; the velocities are those of one
    thread bit for bit (also graded in ``TestKernelBlocks``)."""

    def test_ring_on_the_64_cubed_blob(self, monkeypatch):
        src, _, _, _ = gaussian_swirl_blob(n=64)
        ring = [(0.16 * np.cos(a), 0.16 * np.sin(a), 0.0)
                for a in np.linspace(0, 2 * np.pi, 64, endpoint=False)]
        shared, alone, split = forced_one_thread(
            monkeypatch, lambda: velocity_from_vorticity(src, ring, allow_interior_targets=True))
        assert split == [(0, 2), (1, 2)]
        assert np.array_equal(shared, alone)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        src, _, _, _ = small_blob(32)
        sweep = biotsavart._sweep

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")
            return sweep(*args)

        monkeypatch.setattr(biotsavart, "_sweep", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            velocity_from_vorticity(src, [(1.3, 0.1 * k, 0.1) for k in range(3 * TILE)])
        assert threading.active_count() == before


def brute_r2min(src, t):
    """The least r^2 from each centred target to every carrying node, formed
    as the sum forms it: ((dx^2 + dy^2) + dz^2)."""
    g = src.grid
    centre = np.asarray(g.origin) + (np.asarray(g.shape) - 1) / 2 * np.asarray(g.spacing)
    w = src.values.reshape(-1, 3)
    p = (g.nodes3() - centre)[np.abs(w).max(axis=1) > COMPACT_TOL]
    out = []
    with np.errstate(over="ignore"):  # far targets
        for x in t:
            d = x - p
            d *= d
            out.append(((d[:, 0] + d[:, 1]) + d[:, 2]).min())
    return np.array(out)


class TestLatticeGate:
    """The proximity gate looks only at the carrying nodes within
    ceil(gate / h_k) + 1 cells of each target (at all of them when fewer
    carry than such a window holds); below the gate its distance is the
    minimum over all carrying nodes bit for bit."""

    @staticmethod
    def gate_inputs(src):
        g = src.grid
        centre = np.asarray(g.origin) + (np.asarray(g.shape) - 1) / 2 * np.asarray(g.spacing)
        mask = biotsavart._carrying_mask(src.values.reshape(-1, 3))
        axes = [g.axis_coords(k) - centre[k] for k in range(3)]
        return mask, g, axes, 2.0 * min(g.spacing)

    # a sparse support has fewer carrying nodes than a window holds, so its
    # candidates are the nodes themselves; a dense one is queried by windows
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("spacing", [(0.25, 0.25, 0.25), (0.25, 0.5, 0.125), (0.1, 0.37, 0.05)])
    def test_matches_the_brute_force_minimum(self, spacing, dense):
        rng = np.random.default_rng(7)
        shape, support = ((16, 14, 18), (slice(2, 14), slice(2, 12), slice(2, 16))) if dense else \
            ((9, 7, 11), (slice(2, 7), slice(2, 5), slice(3, 8)))
        g = LabelGrid(shape, tuple(-4 * h for h in spacing), spacing)
        vals = np.zeros(g.shape + (3,))
        vals[support] = rng.uniform(-1e-3, 1e-3, vals[support].shape)
        vals[rng.random(g.shape) < (0.3 if dense else 0.5)] = 0.0
        src = VorticitySource(g, vals, compact=False, divergence_gate=np.inf)
        mask, g, axes, gate = self.gate_inputs(src)
        window = np.prod([2 * np.ceil(gate / h) + 3 for h in spacing])
        assert (mask.sum() >= window) == dense
        lo, hi = axes[0][0], axes[0][-1]
        node = np.array([a[i] for a, i in zip(axes, np.unravel_index(mask.argmax(), g.shape))])
        t = np.concatenate([
            rng.uniform(lo - 1, hi + 1, (400, 3)),  # near, inside and off the grid
            node + rng.uniform(-gate, gate, (200, 3)),
            [node, node + (gate, 0, 0), node - (0, 0, gate), node + (0, 1.5 * gate, 0)],
            [(1e300, 0, 0), (-1e300, 1e300, 3), (2.0, -1e300, -1e300)],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = biotsavart._support_r2min(mask, int(mask.sum()), g, axes, t, gate)
        want = brute_r2min(src, t)
        near = np.sqrt(want) < gate
        assert near.sum() > 100
        assert np.array_equal(got[near], want[near])
        assert np.all(np.sqrt(got[~near]) >= gate) and np.all(got[~near] >= want[~near])
        assert np.all(got[-3:] == np.inf)

    def test_target_exactly_at_the_gate_passes(self):
        src, node = one_node_source((3, 4, 2), (0.0, 0.0, 1.0))
        gate = 2.0 * src.grid.spacing[0]
        u = velocity_from_vorticity(src, [node + (gate, 0.0, 0.0)])
        assert np.isfinite(u).all()
        with pytest.raises(ValueError, match=re.escape("within 1.000e+00 of the vorticity support")):
            velocity_from_vorticity(src, [node + (np.nextafter(gate, 0), 0.0, 0.0)])
