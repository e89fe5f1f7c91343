"""Velocity reconstruction from vorticity by direct kernel summation.

A vorticity source is a spatial grid of half-curl components (X, Y, Z); the
full vorticity vector is 2*(X, Y, Z). The reconstructed velocity at a target
x1 is the quadrature sum of

    du = (1/(2 pi)) (X, Y, Z) x (x1 - x) / r^3  dV,

which is the r^-3 volume kernel of the unbounded-domain solution (compact
support makes every surface term vanish, and no harmonic correction grad P
or boundary solver ships). Summation is direct, O(sources x targets), and
stays auditable; it is evaluated as (sum inv w) x x1 - sum inv (w x x) with
inv = 1/r^3, in blocks of targets and sources that each cost one small
matrix product, in coordinates centred on the source grid. Source blocks,
built from their carrying nodes' flat indices, are the outer loop, so memory
does not grow with the source; each target adds them in ascending order.
The target tiles are shared between the calling thread and one helper
thread; each walks every source block with its own buffers, so the split
leaves every velocity bit-identical. The proximity gate runs first, as a
lattice query around each target. A source holds no full-grid array but
its values: ``from_callable`` and the divergence gate work on the same
slabs of whole axis-0 planes, and the kernel finds the carrying nodes
``BLOCK`` rows at a time.

Per element the contribution du is orthogonal to both the separation vector
and the rotation axis, with magnitude dV * Delta * sin(eps) / (2 pi r^2)
where Delta = |(X, Y, Z)| and eps the axis-to-separation angle; the tests
grade those three identities on this kernel with one-node sources.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .grids import BLOCK, LabelGrid, _diff_along_axis0, _plane_slabs, _slab_axis0_diff

__all__ = [
    "VorticitySource",
    "velocity_from_vorticity",
    "gaussian_swirl_blob",
]

COMPACT_TOL = 1e-14
# targets x sources per kernel block. Both axes are blocked so that the two
# work buffers stay at 8 x 4096 float64 = 256 KiB each: on the 64^3 blob,
# tiles of 8 or 32 targets across all ~94k sources raised a process's peak
# RSS from 53 to 62 or 98 MiB. With fewer than BLOCK carrying sources the
# tile grows to fill the same buffers (TILE * (BLOCK // sources) targets),
# so few sources do not cost one small product per 8 targets. The sizes fix
# the order of the sums, so outputs repeat bit for bit, on one thread or
# two. Each thread of the sum holds these two buffers, a block's (BLOCK, 6)
# right-hand side, its coordinates and two index buffers: 0.84 MiB. On the
# 64^3 blob at 512 targets the call rises 1.86-1.90 MiB with two threads
# (where both threads' transients meet) and 0.99 MiB with one (tracemalloc).
TILE = 8
# targets nearer than this many grid cells to the support raise
MIN_DISTANCE_CELLS = 2.0


@dataclass
class VorticitySource:
    """Half-vorticity samples (X, Y, Z) on a spatial grid.

    The grid is interpreted as node positions in space (for cell-centred
    lattices build the grid so nodes sit at cell centers). Construction
    verifies compact support (|field| <= 1e-14 within 2 cells of every
    boundary) and that the discrete divergence is small (O(h^2) gate); the
    divergence is taken slab by slab (``_divergence_linf``), and its
    maximum is kept as ``divergence_linf``.
    """

    grid: LabelGrid
    values: np.ndarray  # grid.shape + (3,)
    compact: bool = True
    divergence_gate: float = 120.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape + (3,):
            raise ValueError("vorticity values must be grid.shape + (3,)")
        if self.grid.ndim != 3:
            raise ValueError("vorticity sources need a 3-axis grid")
        self.values = vals

        def peak(a):  # max |component| of a without an |a| temporary; NaN propagates
            return float(np.maximum(a.max(), -a.min()))
        if self.compact:
            # the nodes within 2 cells of the boundary are the six 2-plane faces
            worst = float(np.max([peak(np.moveaxis(vals, k, 0)[face]) for k in range(3)
                                  for face in (slice(None, 2), slice(-2, None))]))
            if worst > COMPACT_TOL:
                raise ValueError(
                    f"source not compact: |field| reaches {worst:.3e} within "
                    f"2 cells of the boundary (gate {COMPACT_TOL:g})"
                )
        top = peak(vals)
        if not np.isfinite(top):
            raise ValueError("non-finite values in field")
        h2 = max(self.grid.spacing) ** 2
        scale = max(1.0, top)
        self.divergence_linf = _divergence_linf(vals, self.grid)
        if not self.divergence_linf <= self.divergence_gate * h2 * scale:
            raise ValueError(
                f"discrete divergence {self.divergence_linf:.3e} exceeds the "
                f"O(h^2) gate for a valid vorticity field"
            )

    @classmethod
    def from_callable(cls, fn, grid, **kw):
        """The source of ``fn``'s values at the grid nodes. ``fn`` must be
        pointwise, (..., 3) positions to (..., 3) values: it is evaluated on
        slabs of whole axis-0 planes, as many as fit in ``BLOCK`` nodes."""
        vals = np.empty(grid.shape + (3,))
        for sl in _plane_slabs(grid):
            part = np.asarray(fn(grid._node_planes(sl)), dtype=float)
            if part.shape != vals[sl].shape:
                raise ValueError("vorticity values must be grid.shape + (3,)")
            vals[sl] = part
        return cls(grid, vals, **kw)


def _divergence_linf(vals, grid):
    """max |div vals| over the grid (order-2 stencil), without a whole-grid plane.

    Per slab of ``grids._plane_slabs``, the axis-0 derivative of the first
    component is taken by ``grids._slab_axis0_diff`` over the slab plus a
    1-plane halo; the other two derivatives need no halo. Each goes through
    ``_diff_along_axis0`` as in ``differentiate``, and they are summed in
    ``divergence``'s order, so each node's value is the whole-grid one bit
    for bit. Differencing all three components over a 2-plane halo instead
    cost 5x the whole-grid work on the 64^3 blob's one-plane slabs.
    """
    worst = 0.0
    for sl in _plane_slabs(grid):
        _, div = _slab_axis0_diff(lambda rows: vals[rows, ..., 0], grid, sl)
        for k in (1, 2):
            moved = np.moveaxis(vals[sl, ..., k], k, 0)
            div += np.moveaxis(_diff_along_axis0(moved, grid.spacing[k], 2, grid.periodic[k]), 0, k)
        worst = float(np.maximum(worst, np.abs(div, out=div).max()))  # NaN propagates
    return worst


def _carrying(rows, out=None):
    """Which rows of ``rows`` (k, 3) carry vorticity: a component above
    ``COMPACT_TOL`` in magnitude. Nodes below it contribute nothing, and
    dropping them keeps the kernel finite at far-field nodes that happen to
    hit a target. The sum and the proximity gate both ask this."""
    beyond = (rows > COMPACT_TOL) | (rows < -COMPACT_TOL)
    out = np.logical_or(beyond[..., 0], beyond[..., 1], out=out)  # any(axis=-1) is 4x slower
    out |= beyond[..., 2]
    return out


def _carrying_mask(w):
    """``_carrying`` of all rows of ``w`` (N, 3), built ``BLOCK`` rows at a
    time into one bool array, with no (N, 3) temporaries."""
    mask = np.empty(len(w), dtype=bool)
    for i0 in range(0, len(w), BLOCK):
        _carrying(w[i0:i0 + BLOCK], out=mask[i0:i0 + BLOCK])
    return mask


def _source_blocks(w, idx):
    """The flat indices of the carrying rows of ``w`` (N, 3), ascending, in
    blocks of ``BLOCK`` (the last one partial) written into ``idx`` and
    yielded as views of it. Rows are tested ``BLOCK`` at a time, so neither
    a mask nor an index of all N rows is held; each test finds at most
    ``BLOCK`` rows, so it fills at most one block."""
    fill = 0
    for i0 in range(0, len(w), BLOCK):
        found = np.flatnonzero(_carrying(w[i0:i0 + BLOCK]))
        found += i0
        k = min(BLOCK - fill, found.size)
        idx[fill:fill + k] = found[:k]
        fill += k
        if fill == BLOCK:
            yield idx
            fill = found.size - k
            idx[:fill] = found[k:]
    if fill:
        yield idx[:fill]


def _sweep(w, shape, axes, t, acc, width, first, step):
    """Add every source block, in ascending order, into the rows of ``acc``
    of target tiles ``first``, ``first + step``, ...: one thread's share of
    the sum. ``width`` = min(``BLOCK``, carrying nodes) fixes the tile
    height, ``TILE * (BLOCK // width)`` targets. All work buffers are
    allocated here once. A block of n sources views the r^2 and 1/r^3
    buffers as contiguous (rows, n) arrays, so ``np.dot`` does not copy a
    partial block's strided rows; before the tiles run, the block's gathered
    values and its cross-product scratch borrow their start."""
    rows = TILE * (BLOCK // width)
    idx, cell = np.empty(width, dtype=np.intp), np.empty(width, dtype=np.intp)
    p, rhs = np.empty((3, width)), np.empty((width, 6))
    r2, inv, prod = np.empty((rows, width)), np.empty((rows, width)), np.empty((rows, 6))
    tiles = [(t[i0:i0 + rows, :1], t[i0:i0 + rows, 1:2], t[i0:i0 + rows, 2:], acc[i0:i0 + rows])
             for i0 in range(first * rows, len(t), step * rows)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # far targets: r^2 overflows and 1/r^3 is 0. r^3 underflows to 0 only
        # for an interior target within ~1e-108 of a node; r = 0 raises in the gate
        for blk in _source_blocks(w, idx):
            n = len(blk)
            r2n, invn = (buf.reshape(-1)[:rows * n].reshape(rows, n) for buf in (r2, inv))
            wb, tmp = r2n.reshape(-1)[:3 * n].reshape(n, 3), invn[0]
            np.take(w, blk, axis=0, out=wb, mode="clip")  # indices are in range
            rhs[:n, :3] = wb
            for k in (2, 1, 0):  # np.unravel_index, in place: axis 2 varies fastest
                np.remainder(blk, shape[k], out=cell[:n])
                np.take(axes[k], cell[:n], out=p[k, :n], mode="clip")
                np.floor_divide(blk, shape[k], out=blk)
            bx, by, bz = p[:, :n]
            for col, (i, j) in enumerate(((1, 2), (2, 0), (0, 1)), start=3):
                # w x p as np.cross computes it: w_i p_j - w_j p_i
                np.multiply(rhs[:n, i], p[j, :n], out=rhs[:n, col])
                np.multiply(rhs[:n, j], p[i, :n], out=tmp)
                np.subtract(rhs[:n, col], tmp, out=rhs[:n, col])
            for tx, ty, tz, out in tiles:
                a, b = r2n[:len(tx)], invn[:len(tx)]
                np.subtract(tx, bx, out=a)
                a *= a
                for tc, pc in ((ty, by), (tz, bz)):
                    np.subtract(tc, pc, out=b)
                    b *= b
                    a += b
                np.sqrt(a, out=b)
                b *= a
                np.divide(1.0, b, out=b)
                # np.dot, not @: both call the same dgemm, but the matmul
                # gufunc keeps the GIL through it
                out += np.dot(b, rhs[:n], out=prod[:len(tx)])


def _uses_helper(tiles):
    """Whether the sum over ``tiles`` target tiles is shared with a helper
    thread: only with at least two tiles and more than one CPU."""
    return tiles >= 2 and (os.cpu_count() or 1) > 1


def _support_r2min(mask, count, g, axes, t, gate):
    """Per centred target, the least r^2 to a carrying node (``mask``, one
    bool per grid node, ``count`` of them set) within ceil(gate / h_k) + 1
    cells of it along each axis k, or inf where there is none. Every
    carrying node nearer than ``gate`` lies in that window, and r^2 is
    formed as in the sum, ((dx^2 + dy^2) + dz^2) from the same centred
    coordinates, so below the gate this is the all-nodes minimum bit for
    bit. The window is the outer sum of its three axes' cells, each clipped
    onto the grid and marked where it was off, so a far target's window
    holds no node. With fewer carrying nodes than a window holds, every
    carrying node is a candidate instead. Targets go in chunks of at most
    4 * ``BLOCK`` candidates."""
    reach = [int(np.ceil(gate / h)) + 1 for h in g.spacing]
    window = int(np.prod([2 * m + 1 for m in reach]))
    nodes = np.unravel_index(np.flatnonzero(mask), g.shape) if count < window else None
    r2min = np.empty(len(t))
    chunk = max(1, 4 * BLOCK // min(count, window))
    with np.errstate(over="ignore"):  # far targets: their r^2 is never kept
        for i0 in range(0, len(t), chunk):
            tc = t[i0:i0 + chunk]
            r2, keep, flat = 0.0, True, 0
            for k, (m, n, a) in enumerate(zip(reach, g.shape, axes)):
                if nodes is None:
                    cell = np.floor((tc[:, k] - a[0]) / g.spacing[k])
                    np.clip(cell, -m - 1, n + m, out=cell)  # from here the window is off the grid
                    shape = [len(tc), 1, 1, 1]
                    shape[k + 1] = 2 * m + 1
                    near = (cell.astype(np.intp)[:, None] + np.arange(-m, m + 1)).reshape(shape)
                    on = (near >= 0) & (near < n)
                    np.clip(near, 0, n - 1, out=near)
                else:
                    near, on = nodes[k][None, :], True
                d = tc[:, k].reshape((-1,) + (1,) * (near.ndim - 1)) - a[near]
                d *= d
                r2 = r2 + d  # 0.0 + dx^2 is dx^2
                keep = keep & on
                flat = flat * n + near
            keep &= mask[flat]
            np.copyto(r2, np.inf, where=~keep)
            r2.reshape(len(tc), -1).min(axis=1, out=r2min[i0:i0 + chunk])
    return r2min


def velocity_from_vorticity(src, targets, allow_interior_targets=False):
    """Direct-sum reconstruction of the velocity at each target point.

    The sum is direct, O(sources x targets), written through the split
    sum_j inv_ij w_j x (t_i - p_j) = (sum_j inv_ij w_j) x t_i
    - sum_j inv_ij (w_j x p_j), inv_ij = 1/r_ij^3: per tile of ``TILE``
    targets (more when fewer than ``BLOCK`` nodes carry vorticity) and block
    of ``BLOCK`` sources, r^2 comes from explicit coordinate differences and
    one ``np.dot(inv, [w | w x p])`` product replaces the per-pair cross
    products. Coordinates are centred on the source grid, since the split's
    round-off grows with |t|/r. Each target adds the source blocks in
    ascending order, so its sum order is fixed and repeated calls are
    bit-identical. ``targets`` are points with 3 finite coordinates (others
    raise a ValueError); no targets give a (0, 3) result.

    With two tiles or more and more than one CPU, the tiles are split
    between the calling thread and one helper thread, tile k to thread
    k % 2 (``_sweep``). Each thread walks every source block itself, with
    its own buffers, so tile shapes and each target's block order are those
    of one thread and the velocities are the same bit for bit. The threads
    overlap only where numpy releases the GIL: in the ufunc loops and in
    ``np.dot``'s dgemm (the ``@`` gufunc holds it). The helper is always
    joined before the call returns, and an exception raised in it is
    re-raised here.

    Targets closer than ``MIN_DISTANCE_CELLS * h`` to any node carrying
    non-negligible vorticity raise, unless ``allow_interior_targets`` is set
    (no self-singularity handling ships: interior targets work on lattices
    that keep targets off the nodes, at the cost of a locally first-order
    kernel error that symmetric placement largely cancels). This gate runs
    before the sum, as a lattice query over the carrying nodes a few cells
    around each target (``_support_r2min``).
    """
    tgts = np.asarray(targets, dtype=float)
    tgts = tgts.reshape(0, 3) if tgts.shape == (0,) else np.atleast_2d(tgts)
    if tgts.ndim != 2 or tgts.shape[1] != 3:
        raise ValueError(f"targets must be points with 3 coordinates, got shape "
                         f"{np.shape(targets)}")
    if not np.isfinite(tgts).all():
        raise ValueError(f"target {tgts[~np.isfinite(tgts).all(axis=1)][0]} is not finite")
    g = src.grid
    centre = np.asarray(g.origin) + (np.asarray(g.shape) - 1) / 2 * np.asarray(g.spacing)
    w = src.values.reshape(-1, 3)
    mask = _carrying_mask(w)
    count = int(np.count_nonzero(mask))
    axes = [g.axis_coords(k) - centre[k] for k in range(3)]  # centred as the targets
    gate = MIN_DISTANCE_CELLS * min(g.spacing)
    out = np.zeros((tgts.shape[0], 3))
    if count:
        t = tgts - centre
        dmin = np.sqrt(_support_r2min(mask, count, g, axes, t, gate))
        del mask  # the sum streams its blocks from ``w``
        hit = dmin == 0.0 if allow_interior_targets else dmin < gate
        if hit.any():
            i = int(hit.argmax())
            if dmin[i] == 0.0:
                raise ValueError(f"target {tgts[i]} coincides with a vorticity-carrying node")
            raise ValueError(
                f"target {tgts[i]} within {dmin[i]:.3e} of the vorticity support "
                f"(< {gate:.3e}); pass allow_interior_targets=True to override"
            )
        acc = np.zeros((len(t), 6))
        width = min(BLOCK, count)
        args = (w, g.shape, axes, t, acc, width)
        helper, failed = None, []
        if _uses_helper(-(-len(t) // (TILE * (BLOCK // width)))):
            def share():
                try:
                    _sweep(*args, 1, 2)
                except BaseException as exc:  # re-raised by the caller
                    failed.append(exc)
            helper = threading.Thread(target=share, name="biotsavart-sweep", daemon=True)
            helper.start()
        try:
            _sweep(*args, 0, 2 if helper else 1)
        finally:
            if helper is not None:
                helper.join()
        if failed:
            raise failed[0]
        out = (np.cross(acc[:, :3], t) - acc[:, 3:]) * (g.cell_volume / (2 * np.pi))
    return out


def gaussian_swirl_blob(sigma=0.105, amplitude=0.01, n=64, box=1.0):
    """Divergence-free Gaussian vortex blob aligned with z, plus its exact field.

    Built from the streamfunction chi = A exp(-|x|^2 / (2 sigma^2)):
    the velocity u = (d chi/dy, -d chi/dx, 0) is an azimuthal swirl with
    Gaussian envelope, and its half-curl is

        (X, Y, Z) = 1/2 (x z / s^4, y z / s^4, 2/s^2 - (x^2+y^2)/s^4) chi,

    exactly divergence-free and axial-dominated near the core (the cap
    components are the return vorticity any compact blob must carry).
    Returns (source, u_exact, half_vorticity_fn, midplane_half_vorticity):
    the last is Z(s) on the z=0 plane, the integrand of the radial swirl
    oracle u_theta(r) = (1/r) * integral_0^r 2 Z(s) s ds.

    Nodes sit at cell centers of a (2*box)^3 cube so generic targets stay a
    fixed fraction of h away from every node at all resolutions.
    """
    s2 = sigma * sigma

    def chi(p):
        r2 = np.einsum("...i,...i->...", p, p)
        return amplitude * np.exp(-r2 / (2 * s2))

    def u_exact(p):
        c = chi(p)
        return np.stack([-p[..., 1] / s2 * c, p[..., 0] / s2 * c,
                         np.zeros_like(c)], axis=-1)

    def half_vorticity(p):
        c = chi(p)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return 0.5 * np.stack([x * z / s2 ** 2 * c, y * z / s2 ** 2 * c,
                               (2.0 / s2 - (x ** 2 + y ** 2) / s2 ** 2) * c], axis=-1)

    def midplane_half_vorticity(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * (2.0 / s2 - r * r / s2 ** 2) * amplitude * np.exp(-r * r / (2 * s2))

    h = 2 * box / n
    grid = LabelGrid((n, n, n), (-box + h / 2,) * 3, (h,) * 3)
    # sigma/h is deliberately marginal at n=32 (compactness caps sigma), so
    # the truncation constant of the divergence check is large; the gate is
    # widened accordingly while keeping its O(h^2) scaling
    src = VorticitySource.from_callable(half_vorticity, grid, divergence_gate=200.0)
    return src, u_exact, half_vorticity, midplane_half_vorticity
