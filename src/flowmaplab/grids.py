"""Structured label-space grids, sampled fields, and finite-difference calculus.

Everything downstream (flow maps, invariants, circulation, energy) runs on the
types in this module: a uniform 1-3 axis grid of particle labels, fields
sampled on its nodes, and centered finite differences of formal order 2 or 4.
Boundary nodes use one-sided stencils of matching order unless the axis is
periodic. Residual norms are reported as (Linf, L2, location of max)
triples, with an optional rind exclusion of boundary-contaminated nodes.

This is the library's only stencil layer: every other module differentiates
through ``differentiate`` / ``gradient`` / ``divergence`` on grids (a curl
is ``_half_curl`` of a gradient), ``point_jacobian`` for callables at
arbitrary points, ``_time_difference`` for callables of time, or the 1-D
kernel ``_diff_along_axis0`` for parameterized curves and surfaces, or
``_slab_axis0_diff`` / ``_slab_gradient`` for slabs of whole axis-0 planes
(slices from ``_plane_slabs``: the construction gates, the deformation
gradient, the Cauchy invariants and the Biot-Savart source), and takes its
steps for callables from the table next to ``point_jacobian``. Vector
results use the Jacobian layout ``[..., i, k] = d f_i / d x_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "LabelGrid",
    "Field",
    "StencilSpec",
    "ResidualSummary",
    "differentiate",
    "gradient",
    "divergence",
    "point_jacobian",
    "summarize_residual",
]

# points per block in bounded-memory loops (Biot-Savart, invert_map, the
# grid checks' slabs of axis-0 planes)
BLOCK = 4096


@dataclass(frozen=True)
class LabelGrid:
    """Uniform structured grid over particle labels (a, b, c).

    shape   : nodes per axis (1 to 3 axes), every axis >= 4
    origin  : label coordinates of node (0, 0, 0)
    spacing : per-axis finite step h > 0
    periodic: per-axis wrap flag; a periodic axis of n nodes covers one full
              period of length n*h (the wrap node is not duplicated)

    Node positions are computed multiplicatively (origin + i*h), never by
    accumulation, so there is no drift at large indices.
    """

    shape: tuple
    origin: tuple
    spacing: tuple
    periodic: tuple = None

    def __post_init__(self):
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        origin = tuple(float(x) for x in np.atleast_1d(self.origin))
        spacing = tuple(float(h) for h in np.atleast_1d(self.spacing))
        periodic = self.periodic
        if periodic is None:
            periodic = (False,) * len(shape)
        periodic = tuple(bool(p) for p in np.atleast_1d(periodic))
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"grid must have 1-3 axes, got {len(shape)}")
        if not (len(origin) == len(spacing) == len(periodic) == len(shape)):
            raise ValueError("shape/origin/spacing/periodic lengths disagree")
        if any(n < 4 for n in shape):
            raise ValueError(f"every axis needs >= 4 nodes, got {shape}")
        if not np.all(np.isfinite(origin)):
            raise ValueError(f"origin must be finite, got {origin}")
        if not all(0 < h < np.inf for h in spacing):
            raise ValueError(f"spacings must be finite and positive, got {spacing}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "periodic", periodic)

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def node_count(self):
        return int(np.prod(self.shape))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_coords(self, axis):
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    def nodes3(self):
        """Node labels padded with zeros to 3 components, shape (N, 3).

        Each axis's coordinates are broadcast into one zeroed array. Every
        call returns a fresh array: a copy cached on the grid would stay
        alive as long as the grid (6 MiB on a 64^3 grid).
        """
        return self._node_planes(slice(None)).reshape(-1, 3)

    def _node_planes(self, rows):
        """The axis-0 planes ``rows`` (a slice or an index array) of nodes3(),
        shape (planes,) + shape[1:] + (3,)."""
        axes = [self.axis_coords(0)[rows]] + [self.axis_coords(k) for k in range(1, self.ndim)]
        out = np.zeros((len(axes[0]),) + self.shape[1:] + (3,))
        for k, c in enumerate(axes):
            out[..., k] = c.reshape((-1,) + (1,) * (self.ndim - 1 - k))
        return out

    def interior_slices(self, rind):
        """Slices dropping ``rind`` nodes at each non-periodic boundary."""
        out = []
        for n, p in zip(self.shape, self.periodic):
            if p or rind == 0:
                out.append(slice(None))
            else:
                if 2 * rind >= n:
                    raise ValueError("rind exclusion leaves no interior nodes")
                out.append(slice(rind, n - rind))
        return tuple(out)


@dataclass(frozen=True)
class StencilSpec:
    """Finite-difference stencil of formal order 2 or 4.

    Non-periodic edges use one-sided rows of matching order; periodic grid
    axes wrap.
    """

    order: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")


@dataclass
class Field:
    """Values sampled on a LabelGrid: scalar, vector(3), or tensor(3,3).

    Data layout is row-major over nodes with components innermost, i.e.
    array shape = grid.shape + component shape. The constructor copies the
    data and makes the copy read-only, so a field keeps the values it was
    built with: writing into ``.data`` raises instead of changing a field
    that other results were derived from.
    """

    grid: LabelGrid
    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=float)
        comp = data.shape[self.grid.ndim:]
        if data.shape[: self.grid.ndim] != self.grid.shape or comp not in ((), (3,), (3, 3)):
            raise ValueError(
                f"data shape {data.shape} incompatible with grid {self.grid.shape}; "
                "components must be scalar, (3,), or (3,3)"
            )
        data.setflags(write=False)
        self.data = data


def _central_into(out, f, order, h):
    """Central differences of formal ``order`` along f's leading axis, for
    every row with ``order // 2`` neighbours on both sides, written into
    ``out`` (len(f) - order rows).

    Row i is (f[i+1] - f[i-1]) / (2h) or (f[i-2] - 8 f[i-1] + 8 f[i+1] -
    f[i+2]) / (12h), its terms summed left to right in ``out`` itself;
    order 4 takes one temporary of out's size for its third term.
    """
    if order == 2:
        np.subtract(f[2:], f[:-2], out=out)
        out /= 2 * h
        return
    np.multiply(f[1:-3], 8, out=out)
    np.subtract(f[:-4], out, out=out)
    out += np.multiply(f[3:-1], 8)
    out -= f[4:]
    out /= 12 * h


def _diff_into(out, f, h, order, wrap):
    """Write d/dx of f along its leading axis into ``out`` (f's shape).

    Interior rows are ``_central_into`` over slices of f. A wrapped axis
    takes its 2 * (order // 2) edge rows from a small ring of f's first and
    last rows, taken modulo the axis length, so no copy of f is made.
    """
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order!r}")
    n = f.shape[0]
    if order == 4 and n < 6:
        raise ValueError("order-4 stencils need >= 6 nodes per axis")
    if wrap:
        k = 1 if order == 2 else 2
        _central_into(out[k:n - k], f, order, h)
        ring = np.take(f, np.arange(-2 * k, 2 * k), axis=0, mode="wrap")
        edge = np.empty_like(ring[k:-k])
        _central_into(edge, ring, order, h)
        out[np.arange(-k, k) % n] = edge  # rows -k .. k-1
        return
    # boundary rows are written in difference-from-pivot form (coefficient
    # sums vanish), so constants differentiate to exactly zero in floating
    # point, matching the interior central rows
    if order == 2:
        if n < 3:
            raise ValueError("order-2 one-sided stencils need >= 3 nodes")
        _central_into(out[1:-1], f, 2, h)
        out[0] = (4 * (f[1] - f[0]) - (f[2] - f[0])) / (2 * h)
        out[-1] = (-4 * (f[-2] - f[-1]) + (f[-3] - f[-1])) / (2 * h)
        return
    _central_into(out[2:-2], f, 4, h)
    out[0] = (48 * (f[1] - f[0]) - 36 * (f[2] - f[0])
              + 16 * (f[3] - f[0]) - 3 * (f[4] - f[0])) / (12 * h)
    out[1] = (-10 * (f[1] - f[0]) + 18 * (f[2] - f[0])
              - 6 * (f[3] - f[0]) + (f[4] - f[0])) / (12 * h)
    out[-2] = (10 * (f[-2] - f[-1]) - 18 * (f[-3] - f[-1])
               + 6 * (f[-4] - f[-1]) - (f[-5] - f[-1])) / (12 * h)
    out[-1] = (-48 * (f[-2] - f[-1]) + 36 * (f[-3] - f[-1])
               - 16 * (f[-4] - f[-1]) + 3 * (f[-5] - f[-1])) / (12 * h)


def _diff_along_axis0(f, h, order, wrap):
    """d/dx of f along its leading axis; one-sided edges unless wrap."""
    out = np.empty_like(f)
    _diff_into(out, f, h, order, wrap)
    return out


def _plane_slabs(grid):
    """Slices of whole axis-0 planes covering the grid, as many planes as
    fit in ``BLOCK`` nodes and at least one."""
    n = grid.shape[0]
    step = max(1, BLOCK // (grid.node_count // n))
    return [slice(i0, min(i0 + step, n)) for i0 in range(0, n, step)]


def _slab_axis0_diff(f, grid, sl, order=2):
    """(values, d/dlab_0) on the axis-0 planes ``sl`` (a slice) of the field
    whose values on the planes ``rows`` (a slice or an index array) are
    ``f(rows)``.

    The differences read the slab plus a halo of order // 2 planes each
    side: wrapped on a periodic axis 0, clipped at the ends of another,
    where the window keeps the planes the one-sided end rows read (3 at
    order 2, 6 at order 4). Each kept row is the row ``differentiate`` gives
    on the whole grid, bit for bit; a periodic slab whose window would reach
    round the axis takes the whole axis. A window whose leading axes are
    not its planes of the grid raises a ValueError naming both shapes.
    """
    n, k = grid.shape[0], order // 2
    i0, i1 = sl.start, sl.stop
    least = 3 if order == 2 else 6
    wrap = grid.periodic[0] and i1 - i0 + 2 * k >= n
    if wrap:
        lo, hi = 0, n
    elif grid.periodic[0]:
        lo = i0 - k
        hi = max(i1 + k, lo + least)
    else:
        lo = max(0, min(i0 - k, n - least))
        hi = min(n, max(i1 + k, lo + least))
    rows = np.arange(lo, hi) % n if grid.periodic[0] and not wrap else slice(lo, hi)
    window = np.asarray(f(rows), dtype=float)
    if window.shape[:grid.ndim] != (hi - lo,) + grid.shape[1:]:
        raise ValueError(f"array of shape {window.shape} is not sampled on axis-0 planes "
                         f"{lo}:{hi} of a grid of shape {grid.shape}")
    d = _diff_along_axis0(window, grid.spacing[0], order, wrap)
    return window[i0 - lo:i1 - lo], d[i0 - lo:i1 - lo]


def _slab_gradient(f, grid, sl, order=2):
    """Label gradient on the axis-0 planes ``sl`` of the field ``f(rows)`` (see
    ``_slab_axis0_diff``), in ``gradient``'s layout and bit for bit its rows;
    the other axes need no halo. Non-finite values on the slab's planes
    raise as in ``gradient``, so a loop over all slabs checks every node."""
    vals, d0 = _slab_axis0_diff(f, grid, sl, order)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite values in field")
    out = np.zeros(vals.shape + (3,))
    out[..., 0] = d0
    for k in range(1, grid.ndim):
        _diff_into(np.moveaxis(out[..., k], k, 0), np.moveaxis(vals, k, 0), grid.spacing[k],
                   order, grid.periodic[k])
    return out


def _on_grid(f, grid):
    """f as a float array whose leading axes are ``grid.shape``; else a
    ValueError naming both shapes."""
    f = np.asarray(f, dtype=float)
    if f.shape[:grid.ndim] != grid.shape:
        raise ValueError(f"array of shape {f.shape} is not sampled on a grid of shape "
                         f"{grid.shape}")
    return f


def _finite_field(f, grid):
    f = _on_grid(f, grid)
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite values in field")
    return f


def differentiate(f, axis, spec=StencilSpec(), *, grid):
    """Partial derivative of an array sampled on ``grid`` along one label axis.

    Central differences of the stated order in the interior; one-sided rows
    of matching order at non-periodic boundaries; periodic axes wrap.
    """
    if not 0 <= axis < grid.ndim:
        raise ValueError(f"axis {axis} invalid for a {grid.ndim}-axis grid")
    f = _finite_field(f, grid)
    moved = np.moveaxis(f, axis, 0)
    return np.moveaxis(
        _diff_along_axis0(moved, grid.spacing[axis], spec.order, grid.periodic[axis]), 0, axis)


def gradient(f, spec=StencilSpec(), *, grid):
    """Label-space gradient, the derivative axis appended innermost.

    A scalar array gives (..., 3); a (..., 3) vector array gives the Jacobian
    layout (..., 3, 3) with ``[..., i, k] = d f_i / d lab_k``. Missing axes
    of 1D/2D grids contribute zero derivative (fields are taken
    label-invariant along unrepresented axes), so the derivative axis always
    has 3 entries. The whole grid is one slab of ``_slab_gradient``.
    """
    f = _on_grid(f, grid)
    return _slab_gradient(lambda rows: f[rows], grid, slice(0, grid.shape[0]), spec.order)


def divergence(vec, spec=StencilSpec(), *, grid):
    """Label-space divergence of a 3-component array (missing axes -> 0)."""
    out = np.zeros(vec.shape[:-1])
    for k in range(grid.ndim):
        out += differentiate(vec[..., k], k, spec, grid=grid)
    return out


def _half_curl(J):
    """Half the curl read off a Jacobian ``J[..., i, k] = d f_i / d x_k``:
    its antisymmetric part as a (..., 3) vector."""
    return 0.5 * np.stack(
        [J[..., 2, 1] - J[..., 1, 2],
         J[..., 0, 2] - J[..., 2, 0],
         J[..., 1, 0] - J[..., 0, 1]], axis=-1,
    )


# steps of the central differences of callables (point_jacobian, _time_difference)
POINT_STENCIL_H = 1e-5  # in space: flow-map positions and velocities, velocity fields
POTENTIAL_STENCIL_H = 1e-6  # in space: potentials, pressures, chart maps and metrics
ACCELERATION_STEP = 1e-4  # in time: a flow map along its trajectories, times its timescale
TIME_STEP = 1e-5  # in time: velocity fields and potentials


def point_jacobian(fn, pts, h):
    """Central differences of a callable at arbitrary points (..., 3).

    ``fn`` is evaluated once, on the stacked batch of the +h and -h shifts
    along each axis. A scalar ``fn`` gives (..., 3); a vector ``fn`` with
    (..., m) values gives (..., m, 3), ``[..., i, k] = d fn_i / d pts_k``.
    """
    pts = np.asarray(pts, dtype=float)
    step = h * np.eye(3)
    batch = np.empty((6,) + pts.shape)
    for k in range(3):
        np.add(pts, step[k], out=batch[k])
        np.subtract(pts, step[k], out=batch[3 + k])
    vals = np.asarray(fn(batch), dtype=float)
    return np.moveaxis((vals[:3] - vals[3:]) / (2 * h), 0, -1)


def _time_difference(fn, t, dt):
    """(fn(t + dt) - fn(t - dt)) / (2 dt), the central time difference of a
    callable of time; fn(t + dt) is evaluated first."""
    return (np.asarray(fn(t + dt)) - np.asarray(fn(t - dt))) / (2 * dt)


@dataclass
class ResidualSummary:
    """(Linf, L2, location of max) norm triple for a residual field.

    l2 is the root-mean-square over included nodes; ``rind`` records how many
    boundary nodes per non-periodic axis were excluded; ``excluded`` counts
    nodes dropped by rind or an explicit mask.
    """

    linf: float
    l2: float
    location: tuple
    rind: int = 0
    excluded: int = 0

    def __float__(self):
        return float(self.linf)


def summarize_residual(values, grid, rind=0, mask=None):
    """Reduce a per-node residual magnitude field to a norm triple.

    mask: optional boolean array marking nodes to include (before rind).
    """
    mag = np.abs(_on_grid(values, grid))
    if mag.ndim > grid.ndim:  # vector residual: take per-node max magnitude
        mag = mag.reshape(grid.shape + (-1,)).max(axis=-1)
    include = np.ones(grid.shape, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    if rind:
        rind_mask = np.zeros(grid.shape, dtype=bool)
        rind_mask[grid.interior_slices(rind)] = True
        include &= rind_mask
    excluded = int(include.size - np.count_nonzero(include))
    if not include.any():
        raise ValueError("residual summary has no included nodes")
    sel = np.where(include, mag, -np.inf)
    flat_arg = int(np.argmax(sel))
    idx = np.unravel_index(flat_arg, grid.shape)
    location = tuple(grid.origin[k] + idx[k] * grid.spacing[k] for k in range(grid.ndim))
    linf = float(mag[idx])
    l2 = float(np.sqrt(np.mean(mag[include] ** 2)))
    return ResidualSummary(
        linf=linf,
        l2=l2,
        location=location,
        rind=rind,
        excluded=excluded,
    )
