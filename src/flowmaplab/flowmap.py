"""Flow maps from particle labels to positions, and their differential calculus.

A flow map x = phi(a, b, c, t) is either analytic (closed-form position /
velocity / acceleration callables, optionally with exact label partials) or
sampled (a trajectory table over a label grid, marched by RK4 through its
generating velocity field, which also advects arbitrary labels on demand).

The operations here cover the deformation gradient dx_i/da_j, a read-only
array whose ``det3`` is the Jacobian, the density equations in both
dependences, the nine cofactor relations tying the inverse map gradient to
minors of the forward one, and the volume-integral transform that moves
integrals between position and label space.
"""

from __future__ import annotations

import bisect
from functools import cached_property

import numpy as np

from .grids import (ACCELERATION_STEP, BLOCK, POINT_STENCIL_H, LabelGrid, StencilSpec,
                    _plane_slabs, _slab_gradient, _time_difference, divergence, point_jacobian,
                    summarize_residual)
from .quadrature import grid_integral

__all__ = [
    "FlowMap",
    "AnalyticFlowMap",
    "SampledFlowMap",
    "SingularMapError",
    "deformation_gradient",
    "deformation_at",
    "velocity_gradient_at",
    "det3",
    "adjugate3",
    "inv3",
    "cofactor_identity_residual",
    "density_residual",
    "mass_integral_transform",
    "invert_map",
    "validate_analytic_partials",
]

SINGULAR_J_TOL = 1e-10


class SingularMapError(RuntimeError):
    """Jacobian magnitude fell under the singularity threshold: the map is
    self-intersecting (particle collision) and dependent results are invalid."""


def _labels3(labels):
    pts = np.asarray(labels, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError("labels must have 3 components innermost")
    return pts


class FlowMap:
    """Base interface; use AnalyticFlowMap or SampledFlowMap. The closed-form
    hooks ``_acceleration``, ``_partials`` and ``_velocity_partials`` are
    called when registered (not None); ``_uses_partials`` reads them."""

    grid: LabelGrid
    convention: str  # "identity" (x=a at t=0) or "generalized"
    name: str = "flowmap"
    timescale: float = 1.0
    _gradient = None  # (key, F) kept by deformation_gradient
    _acceleration = _partials = _velocity_partials = None

    def positions(self, labels, t):
        raise NotImplementedError

    def velocities(self, labels, t):
        raise NotImplementedError

    def accelerations(self, labels, t):
        """The registered acceleration, else the central time difference of
        velocities over a step of grids.ACCELERATION_STEP * timescale."""
        if self._acceleration is not None:
            return np.asarray(self._acceleration(_labels3(labels), float(t)), dtype=float)
        return _time_difference(lambda s: self.velocities(labels, s), t,
                                ACCELERATION_STEP * self.timescale)

    def label_partials(self, labels, t):
        if self._partials is None:
            return None
        return np.asarray(self._partials(_labels3(labels), float(t)), dtype=float)

    def velocity_label_partials(self, labels, t):
        if self._velocity_partials is None:
            return None
        return np.asarray(self._velocity_partials(_labels3(labels), float(t)), dtype=float)

    def reference_density_at(self, labels):
        rho0 = getattr(self, "reference_density", 1.0)
        if callable(rho0):
            return np.asarray(rho0(_labels3(labels)), dtype=float)
        return np.full(_labels3(labels).shape[:-1], float(rho0))

    def grid_labels(self):
        return self.grid.nodes3().reshape(self.grid.shape + (3,))

    def check_identity_at_zero(self):
        """Raise if max |x(a, 0) - a| over the grid, taken on the slabs of
        ``_pointwise_slabs``, is above 1e-12."""
        err = 0.0
        for sl in _pointwise_slabs(self):
            labels = self.grid._node_planes(sl)
            err = np.maximum(err, np.max(np.abs(self.positions(labels, 0.0) - labels)))
        if err > 1e-12:
            raise ValueError(
                f"map declared identity-at-zero but |x(a,0)-a| reaches {err:.3e}"
            )


def _pointwise_slabs(m):
    """Slabs of whole axis-0 planes, as slices, on which the grid checks call
    a map's pointwise callables: ``grids._plane_slabs`` for a closed-form
    map, the whole grid for a sampled one, whose table and checkpoint lattice
    answer only the whole grid-label array (a slab would march from t=0)."""
    if isinstance(m, SampledFlowMap):
        return [slice(0, m.grid.shape[0])]
    return _plane_slabs(m.grid)


class AnalyticFlowMap(FlowMap):
    """Closed-form flow map.

    position/velocity/acceleration are callables (labels, t) -> (..., 3).
    Every callable must be pointwise: the grid checks evaluate them on
    slabs of the grid's axis-0 planes (``_pointwise_slabs``).
    Optional exact derivative callables:
      partials(labels, t)          -> (..., 3, 3)    F[i, j] = dx_i/dlab_j
      velocity_partials(labels, t) -> (..., 3, 3)    G[i, j] = du_i/dlab_j
    F and G are all the exact Cauchy invariants need: the covelocity's
    second-partial term u_i d2x_i/(dlab_j dlab_k) is symmetric in (j, k)
    and cancels in its curl (``cauchy.cauchy_invariants``). ``FlowMap``'s
    hooks call acceleration and the partials.
    """

    def __init__(self, grid, position, velocity, acceleration=None,
                 partials=None, velocity_partials=None, convention="identity",
                 reference_density=1.0, name="analytic", timescale=1.0):
        self.grid = grid
        self._position = position
        self._velocity = velocity
        self._acceleration = acceleration
        self._partials = partials
        self._velocity_partials = velocity_partials
        self.convention = convention
        self.reference_density = reference_density
        self.name = name
        self.timescale = float(timescale)
        if convention == "identity":
            self.check_identity_at_zero()

    def positions(self, labels, t):
        out = np.asarray(self._position(_labels3(labels), float(t)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError("non-finite positions from analytic map")
        return out

    def velocities(self, labels, t):
        return np.asarray(self._velocity(_labels3(labels), float(t)), dtype=float)


# RK4 steps S between checkpoints of a sampled map's grid-label states. An
# off-table query re-integrates at most S steps from its checkpoint, and a
# table of n steps keeps n/S states. Counting a kept state like one step, q
# off-table query times cost q*S + n/S, least at S = sqrt(n/q): 8-16 for the
# catalog's sampled flows (n = 256-512 steps, q = 2-4 times per check).
CHECKPOINT_STRIDE = 16


class SampledFlowMap(FlowMap):
    """Trajectory table on a label grid, marched through its velocity field.

    ``field_fn(points, t)`` is the generating velocity field and ``dt`` the
    RK4 step; ``integrate_trajectories`` builds these maps. One fixed-step
    march from t=0 fills ``positions_table``, of shape (n_times,) +
    grid.shape + (3,), starting from the grid labels themselves, and a
    checkpoint lattice of grid-label states at the table times and at every
    CHECKPOINT_STRIDE-th step of dt. One checkpoint is one state of the
    grid, 24 bytes per node (24 KiB at 32x32). Queries go as follows:

    - grid labels at a table time read the table;
    - grid labels at any other time resume from the checkpoint at or below
      t, at most CHECKPOINT_STRIDE steps; past times[-1] the lattice grows
      in whole strides, so a value never depends on earlier queries;
    - any other labels (loops, surfaces, stencil shifts, Newton iterates)
      advect from t=0, so they never re-interpolate the table.

    The last advected (labels, t) is remembered, so velocities (the field
    at the positions) and repeated queries reuse its positions.
    The map is identity-at-zero with unit reference density.
    """

    convention = "identity"
    reference_density = 1.0

    def __init__(self, grid, times, field_fn, dt, name="sampled"):
        self.grid = grid
        self.name = name
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or not self.times.size or np.any(np.diff(self.times) <= 0):
            raise ValueError("sampled map times must be a non-empty, strictly increasing "
                             f"1-D sequence, got {self.times.tolist()!r}")
        self.field_fn = field_fn
        self.dt = dt
        self._last = None  # (labels, t, positions) of the last advected query
        # the grid labels, read-only: queries compare against them
        self._grid_lab = self.grid_labels()
        self._grid_lab.flags.writeable = False
        self.positions_table = self._march_table()

    @cached_property
    def error_floor(self):
        """The Richardson estimate of the table's integration error for a
        4th-order method (Hairer, Norsett & Wanner, Solving ODEs I, II.4), from
        a second march to times[-1] in k steps against the table's n: step
        doubling, max |x_dt - x_2dt| / 15, for even n (k = n/2), else halving,
        max |x_dt - x_dt/2| * 16/15 (k = 2n); None for a one-time table. The
        march runs on the first read; the value is kept."""
        if len(self.times) == 1:
            return None
        end, n = self.times[-1], self._table_steps[-1]
        k = n // 2 if n % 2 == 0 else 2 * n
        other = self._march(self._grid_lab, 0.0, end, end / k)
        return float(np.max(np.abs(self.positions_table[-1] - other))) / abs((n / k) ** 4 - 1)

    def _march(self, x, t0, t1, dt=None):
        """Points x marched from t0 to t1 through the field by RK4, at the
        map's own step unless dt is given: the one place a sampled map
        marches."""
        from .flows import rk4_advect  # looked up per call: flows imports this module

        return rk4_advect(self.field_fn, x, t0, t1, self.dt if dt is None else dt)

    def _march_table(self):
        """Start the checkpoint lattice at the grid labels, march it to
        times[-1] and read the table off it; a non-finite position in the
        table raises a ValueError naming the map."""
        if self.times[0] != 0.0:
            raise ValueError("trajectory tables must start at t=0 (identity labels)")
        dt = self.dt
        if not dt > 0:
            raise ValueError(f"a sampled map needs an RK4 step dt > 0, got {dt!r}")
        steps = [0]
        for gap in np.diff(self.times):
            if gap < dt - 1e-12 or abs(round(gap / dt) - gap / dt) > 1e-9:
                raise ValueError("dt must divide the gaps between requested times")
            steps.append(steps[-1] + round(gap / dt))
        self._table_steps = steps
        # lattice points: step index, time and grid-label state, in time order
        self._lattice_n, self._lattice_t = [0], [0.0]
        self._lattice_x = [self._grid_lab]
        self._extend_lattice(self.times[-1])
        table = np.stack([self._lattice_x[self._lattice_n.index(n)] for n in steps])
        if not np.isfinite(table).all():
            raise ValueError(f"non-finite positions in the trajectory table of {self.name}")
        return table

    def _extend_lattice(self, t):
        """March the lattice until its next point lies beyond time t.

        The point after step n is the next table step or the next multiple
        of CHECKPOINT_STRIDE, whichever comes first.
        """
        while True:
            n = self._lattice_n[-1]
            nxt = (n // CHECKPOINT_STRIDE + 1) * CHECKPOINT_STRIDE
            tn = nxt * self.dt
            j = bisect.bisect_right(self._table_steps, n)
            if j < len(self._table_steps) and self._table_steps[j] <= nxt:
                nxt, tn = self._table_steps[j], float(self.times[j])
            if tn > t:
                return
            x = self._march(self._lattice_x[-1], self._lattice_t[-1], tn)
            self._lattice_n.append(nxt)
            self._lattice_t.append(tn)
            self._lattice_x.append(x)

    def _time_index(self, t):
        idx = np.searchsorted(self.times, t)
        for j in (idx - 1, idx):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= 1e-12 * max(1.0, abs(t)):
                return j
        return None

    def _is_grid_labels(self, labels):
        return labels.shape == self._grid_lab.shape and np.array_equal(labels, self._grid_lab)

    def positions(self, labels, t):
        labels, t = _labels3(labels), float(t)
        if not np.isfinite(t):
            raise ValueError(f"sampled map queried at non-finite time {t}")
        on_grid = self._is_grid_labels(labels)
        j = self._time_index(t)
        if j is not None and on_grid:
            return self.positions_table[j]
        last = self._last
        if last is not None and last[1] == t and np.array_equal(last[0], labels):
            return last[2]
        start, t0 = labels, 0.0
        if on_grid:
            self._extend_lattice(t)
            i = max(0, bisect.bisect_right(self._lattice_t, t) - 1)
            start, t0 = self._lattice_x[i], self._lattice_t[i]
        pos = self._march(start, t0, t)
        self._last = (labels.copy(), t, pos)
        return pos

    def velocities(self, labels, t):
        return np.asarray(self.field_fn(self.positions(labels, t), float(t)), dtype=float)


def det3(m):
    """Determinant of stacked 3x3 matrices by cofactor expansion."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


# adjugate entry (i, j) = F[a] * F[b] - F[c] * F[d], as (a, b, c, d) index pairs
_ADJUGATE_TERMS = {
    (0, 0): ((1, 1), (2, 2), (1, 2), (2, 1)),
    (0, 1): ((0, 2), (2, 1), (0, 1), (2, 2)),
    (0, 2): ((0, 1), (1, 2), (0, 2), (1, 1)),
    (1, 0): ((1, 2), (2, 0), (1, 0), (2, 2)),
    (1, 1): ((0, 0), (2, 2), (0, 2), (2, 0)),
    (1, 2): ((0, 2), (1, 0), (0, 0), (1, 2)),
    (2, 0): ((1, 0), (2, 1), (1, 1), (2, 0)),
    (2, 1): ((0, 1), (2, 0), (0, 0), (2, 1)),
    (2, 2): ((0, 0), (1, 1), (0, 1), (1, 0)),
}


def _adjugate_entry(m, i, j, out, tmp):
    """Adjugate entry (i, j) of stacked 3x3 matrices into ``out``, with
    ``tmp`` (out's shape) as scratch: the products of ``adjugate3``, in its
    order."""
    a, b, c, d = _ADJUGATE_TERMS[i, j]
    np.multiply(m[..., a[0], a[1]], m[..., b[0], b[1]], out=out)
    np.multiply(m[..., c[0], c[1]], m[..., d[0], d[1]], out=tmp)
    out -= tmp
    return out


def adjugate3(m):
    """Adjugate (transposed cofactor matrix) of stacked 3x3 matrices."""
    adj = np.empty_like(m)
    tmp = np.empty_like(m[..., 0, 0])
    for i, j in _ADJUGATE_TERMS:
        _adjugate_entry(m, i, j, adj[..., i, j], tmp)
    return adj


def inv3(m):
    d = det3(m)
    if np.any(np.abs(d) <= SINGULAR_J_TOL):
        raise SingularMapError(
            f"Jacobian magnitude <= {SINGULAR_J_TOL:g}: singular (self-intersecting) map"
        )
    adj = adjugate3(m)
    adj /= d[..., None, None]
    return adj


def _displacement(m, labels, t):
    """x(labels, t) - labels, written into the labels' buffer."""
    return np.subtract(m.positions(labels, t), labels, out=labels)


def _fd_partials_slab(out, m, sl, t, order):
    """F = I + d(displacement)/dlab on the axis-0 planes ``sl`` of the map's
    grid, into ``out`` (``grids._slab_gradient``, then I added in place).

    Differentiating x - a instead of x keeps periodic wrapping valid for maps
    whose displacement (not position) is periodic in the labels.
    """
    _slab_gradient(out, lambda rows: _displacement(m, m.grid._node_planes(rows), t), m.grid,
                   sl, order)
    out += np.eye(3)
    return out


def _uses_partials(m, mode, velocity=False):
    """Whether the grid checks take the map's registered label partials
    (with ``velocity``, its velocity partials too): the one place a
    derivative mode is read, from the registration alone. "analytic" on a
    map without them, or a mode other than auto, analytic and fd, raises."""
    if mode not in ("auto", "analytic", "fd"):
        raise ValueError(f"derivative mode must be 'auto', 'analytic' or 'fd', got {mode!r}")
    registered = m._partials is not None and (not velocity or m._velocity_partials is not None)
    if mode == "analytic" and not registered:
        raise ValueError(f"map {m.name!r} lacks the partials mode 'analytic' needs")
    return registered and mode != "fd"


def _analytic_partials(hook, labels, t):
    """``hook(labels, t)``, a map's registered ``label_partials`` or
    ``velocity_label_partials``: the one place non-finite partials raise."""
    F = hook(labels, t)
    if not np.all(np.isfinite(F)):
        raise ValueError("non-finite analytic partials")
    return F


def deformation_gradient(m, t, spec=StencilSpec(), mode="auto"):
    """Deformation gradient on the map's label grid.

    ``_uses_partials`` decides, once, between the registered analytic
    partials and finite differences of positions over the grid. Either kind
    is filled slab by slab (``_pointwise_slabs``) into one array of shape
    grid.shape + (3, 3): each slab's analytic partials, or its differences
    over a halo, which ``_fd_partials_slab`` writes into the slab's planes
    of the array itself, each row the whole-grid difference bit for bit.

    The map keeps the last gradient it was asked for, keyed by t and the
    kind ``_uses_partials`` resolves the mode to (fd F also by its stencil
    order), so checks that contract the same F at the same time share one
    build however they spell the mode; the array is read-only. A call with
    another key drops the kept gradient before building its own, so at most
    one is held.
    """
    analytic = _uses_partials(m, mode)
    key = (float(t), None if analytic else spec.order)
    if m._gradient is not None and m._gradient[0] == key:
        return m._gradient[1]
    m._gradient = None
    F = np.empty(m.grid.shape + (3, 3))
    for sl in _pointwise_slabs(m):
        if analytic:
            F[sl] = _analytic_partials(m.label_partials, m.grid._node_planes(sl), t)
        else:
            _fd_partials_slab(F[sl], m, sl, t, spec.order)
    F.setflags(write=False)
    m._gradient = (key, F)
    return F


def deformation_at(m, labels, t):
    """dx_i/dlab_j at arbitrary labels: analytic partials or local stencils.

    The local fallback advects +/-grids.POINT_STENCIL_H shifted copies of the
    labels (one batched evaluation), so it works for sampled maps too.
    """
    F = m.label_partials(_labels3(labels), t)
    if F is not None:
        return F
    return point_jacobian(lambda p: m.positions(p, t), labels, POINT_STENCIL_H)


def velocity_gradient_at(m, labels, t):
    """du_i/dlab_j at arbitrary labels (analytic or local stencils)."""
    G = m.velocity_label_partials(_labels3(labels), t)
    if G is not None:
        return G
    return point_jacobian(lambda p: m.velocities(p, t), labels, POINT_STENCIL_H)


def _inverse_planes(A):
    """Inverse of stacked 3x3 matrices, as nine grid-shaped planes B[i][j].

    ``A`` holds the matrices' entries as planes, A[i, j] the grid of (i, j)
    entries, and is reduced in place: the call destroys it. Gauss-Jordan
    elimination with partial pivoting runs on every node at once, B starting
    at the identity, and every row operation works in place on whole planes
    with one scratch plane. A row is swapped up only where its pivot
    candidate is strictly larger in magnitude, so ties keep the row order.
    Columns left of the pivot are never read again, so they are not updated.
    """
    shape = A.shape[2:]
    B = [[np.full(shape, float(i == j)) for j in range(3)] for i in range(3)]
    tmp = np.empty(shape)
    for k in range(3):
        for i in range(k + 1, 3):
            swap = np.abs(A[i, k], out=tmp) > np.abs(A[k, k])
            if swap.any():
                for upper, lower in zip([*A[k, k:], *B[k]], [*A[i, k:], *B[i]]):
                    np.copyto(tmp, upper)
                    np.copyto(upper, lower, where=swap)
                    np.copyto(lower, tmp, where=swap)
        pivot = A[k, k]
        for row in [*A[k, k + 1:], *B[k]]:
            row /= pivot
        for i in range(3):
            if i == k:
                continue
            factor = A[i, k]
            for target, source in zip([*A[i, k + 1:], *B[i]], [*A[k, k + 1:], *B[k]]):
                np.multiply(factor, source, out=tmp)
                target -= tmp
    return B


def cofactor_identity_residual(m, t, spec=StencilSpec(), mode="auto", rind=0):
    """Mismatch of the nine relations J * d(lab)/d(pos) = minors of dx/dlab.

    The left side inverts the deformation gradient numerically, by pivoted
    elimination on a copy of its nine component planes
    (``_inverse_planes``); the right side forms each cofactor plane directly
    from the read-only gradient, with ``adjugate3``'s products, as the
    residual loop reaches it. The identity is exact linear algebra, so the
    residual is machine-level whenever the gradient itself is.
    |J * inverse - adjugate| is written into the inverse's planes and
    reduced to its per-node maximum plane by plane. Both sides run on BLOCK
    nodes at a time, each block reducing into its part of one ``worst``
    plane, so no whole-grid copy of F is made.
    """
    F = deformation_gradient(m, t, spec, mode).reshape(-1, 3, 3)
    worst = np.zeros(len(F))
    for b in range(0, len(F), BLOCK):
        Fb, worst_b = F[b:b + BLOCK], worst[b:b + BLOCK]
        J = det3(Fb)
        if np.any(np.abs(J) <= SINGULAR_J_TOL):
            raise SingularMapError("singular deformation gradient in cofactor identity")
        A = np.moveaxis(Fb, (-2, -1), (0, 1)).copy()  # Fb[:, i, j] as contiguous A[i, j]
        B = _inverse_planes(A)
        del A  # spent by the elimination
        cof, tmp = np.empty(J.shape), np.empty(J.shape)
        for i, row in enumerate(B):
            for j, res in enumerate(row):
                res *= J
                res -= _adjugate_entry(Fb, i, j, cof, tmp)
                np.abs(res, out=res)
                np.maximum(worst_b, res, out=worst_b)
    return summarize_residual(worst.reshape(m.grid.shape), m.grid, rind=rind)


def density_residual(m, t, mode="lagrangian", spec=StencilSpec(), gradient_mode="auto",
                     rind=0):
    """Residual of the density equation in either dependence.

    lagrangian: max |J(t) - J(0)| over nodes; constancy of J is the density
    equation of incompressible flows and of generalized-label maps
    (``curvilinear_density_residual`` takes a density ratio).

    eulerian: the spatial velocity field (2D, embedded flows) is evaluated
    exactly on a uniform grid inscribed in the advected domain, by inverting
    the flow map at its nodes, u(X, t) = velocity(phi^-1(X, t), t), so the
    divergence error is purely the grid stencil's. max |div u| is reported;
    rho is taken constant. Before inverting, the grid's four corners must lie
    inside the convex hull of the advected label nodes (an exact test, since
    the hull is convex); otherwise a ValueError says the grid exits the
    mapped domain. ``invert_map`` seeds Newton by one backward march of the
    grid nodes when the map is sampled.
    """
    if mode == "lagrangian":
        return _lagrangian_density_residuals(m, [t], spec, gradient_mode, rind)[0]
    if mode != "eulerian":
        raise ValueError("mode must be 'lagrangian' or 'eulerian'")
    pos = m.positions(m.grid_labels(), t)
    sgrid = _inscribed_grid(m, pos)
    inside = _grid_in_hull(pos.reshape(-1, 3)[:, :2], sgrid)
    del pos  # the advected grid is not needed past the domain tests
    if not inside:
        raise ValueError("spatial grid exits the mapped domain")
    lab = invert_map(m, sgrid.nodes3().reshape(sgrid.shape + (3,)), t)
    div = divergence(m.velocities(lab, t), spec, grid=sgrid)
    return summarize_residual(div, sgrid, rind=max(rind, 1))


def _lagrangian_density_residuals(m, times, spec, mode, rind):
    """Summaries of |J(t) - J(0)| at each of ``times``; J(0) is built once."""
    J0 = det3(deformation_gradient(m, 0.0, spec, mode))
    return [summarize_residual(np.abs(det3(deformation_gradient(m, t, spec, mode)) - J0),
                               m.grid, rind=rind) for t in times]


INVERT_TOL = 1e-12
INVERT_MAX_ITER = 50


def invert_map(m, points, t):
    """Labels whose images under the map at time t are the given points.

    Newton iteration using the deformation gradient, to a max-norm position
    residual below INVERT_TOL within INVERT_MAX_ITER steps; needs a
    well-resolved, non-singular map (|J| above the singularity threshold
    along the way). A sampled map starts Newton from one backward RK4 march
    of the points from t to 0, which lands within the integration error of
    the answer, so one or two iterations polish it; other maps start from
    the points themselves. The residual is formed in one buffer kept across
    iterations, BLOCK points at a time for a closed-form map, and each
    update inverts F for BLOCK points at a time and adds into the iterate.
    A non-finite point raises a ValueError naming it; a final residual
    above 1e-8, or not finite, raises as a stall.
    """
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise ValueError(f"point {pts[~np.isfinite(pts).all(axis=-1)][0]} is not finite")
    sampled = isinstance(m, SampledFlowMap)
    lab = m._march(pts, t, 0.0) if sampled else pts.copy()
    res = np.empty(lab.shape)
    flat_pts, flat_lab, flat_res = (a.reshape(-1, 3) for a in (pts, lab, res))
    blocks = [slice(b, b + BLOCK) for b in range(0, len(flat_lab), BLOCK)]
    for it in range(INVERT_MAX_ITER + 1):
        if sampled:  # one march of the whole iterate
            np.subtract(pts, m.positions(lab, t), out=res)
        else:
            for blk in blocks:
                np.subtract(flat_pts[blk], m.positions(flat_lab[blk], t), out=flat_res[blk])
        err = float(np.maximum(res.max(), -res.min()))  # max |res|; NaN propagates
        if err < INVERT_TOL or it == INVERT_MAX_ITER:
            break
        for blk in blocks:
            flat_lab[blk] += np.einsum("...ij,...j->...i",
                                       inv3(deformation_at(m, flat_lab[blk], t)), flat_res[blk])
    if not err <= 1e-8:
        raise ValueError(f"map inversion stalled at residual {err:.3e}")
    return lab


def _grid_in_hull(xy, grid):
    """Whether the 2-D ``grid`` lies inside the convex hull of the points
    ``xy`` (N, 2).

    A box lies inside a convex set if and only if its four corners do, and a
    corner c lies inside the hull if and only if the points, seen from c,
    leave no angular gap of pi or more. No triangulation is built.
    """
    for cx in grid.axis_coords(0)[[0, -1]]:
        for cy in grid.axis_coords(1)[[0, -1]]:
            ang = np.sort(np.arctan2(xy[:, 1] - cy, xy[:, 0] - cx))
            if np.diff(ang, append=ang[0] + 2 * np.pi).max() >= np.pi:
                return False
    return True


def _inscribed_grid(m, pos_full):
    """Uniform x-y grid inside the advected label nodes ``pos_full``.

    The box is inscribed in the advected fluid region, not its convex hull:
    wavy material boundaries (one advected boundary row per non-periodic
    label axis) would otherwise leave hull pockets with no data, where an
    interpolant extrapolates. Each side is pulled in by 12% of the span.
    """
    xy = pos_full.reshape(-1, 3)[:, :2]
    lo = xy.min(axis=0).copy()
    hi = xy.max(axis=0).copy()
    for axis in range(min(2, m.grid.ndim)):
        if m.grid.periodic[axis]:
            continue
        first = np.take(pos_full, 0, axis=axis).reshape(-1, 3)
        last = np.take(pos_full, -1, axis=axis).reshape(-1, 3)
        lo[axis] = max(lo[axis], first[:, axis].max())
        hi[axis] = min(hi[axis], last[:, axis].min())
    span = hi - lo
    if np.any(span <= 0):
        raise ValueError("advected domain too distorted for an inscribed box")
    lo = lo + 0.12 * span
    hi = hi - 0.12 * span
    n = max(m.grid.shape[0], 16)
    return LabelGrid((n, n), tuple(lo), tuple((hi - lo) / (n - 1)), (False, False))


def mass_integral_transform(m, t, f):
    """Pair of label-space integrals (with f composed at time t, and at t=0).

    Returns (integral of f(x(a,t)) rho0 dlab, integral of f(a) rho0 dlab).
    They agree for f = 1 (mass conservation) and, more generally, exactly
    when f is a material invariant of the flow.
    """
    labels = m.grid_labels()
    rho0 = m.reference_density_at(labels)
    mapped_vals = np.asarray(f(m.positions(labels, t)), dtype=float) * rho0
    ref_vals = np.asarray(f(labels), dtype=float) * rho0
    mapped = grid_integral(mapped_vals, m.grid.spacing, m.grid.periodic)
    ref = grid_integral(ref_vals, m.grid.spacing, m.grid.periodic)
    return float(mapped), float(ref)


PARTIALS_GATE_FACTOR = 50.0


def validate_analytic_partials(m, t):
    """Cross-check registered analytic partials against grid differences.

    Returns the max mismatch over the grid interior against order-2
    differences of the displacement x - a, as ``deformation_gradient``'s fd
    mode takes them; raises if it exceeds PARTIALS_GATE_FACTOR * h^2 (a
    loose O(h^2) gate meant to catch transcription errors, not to measure
    order). Both sides are taken on the slabs of ``_pointwise_slabs``, the
    differences by ``_fd_partials_slab``, so the mismatch is the whole-grid
    one, bit for bit. A NaN mismatch propagates to the result and raises.
    A map without registered partials returns 0.0 and evaluates nothing.
    """
    if not _uses_partials(m, "auto"):
        return 0.0
    grid = m.grid
    interior = grid.interior_slices(2)
    r0, r1, _ = interior[0].indices(grid.shape[0])
    err = 0.0
    for sl in _pointwise_slabs(m):
        F = m.label_partials(grid._node_planes(sl), t)
        diff = _fd_partials_slab(np.empty_like(F), m, sl, t, 2)
        diff -= F  # F_fd - F = -(F - F_fd) exactly, so |diff| is the mismatch
        np.abs(diff, out=diff)
        lo, hi = max(r0, sl.start), min(r1, sl.stop)  # the slab's interior planes
        if lo < hi:
            rows = slice(lo - sl.start, hi - sl.start)
            err = np.maximum(err, np.max(diff[(rows,) + interior[1:]]))
    err = float(err)
    hmax = max(grid.spacing)
    gate = PARTIALS_GATE_FACTOR * hmax ** 2
    if not err <= gate:
        raise ValueError(
            f"analytic partials disagree with finite differences: {err:.3e} > {gate:.3e}"
        )
    return err
