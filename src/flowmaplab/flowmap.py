"""Flow maps from particle labels to positions, and their differential calculus.

A flow map x = phi(a, b, c, t) is either analytic (closed-form position /
velocity / acceleration callables, optionally with exact label partials) or
sampled (a trajectory table over a label grid plus, when available, the
generating velocity field for on-demand advection of arbitrary labels).

The operations here cover the deformation gradient dx_i/da_j, its Jacobian
determinant and the density equations in both dependences, the nine cofactor
relations tying the inverse map gradient to minors of the forward one, and
the volume-integral transform that moves integrals between position and
label space.

Sampled maps serialize to a columnar binary file (see ``save_flowmap``):
an ASCII magic, little-endian header with grid dims / origin / spacing /
periodicity / label convention and the time stamps, then float64 positions
ordered node-major, then time, with the 3 components innermost. A JSON
sidecar (same path + ".json") carries free-form metadata.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    Field,
    LabelGrid,
    StencilSpec,
    differentiate,
    gradient,
    point_jacobian,
    summarize_residual,
)
from .quadrature import TRAPEZOID, grid_integral

__all__ = [
    "FlowMap",
    "AnalyticFlowMap",
    "SampledFlowMap",
    "DeformationGradient",
    "SingularMapError",
    "deformation_gradient",
    "deformation_at",
    "velocity_gradient_at",
    "jacobian_det",
    "det3",
    "adjugate3",
    "inv3",
    "cofactor_identity_residual",
    "density_residual",
    "mass_integral_transform",
    "resample_velocity_2d",
    "validate_analytic_partials",
    "save_flowmap",
    "load_flowmap",
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
    """Base interface; use AnalyticFlowMap or SampledFlowMap."""

    grid: LabelGrid
    convention: str  # "identity" (x=a at t=0) or "generalized"
    name: str = "flowmap"
    timescale: float = 1.0

    def positions(self, labels, t):
        raise NotImplementedError

    def velocities(self, labels, t):
        raise NotImplementedError

    def accelerations(self, labels, t, dt=None):
        """Central time difference of velocities along trajectories."""
        dt = dt if dt is not None else 1e-4 * self.timescale
        vp = self.velocities(labels, t + dt)
        vm = self.velocities(labels, t - dt)
        return (vp - vm) / (2 * dt)

    # analytic-derivative hooks; None means "not registered"
    def label_partials(self, labels, t):
        return None

    def velocity_label_partials(self, labels, t):
        return None

    def second_label_partials(self, labels, t):
        return None

    def reference_density_at(self, labels):
        rho0 = getattr(self, "reference_density", 1.0)
        if callable(rho0):
            return np.asarray(rho0(_labels3(labels)), dtype=float)
        return np.full(_labels3(labels).shape[:-1], float(rho0))

    def grid_labels(self):
        return self.grid.nodes3().reshape(self.grid.shape + (3,))

    def check_identity_at_zero(self, tol=1e-12):
        labels = self.grid_labels()
        err = np.max(np.abs(self.positions(labels, 0.0) - labels))
        if err > tol:
            raise ValueError(
                f"map declared identity-at-zero but |x(a,0)-a| reaches {err:.3e}"
            )


class AnalyticFlowMap(FlowMap):
    """Closed-form flow map.

    position/velocity/acceleration are callables (labels, t) -> (..., 3).
    Optional exact derivative callables:
      partials(labels, t)          -> (..., 3, 3)    F[i, j] = dx_i/dlab_j
      velocity_partials(labels, t) -> (..., 3, 3)    G[i, j] = du_i/dlab_j
      second_partials(labels, t)   -> (..., 3, 3, 3) H[i, j, k] = d2x_i/(dlab_j dlab_k)
    """

    def __init__(self, grid, position, velocity, acceleration=None,
                 partials=None, velocity_partials=None, second_partials=None,
                 convention="identity", reference_density=1.0, name="analytic",
                 timescale=1.0):
        self.grid = grid
        self._position = position
        self._velocity = velocity
        self._acceleration = acceleration
        self._partials = partials
        self._velocity_partials = velocity_partials
        self._second_partials = second_partials
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

    def accelerations(self, labels, t, dt=None):
        if self._acceleration is not None:
            return np.asarray(self._acceleration(_labels3(labels), float(t)), dtype=float)
        return super().accelerations(labels, t, dt)

    def label_partials(self, labels, t):
        if self._partials is None:
            return None
        return np.asarray(self._partials(_labels3(labels), float(t)), dtype=float)

    def velocity_label_partials(self, labels, t):
        if self._velocity_partials is None:
            return None
        return np.asarray(self._velocity_partials(_labels3(labels), float(t)), dtype=float)

    def second_label_partials(self, labels, t):
        if self._second_partials is None:
            return None
        return np.asarray(self._second_partials(_labels3(labels), float(t)), dtype=float)


class SampledFlowMap(FlowMap):
    """Trajectory table on a label grid, optionally backed by its velocity field.

    positions_table / velocities_table: shape (n_times,) + grid.shape + (3,).
    When the generating field is attached, arbitrary labels are advected on
    demand (fresh RK4 from t=0), so loops and surfaces never re-interpolate
    the table. Maps loaded from disk have no field: off-grid and off-time
    queries raise, and velocities fall back to time differences of the table.
    """

    def __init__(self, grid, times, positions_table, velocities_table=None,
                 field_fn=None, dt=None, convention="identity",
                 reference_density=1.0, name="sampled", timescale=1.0,
                 bbox=None, step_halving_error=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("sampled maps need strictly increasing time stamps")
        self.positions_table = np.asarray(positions_table, dtype=float)
        expected = (len(self.times),) + grid.shape + (3,)
        if self.positions_table.shape != expected:
            raise ValueError(
                f"positions table shape {self.positions_table.shape} != {expected}"
            )
        self.velocities_table = (
            None if velocities_table is None else np.asarray(velocities_table, dtype=float)
        )
        self.field_fn = field_fn
        self.dt = dt
        self.convention = convention
        self.reference_density = reference_density
        self.name = name
        self.timescale = float(timescale)
        self.bbox = bbox
        self.step_halving_error = step_halving_error
        if convention == "identity":
            self.check_identity_at_zero(tol=1e-9)

    def _time_index(self, t):
        idx = np.searchsorted(self.times, t)
        for j in (idx - 1, idx):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= 1e-12 * max(1.0, abs(t)):
                return j
        return None

    def _is_grid_labels(self, labels):
        labels = _labels3(labels)
        grid_lab = self.grid_labels()
        return labels.shape == grid_lab.shape and np.array_equal(labels, grid_lab)

    def _advect(self, labels, t):
        from .flows import rk4_advect  # local import to avoid a cycle

        if self.field_fn is None:
            raise ValueError(
                "off-table query on a sampled map without its generating field"
            )
        dt = self.dt if self.dt is not None else self.timescale / 256
        return rk4_advect(self.field_fn, _labels3(labels), 0.0, float(t), dt, bbox=self.bbox)

    def positions(self, labels, t):
        j = self._time_index(t)
        if j is not None and self._is_grid_labels(labels):
            return self.positions_table[j]
        return self._advect(labels, t)

    def velocities(self, labels, t):
        if self.field_fn is not None:
            return np.asarray(self.field_fn(self.positions(labels, t), float(t)), dtype=float)
        j = self._time_index(t)
        if j is None or not self._is_grid_labels(labels):
            raise ValueError("fieldless sampled map: only table times/grid labels")
        if self.velocities_table is not None:
            return self.velocities_table[j]
        # centered time differences of the stored trajectories
        times, tab = self.times, self.positions_table
        if j == 0:
            return (tab[1] - tab[0]) / (times[1] - times[0])
        if j == len(times) - 1:
            return (tab[-1] - tab[-2]) / (times[-1] - times[-2])
        return (tab[j + 1] - tab[j - 1]) / (times[j + 1] - times[j - 1])


@dataclass
class DeformationGradient:
    """Per-node dx_i/dlab_j on a label grid at one time."""

    grid: LabelGrid
    t: float
    values: np.ndarray  # grid.shape + (3, 3)
    mode: str = "fd-grid"

    def as_field(self):
        return Field(self.grid, self.values)


def det3(m):
    """Determinant of stacked 3x3 matrices by cofactor expansion."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def adjugate3(m):
    """Adjugate (transposed cofactor matrix) of stacked 3x3 matrices."""
    adj = np.empty_like(m)
    adj[..., 0, 0] = m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1]
    adj[..., 0, 1] = m[..., 0, 2] * m[..., 2, 1] - m[..., 0, 1] * m[..., 2, 2]
    adj[..., 0, 2] = m[..., 0, 1] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 1]
    adj[..., 1, 0] = m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2]
    adj[..., 1, 1] = m[..., 0, 0] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 0]
    adj[..., 1, 2] = m[..., 0, 2] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 2]
    adj[..., 2, 0] = m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]
    adj[..., 2, 1] = m[..., 0, 1] * m[..., 2, 0] - m[..., 0, 0] * m[..., 2, 1]
    adj[..., 2, 2] = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return adj


def inv3(m, singular_tol=SINGULAR_J_TOL):
    d = det3(m)
    if np.any(np.abs(d) <= singular_tol):
        raise SingularMapError(
            f"Jacobian magnitude <= {singular_tol:g}: singular (self-intersecting) map"
        )
    return adjugate3(m) / d[..., None, None]


def _fd_partials_on_grid(m, t, spec):
    """F = I + d(displacement)/dlab on the map's grid.

    Differentiating x - a instead of x keeps periodic wrapping valid for maps
    whose displacement (not position) is periodic in the labels.
    """
    labels = m.grid_labels()
    F = gradient(m.positions(labels, t) - labels, spec, grid=m.grid)
    F += np.eye(3)
    return F


def deformation_gradient(m, t, spec=StencilSpec(), mode="auto"):
    """Deformation gradient on the map's label grid.

    mode "auto" prefers registered analytic partials and falls back to finite
    differences of positions over the grid; the choice is recorded.
    """
    labels = m.grid_labels()
    if mode in ("auto", "analytic"):
        F = m.label_partials(labels, t)
        if F is not None:
            if not np.all(np.isfinite(F)):
                raise ValueError("non-finite analytic partials")
            return DeformationGradient(m.grid, float(t), F, mode="analytic")
        if mode == "analytic":
            raise ValueError("map has no analytic partials registered")
    return DeformationGradient(m.grid, float(t), _fd_partials_on_grid(m, t, spec), mode="fd-grid")


def deformation_at(m, labels, t, h=1e-5):
    """dx_i/dlab_j at arbitrary labels: analytic partials or local stencils.

    The local fallback advects +/-h shifted copies of the labels (one batched
    map evaluation), so it works for sampled maps backed by their field.
    """
    F = m.label_partials(_labels3(labels), t)
    return F if F is not None else point_jacobian(lambda p: m.positions(p, t), labels, h)


def velocity_gradient_at(m, labels, t, h=1e-5):
    """du_i/dlab_j at arbitrary labels (analytic or local stencils)."""
    G = m.velocity_label_partials(_labels3(labels), t)
    return G if G is not None else point_jacobian(lambda p: m.velocities(p, t), labels, h)


def jacobian_det(g):
    """Scalar Field of per-node determinants of a DeformationGradient."""
    if not np.all(np.isfinite(g.values)):
        raise ValueError("non-finite deformation gradient")
    return Field(g.grid, det3(g.values))


def cofactor_identity_residual(m, t, spec=StencilSpec(), mode="auto", rind=0,
                               keep_values=False):
    """Mismatch of the nine relations J * d(lab)/d(pos) = minors of dx/dlab.

    The left side inverts the deformation gradient numerically; the right
    side forms the cofactors directly. The identity is exact linear algebra,
    so the residual is machine-level whenever the gradient itself is.
    """
    g = deformation_gradient(m, t, spec, mode)
    J = det3(g.values)
    if np.any(np.abs(J) <= SINGULAR_J_TOL):
        raise SingularMapError("singular deformation gradient in cofactor identity")
    lhs = J[..., None, None] * np.linalg.inv(g.values)
    rhs = adjugate3(g.values)
    res = np.max(np.abs(lhs - rhs), axis=(-2, -1))
    return summarize_residual(res, m.grid, rind=rind, keep_values=keep_values)


def density_residual(m, t, mode="lagrangian", spec=StencilSpec(), rule=TRAPEZOID,
                     gradient_mode="auto", density_ratio=None, rind=0,
                     spatial_grid=None, resample_method="invert", keep_values=False):
    """Residual of the density equation in either dependence.

    lagrangian: max |J(t) - J(0) * density_ratio| over nodes. density_ratio
    is rho0/rho relative to its t=0 value (1 for incompressible flows and for
    generalized-label maps, where constancy of J is the equation).

    eulerian: the spatial velocity field (2D, embedded flows) is produced on
    a uniform grid either by inverting the flow map at the nodes
    (resample_method "invert", the default: exact field values, divergence
    error purely the grid stencil's) or by scattering the advected label
    nodes and interpolating ("cubic"/"linear"; piecewise interpolants cap the
    observable divergence order near 1). max |div u| is reported; rho is
    taken constant.
    """
    if mode == "lagrangian":
        ratio = 1.0 if density_ratio is None else density_ratio
        J0 = det3(deformation_gradient(m, 0.0, spec, gradient_mode).values)
        Jt = det3(deformation_gradient(m, t, spec, gradient_mode).values)
        res = np.abs(Jt - J0 * ratio)
        return summarize_residual(res, m.grid, rind=rind, keep_values=keep_values)
    if mode != "eulerian":
        raise ValueError("mode must be 'lagrangian' or 'eulerian'")
    if resample_method == "invert":
        if spatial_grid is None:
            _, _, spatial_grid = resample_velocity_2d(m, t, None, method="linear")
        u, v = eulerian_velocity_2d(m, t, spatial_grid)
        sgrid = spatial_grid
    else:
        u, v, sgrid = resample_velocity_2d(m, t, spatial_grid, method=resample_method)
    dudx = differentiate(u, 0, spec, grid=sgrid)
    dvdy = differentiate(v, 1, spec, grid=sgrid)
    res = np.abs(dudx + dvdy)
    return summarize_residual(res, sgrid, rind=max(rind, 1), keep_values=keep_values)


def invert_map(m, points, t, tol=1e-12, max_iter=50, start=None):
    """Labels whose images under the map at time t are the given points.

    Newton iteration using the deformation gradient; needs a well-resolved,
    non-singular map (|J| above the singularity threshold along the way).
    """
    pts = np.asarray(points, dtype=float)
    lab = pts.copy() if start is None else np.array(start, dtype=float)
    for _ in range(max_iter):
        res = pts - m.positions(lab, t)
        if np.max(np.abs(res)) < tol:
            break
        F = deformation_at(m, lab, t)
        lab = lab + np.einsum("...ij,...j->...i", inv3(F), res)
    else:
        err = float(np.max(np.abs(pts - m.positions(lab, t))))
        if err > 1e-8:
            raise ValueError(f"map inversion stalled at residual {err:.3e}")
    return lab


def eulerian_velocity_2d(m, t, spatial_grid, tol=1e-12):
    """Velocity components (u, v) at spatial grid nodes by map inversion.

    The exact Eulerian evaluation: u(X, t) = velocity(phi^-1(X, t), t).
    """
    pts = spatial_grid.nodes3().reshape(spatial_grid.shape + (3,))
    lab = invert_map(m, pts, t, tol=tol)
    vel = m.velocities(lab, t)
    return vel[..., 0], vel[..., 1]


def resample_velocity_2d(m, t, spatial_grid=None, method="cubic", shrink=0.12):
    """Scatter the advected label nodes and interpolate (u, v) onto a uniform
    spatial grid in the x-y plane.

    method "cubic" (Clough-Tocher) keeps differentiated quantities at second
    order; "linear" matches plain simplex interpolation, which caps gradient
    accuracy at first order. Raises if the requested grid leaves the convex
    hull of the mapped domain.
    """
    from scipy.interpolate import CloughTocher2DInterpolator, LinearNDInterpolator

    labels = m.grid_labels()
    pos_full = m.positions(labels, t)
    pos = pos_full.reshape(-1, 3)
    vel = m.velocities(labels, t).reshape(-1, 3)
    xy = pos[:, :2]
    if spatial_grid is None:
        # inscribe the evaluation box in the advected fluid region, not its
        # convex hull: wavy material boundaries (one advected boundary row per
        # non-periodic label axis) would otherwise leave hull pockets with no
        # data, where the interpolant extrapolates
        lo = xy.min(axis=0).copy()
        hi = xy.max(axis=0).copy()
        for axis in range(min(2, m.grid.ndim)):
            if m.grid.periodic[axis]:
                continue
            first = np.take(pos_full, 0, axis=axis).reshape(-1, 3)
            last = np.take(pos_full, -1, axis=axis).reshape(-1, 3)
            lo[axis] = max(lo[axis], first[:, axis].max(), )
            hi[axis] = min(hi[axis], last[:, axis].min())
        span = hi - lo
        if np.any(span <= 0):
            raise ValueError("advected domain too distorted for an inscribed box")
        lo = lo + shrink * span
        hi = hi - shrink * span
        n = max(m.grid.shape[0], 16)
        spatial_grid = LabelGrid(
            (n, n), tuple(lo), tuple((hi - lo) / (n - 1)), (False, False)
        )
    cls = CloughTocher2DInterpolator if method == "cubic" else LinearNDInterpolator
    interp_u = cls(xy, vel[:, 0])
    interp_v = cls(xy, vel[:, 1])
    X, Y = spatial_grid.meshgrid()
    u = interp_u(X, Y)
    v = interp_v(X, Y)
    if np.any(~np.isfinite(u)) or np.any(~np.isfinite(v)):
        raise ValueError("spatial grid exits the mapped domain: resampling failed")
    return u, v, spatial_grid


def mass_integral_transform(m, t, f, rule=TRAPEZOID):
    """Pair of label-space integrals (with f composed at time t, and at t=0).

    Returns (integral of f(x(a,t)) rho0 dlab, integral of f(a) rho0 dlab).
    They agree for f = 1 (mass conservation) and, more generally, exactly
    when f is a material invariant of the flow.
    """
    labels = m.grid_labels()
    rho0 = m.reference_density_at(labels)
    mapped_vals = np.asarray(f(m.positions(labels, t)), dtype=float) * rho0
    ref_vals = np.asarray(f(labels), dtype=float) * rho0
    mapped = grid_integral(mapped_vals, m.grid.spacing, rule, m.grid.periodic)
    ref = grid_integral(ref_vals, m.grid.spacing, rule, m.grid.periodic)
    return float(mapped), float(ref)


def validate_analytic_partials(m, t, spec=StencilSpec(), factor=50.0):
    """Cross-check registered analytic partials against grid differences.

    Returns the max mismatch; raises if it exceeds factor * h^2 (a loose
    O(h^2) gate meant to catch transcription errors, not to measure order).
    """
    labels = m.grid_labels()
    F = m.label_partials(labels, t)
    if F is None:
        return 0.0
    F_fd = _fd_partials_on_grid(m, t, spec)
    interior = m.grid.interior_slices(2)
    err = float(np.max(np.abs((F - F_fd)[interior])))
    hmax = max(m.grid.spacing)
    gate = factor * hmax ** 2
    if err > gate:
        raise ValueError(
            f"analytic partials disagree with finite differences: {err:.3e} > {gate:.3e}"
        )
    return err


# ---------------------------------------------------------------------------
# columnar file format

_MAGIC = b"FLOWMAP1"


def save_flowmap(m, path, times=None, metadata=None):
    """Write a sampled trajectory table to ``path`` (+ JSON sidecar).

    Analytic maps are sampled at the given times first. Positions are stored
    node-major, then time, components innermost, as little-endian float64.
    """
    if isinstance(m, SampledFlowMap):
        times = m.times if times is None else np.asarray(times, float)
        table = np.stack([m.positions(m.grid_labels(), t) for t in times])
    else:
        if times is None:
            raise ValueError("saving an analytic map requires explicit times")
        times = np.asarray(times, dtype=float)
        labels = m.grid_labels()
        table = np.stack([m.positions(labels, t) for t in times])
    grid = m.grid
    nd = grid.ndim
    shape3 = tuple(grid.shape) + (1,) * (3 - nd)
    origin3 = tuple(grid.origin) + (0.0,) * (3 - nd)
    spacing3 = tuple(grid.spacing) + (1.0,) * (3 - nd)
    periodic3 = tuple(int(p) for p in grid.periodic) + (0,) * (3 - nd)
    header = struct.pack(
        "<8sI3I3d3d3BBI",
        _MAGIC, nd, *shape3, *origin3, *spacing3, *periodic3,
        0 if m.convention == "identity" else 1, len(times),
    )
    node_major = np.moveaxis(table.reshape(len(times), -1, 3), 0, 1)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(times.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(node_major, dtype="<f8").tobytes())
    side = {
        "format": "flowmaplab-flowmap",
        "version": 1,
        "name": m.name,
        "convention": m.convention,
        "grid": {"shape": list(grid.shape), "origin": list(grid.origin),
                 "spacing": list(grid.spacing), "periodic": list(grid.periodic)},
        "times": [float(t) for t in times],
    }
    if metadata:
        side.update(metadata)
    with open(str(path) + ".json", "w") as fh:
        json.dump(side, fh, indent=2, sort_keys=True)


def load_flowmap(path):
    """Read a trajectory table written by ``save_flowmap``.

    The result has no generating field: only table times and grid labels are
    queryable, with velocities reconstructed by time differences. A file with
    a bad magic, a bad header field (ndim, spacing) or a times block or
    payload shorter or longer than its header says raises a ValueError that
    names the fault.
    """
    head_size = struct.calcsize("<8sI3I3d3d3BBI")
    with open(path, "rb") as fh:
        head = fh.read(head_size)
        if len(head) < 8 or head[:8] != _MAGIC:
            raise ValueError(f"not a flowmap file: bad magic {head[:8]!r}")
        if len(head) < head_size:
            raise ValueError("truncated flowmap header")
        _, nd, n0, n1, n2, o0, o1, o2, h0, h1, h2, p0, p1, p2, conv, nt = struct.unpack(
            "<8sI3I3d3d3BBI", head
        )
        if not 1 <= nd <= 3:
            raise ValueError(f"bad flowmap header: ndim {nd} is not 1, 2 or 3")
        spacing = (h0, h1, h2)[:nd]
        if not all(np.isfinite(h) and h > 0 for h in spacing):
            raise ValueError(f"bad flowmap header: spacing {spacing} must be finite and > 0")
        grid = LabelGrid((n0, n1, n2)[:nd], (o0, o1, o2)[:nd], spacing,
                         tuple(bool(b) for b in (p0, p1, p2)[:nd]))
        raw = fh.read(8 * nt)
        if len(raw) != 8 * nt:
            raise ValueError(f"truncated flowmap times block: {len(raw)} of {8 * nt} bytes")
        times = np.frombuffer(raw, dtype="<f8")
        raw = fh.read()
        expected = 8 * 3 * nt * grid.node_count
        if len(raw) != expected:
            raise ValueError(
                f"{'truncated' if len(raw) < expected else 'oversized'} flowmap payload: "
                f"{len(raw)} bytes, header (nt={nt}, nodes={grid.node_count}) needs {expected}"
            )
        payload = np.frombuffer(raw, dtype="<f8")
    node_major = payload.reshape(grid.node_count, nt, 3)
    table = np.moveaxis(node_major, 1, 0).reshape((nt,) + grid.shape + (3,))
    return SampledFlowMap(
        grid, times, table,
        convention="identity" if conv == 0 else "generalized",
        name="loaded",
    )
