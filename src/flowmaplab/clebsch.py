"""Clebsch decomposition u = grad F + phi grad psi and its residual checks.

The library checks GIVEN triples (F, phi, psi); it never constructs phi and
psi from a velocity field (an ill-posed global problem). Checks cover the
velocity assembly, the vorticity identity curl u = grad phi x grad psi, the
material advection of phi and psi, incompressibility, and the irrotational
specialization: Laplace residual of a velocity potential and the unsteady
Bernoulli integral dF/dt + |grad F|^2 / 2 - Omega = 0.

Multivalued potentials (the point-vortex azimuth) declare a branch cut; every
stencil touching the cut is dropped from norms (a summary's ``excluded``
counts these nodes with the rind's).

The triples, Bernoulli functions and advected scalars of the exact flows are
carried by their catalog entries (``flows.CatalogEntry``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import StencilSpec, curl, divergence, gradient, point_jacobian, summarize_residual

__all__ = [
    "ClebschTriple",
    "clebsch_velocity",
    "clebsch_vorticity_residual",
    "clebsch_advection_residual",
    "potential_flow_checks",
]


def _call_scalar(fn, pts, t):
    if fn is None:
        return np.zeros(np.asarray(pts).shape[:-1])
    return np.asarray(fn(pts, t), dtype=float)


@dataclass
class ClebschTriple:
    """Scalar callables (points, t) -> values for F, phi, psi.

    cut_mask: optional callable (points) -> bool array, True where a point
    is adjacent to a declared branch cut (those stencils are excluded from
    norms). smoothness of the fields is probed at construction sites by the
    mixed-partial commutation check in ``smoothness_residual``.
    """

    F: object = None
    phi: object = None
    psi: object = None
    cut_mask: object = None

    def velocity(self, pts, t=0.0, h=1e-6):
        gF = _fd_gradient(self.F, pts, t, h)
        gpsi = _fd_gradient(self.psi, pts, t, h)
        phi = _call_scalar(self.phi, pts, t)
        return gF + phi[..., None] * gpsi

    def smoothness_residual(self, pts, t=0.0, h=1e-4):
        """Max mixed-partial commutation defect over F, phi, psi (FD probe)."""
        worst = 0.0
        for fn in (self.F, self.phi, self.psi):
            if fn is None:
                continue
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, float(np.max(np.abs(
                        _fd_mixed(fn, pts, t, i, j, h) - _fd_mixed(fn, pts, t, j, i, h)
                    ))))
        return worst


def _fd_gradient(fn, pts, t, h=1e-6):
    if fn is None:
        return np.zeros(np.asarray(pts).shape)
    return point_jacobian(lambda p: fn(p, t), pts, h)


def _fd_mixed(fn, pts, t, i, j, h):
    pts = np.asarray(pts, dtype=float)
    di = np.zeros(3)
    di[i] = h
    dj = np.zeros(3)
    dj[j] = h
    return (
        np.asarray(fn(pts + di + dj, t)) - np.asarray(fn(pts + di - dj, t))
        - np.asarray(fn(pts - di + dj, t)) + np.asarray(fn(pts - di - dj, t))
    ) / (4 * h * h)


def _grid_points(grid):
    return grid.nodes3().reshape(grid.shape + (3,))


def _cut_exclusion_mask(cut_mask, grid, spec):
    """Nodes whose stencil neighbourhood misses the declared cut (None when
    there is no cut). The cut widens by the stencil reach along each axis,
    wrapping around the ends of periodic axes only."""
    if cut_mask is None:
        return None
    near = np.asarray(cut_mask(_grid_points(grid)), dtype=bool)
    reach = 2 if spec.order == 4 else 1
    bad = near.copy()
    for axis, periodic in enumerate(grid.periodic):
        for shift in [s for r in range(1, reach + 1) for s in (r, -r)]:
            moved = np.roll(near, shift, axis=axis)
            if not periodic:  # drop what the roll carried around the end
                ends = [slice(None)] * near.ndim
                ends[axis] = slice(0, shift) if shift > 0 else slice(shift, None)
                moved[tuple(ends)] = False
            bad |= moved
    return ~bad


def clebsch_velocity(ct, pts, t=0.0, h=1e-6):
    """u = grad F + phi grad psi at the given points."""
    return ct.velocity(pts, t, h)


def clebsch_vorticity_residual(ct, grid, t=0.0, spec=StencilSpec(), rind=1):
    """Linf of curl(u) - grad phi x grad psi on a spatial grid.

    All derivatives are taken by the grid stencils, so the residual measures
    how well the sampled triple realizes its own curl identity, at O(h^2).
    """
    pts = _grid_points(grid)
    u = ct.velocity(pts, t)
    cu = curl(u, spec, grid=grid)
    gphi = gradient(_call_scalar(ct.phi, pts, t), spec, grid=grid)
    gpsi = gradient(_call_scalar(ct.psi, pts, t), spec, grid=grid)
    cross = np.cross(gphi, gpsi)
    mask = _cut_exclusion_mask(ct.cut_mask, grid, spec)
    res = np.max(np.abs(cu - cross), axis=-1)
    return summarize_residual(res, grid, rind=rind, mask=mask)


def clebsch_advection_residual(ct, velocity_fn, grid, t=0.0, spec=StencilSpec(),
                               dt=1e-5, rind=1):
    """Material-derivative residuals (for phi, for psi) under a velocity field.

    d/dt + u . grad of each potential, with the time term by a centered
    difference of the callable and the space term by grid stencils.
    """
    pts = _grid_points(grid)
    u = np.asarray(velocity_fn(pts, t), dtype=float)
    out = []
    mask = _cut_exclusion_mask(ct.cut_mask, grid, spec)
    for fn in (ct.phi, ct.psi):
        vals_p = _call_scalar(fn, pts, t + dt)
        vals_m = _call_scalar(fn, pts, t - dt)
        ddt = (vals_p - vals_m) / (2 * dt)
        grad = gradient(_call_scalar(fn, pts, t), spec, grid=grid)
        res = ddt + np.einsum("...i,...i->...", u, grad)
        out.append(summarize_residual(res, grid, rind=rind, mask=mask))
    return tuple(out)


def incompressibility_residual(ct, grid, t=0.0, spec=StencilSpec(), rind=1):
    """Linf of div(grad F + phi grad psi) on the grid."""
    pts = _grid_points(grid)
    u = ct.velocity(pts, t)
    mask = _cut_exclusion_mask(ct.cut_mask, grid, spec)
    return summarize_residual(divergence(u, spec, grid=grid), grid, rind=rind, mask=mask)


def potential_flow_checks(F_fn, omega_fn, grid, t=0.0, spec=StencilSpec(),
                          dt=1e-5, rind=1, cut_mask=None):
    """Laplace and Bernoulli residuals for a velocity potential.

    Returns (laplace_summary, bernoulli_summary): Linf of the grid Laplacian
    of F, and of dF/dt + |grad F|^2 / 2 - Omega. omega_fn(points, t) is the
    combined potential; a function of t alone shifts nothing (gauge).
    """
    pts = _grid_points(grid)
    vals = np.asarray(F_fn(pts, t), dtype=float)
    gF = gradient(vals, spec, grid=grid)
    lap = divergence(gF, spec, grid=grid)
    dFdt = (np.asarray(F_fn(pts, t + dt)) - np.asarray(F_fn(pts, t - dt))) / (2 * dt)
    bern = dFdt + 0.5 * np.einsum("...i,...i->...", gF, gF) - np.asarray(omega_fn(pts, t), dtype=float)
    mask = _cut_exclusion_mask(cut_mask, grid, spec)
    lap_s = summarize_residual(lap, grid, rind=max(rind, 1), mask=mask)
    bern_s = summarize_residual(bern, grid, rind=rind, mask=mask)
    return lap_s, bern_s
