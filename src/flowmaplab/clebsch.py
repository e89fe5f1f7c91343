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

The triples and advected scalars of the exact flows are carried by their
catalog entries (``flows.CatalogEntry``); an entry's Bernoulli Omega is its
force potential's ``omega_at``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (POTENTIAL_STENCIL_H, TIME_STEP, StencilSpec, _half_curl, _time_difference,
                    divergence, gradient, point_jacobian, summarize_residual)

__all__ = [
    "ClebschTriple",
    "clebsch_vorticity_residual",
    "clebsch_advection_residual",
    "potential_flow_checks",
    "incompressibility_residual",
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
    norms).
    """

    F: object = None
    phi: object = None
    psi: object = None
    cut_mask: object = None

    def velocity(self, pts, t=0.0):
        """u = grad F + phi grad psi at the given points."""
        gF = _fd_gradient(self.F, pts, t)
        gpsi = _fd_gradient(self.psi, pts, t)
        phi = _call_scalar(self.phi, pts, t)
        return gF + phi[..., None] * gpsi


def _fd_gradient(fn, pts, t):
    if fn is None:
        return np.zeros(np.asarray(pts).shape)
    return point_jacobian(lambda p: fn(p, t), pts, POTENTIAL_STENCIL_H)


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


def clebsch_vorticity_residual(ct, grid, t=0.0, spec=StencilSpec(), rind=1):
    """Linf of curl(u) - grad phi x grad psi on a spatial grid.

    All derivatives are taken by the grid stencils, so the residual measures
    how well the sampled triple realizes its own curl identity, at O(h^2).
    """
    pts = _grid_points(grid)
    u = ct.velocity(pts, t)
    cu = 2.0 * _half_curl(gradient(u, spec, grid=grid))
    gphi = gradient(_call_scalar(ct.phi, pts, t), spec, grid=grid)
    gpsi = gradient(_call_scalar(ct.psi, pts, t), spec, grid=grid)
    cross = np.cross(gphi, gpsi)
    mask = _cut_exclusion_mask(ct.cut_mask, grid, spec)
    res = np.max(np.abs(cu - cross), axis=-1)
    return summarize_residual(res, grid, rind=rind, mask=mask)


def clebsch_advection_residual(ct, velocity_fn, grid, t=0.0, spec=StencilSpec(), rind=1):
    """Material-derivative residuals (for phi, for psi) under a velocity field.

    d/dt + u . grad of each potential, with the time term by a centered
    difference of the callable and the space term by grid stencils.
    """
    pts = _grid_points(grid)
    u = np.asarray(velocity_fn(pts, t), dtype=float)
    out = []
    mask = _cut_exclusion_mask(ct.cut_mask, grid, spec)
    for fn in (ct.phi, ct.psi):
        ddt = _time_difference(lambda s: _call_scalar(fn, pts, s), t, TIME_STEP)
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


def potential_flow_checks(F_fn, omega_fn, grid, t=0.0, spec=StencilSpec(), rind=1,
                          cut_mask=None):
    """Laplace and Bernoulli residuals for a velocity potential.

    Returns (laplace_summary, bernoulli_summary): Linf of the grid Laplacian
    of F, and of dF/dt + |grad F|^2 / 2 - Omega. omega_fn(points, t) is the
    combined potential V - p (a catalog entry's ``force.omega_at``), in
    F's gauge: Omega + c(t) moves the residual by c(t) unless F absorbs it.
    """
    pts = _grid_points(grid)
    vals = np.asarray(F_fn(pts, t), dtype=float)
    gF = gradient(vals, spec, grid=grid)
    lap = divergence(gF, spec, grid=grid)
    dFdt = _time_difference(lambda s: F_fn(pts, s), t, TIME_STEP)
    bern = dFdt + 0.5 * np.einsum("...i,...i->...", gF, gF) - np.asarray(omega_fn(pts, t), dtype=float)
    mask = _cut_exclusion_mask(cut_mask, grid, spec)
    lap_s = summarize_residual(lap, grid, rind=max(rind, 1), mask=mask)
    bern_s = summarize_residual(bern, grid, rind=rind, mask=mask)
    return lap_s, bern_s
