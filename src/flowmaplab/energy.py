"""Kinetic-energy (living force) accounting over material domains.

K(t) = 1/2 * integral of |velocity|^2 rho0 over labels, evaluated entirely in
label space (the volume-integral transform makes spatial resampling
unnecessary). Every integral here uses the rule its samples choose
(``quadrature.axis_weights``): Simpson's on an axis with an odd node count,
trapezoid on one with an even count, uniform on a periodic one. The
energy-flux identity dK/dt = boundary integral of V * U_n
holds for incompressible motion driven by the potential V with no pressure
work at the boundary; the residual operation measures it with dK/dt by
centered time differences and the flux by surface quadrature on advected
boundary patches.

For irrotational flow with harmonic potential F the volume energy
1/2 * integral |grad F|^2 equals the boundary integral 1/2 * surface integral
of F dF/dn with the OUTWARD normal derivative; the identity ships with the
one-half factor written on both sides. The stationarity implication is
checked alongside: when dF/dn vanishes on the whole boundary the energy, and
with it the entire gradient field, must vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import StencilSpec, _time_difference, divergence, gradient
from .quadrature import grid_integral

__all__ = [
    "EnergyLedger",
    "living_force",
    "momentum_integral",
    "energy_flux_residual",
    "boundary_energy_identity",
]

# a max |dF/dn| at or below this counts as a vanishing normal derivative
HELMHOLTZ_TOL = 1e-10


def living_force(m, t):
    """K(t) = 1/2 integral |u|^2 rho0 d(labels). On axes with an odd node
    count the quadrature is Simpson's, so the quadratic integrands of
    solid-body motions integrate exactly there."""
    labels = m.grid_labels()
    vel = m.velocities(labels, t)
    rho0 = m.reference_density_at(labels)
    dens = 0.5 * np.einsum("...i,...i->...", vel, vel) * rho0
    K = float(grid_integral(dens, m.grid.spacing, m.grid.periodic))
    if K < -1e-12:
        raise ValueError("negative kinetic energy: inconsistent densities")
    return K


def momentum_integral(m, t):
    """Integral of rho0 * u over labels, one value per component."""
    labels = m.grid_labels()
    vel = m.velocities(labels, t)
    rho0 = m.reference_density_at(labels)
    return np.array([
        float(grid_integral(vel[..., i] * rho0, m.grid.spacing, m.grid.periodic))
        for i in range(3)
    ])


@dataclass
class EnergyLedger:
    """K(t) samples, centered dK/dt, boundary fluxes, and their mismatch."""

    K: np.ndarray
    dKdt: np.ndarray
    flux: np.ndarray

    @property
    def residual(self):
        return float(np.max(np.abs(self.dKdt - self.flux)))


def _boundary_flux(m, V_fn, surfaces, t):
    """Surface integral of V * U_n over advected boundary patches.

    Patch normals must point outward; U_n is the map velocity against the
    advected unit normal, and the area element comes from the same parameter
    tangents.
    """
    total = 0.0
    for surf in surfaces:
        pos, nw = surf.advected_normals(m, t)
        vel = m.velocities(surf.labels, t)
        Vvals = np.asarray(V_fn(pos, t), dtype=float)
        integrand = Vvals * np.einsum("...i,...i->...", vel, nw)
        w1, w2 = surf.param_weights()
        total += float(np.sum(integrand * w1[:, None] * w2[None, :]))
    return total


def energy_flux_residual(m, V_fn, times, boundary_surfaces, dt=None):
    """Ledger comparing dK/dt against the V * U_n boundary flux at each time.

    dK/dt uses centered differences with step dt (default 1e-3 of the map
    time scale). K >= 0 and strictly increasing times are enforced.
    """
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("ledger times must be strictly increasing")
    dt = dt if dt is not None else 1e-3 * m.timescale
    K = np.array([living_force(m, t) for t in times])
    dKdt = np.array([_time_difference(lambda s: living_force(m, s), t, dt) for t in times])
    flux = np.array([_boundary_flux(m, V_fn, boundary_surfaces, t) for t in times])
    return EnergyLedger(K, dKdt, flux)


def _box_faces(grid):
    """Outward-normal face descriptions of a 3-axis box grid."""
    faces = []
    for axis in range(3):
        for side, sign in ((0, -1.0), (grid.shape[axis] - 1, 1.0)):
            faces.append((axis, side, sign))
    return faces


def boundary_energy_identity(F_fn, grid, spec=StencilSpec(), grad_fn=None):
    """Volume-vs-boundary energy identity for a harmonic potential on a box.

    Computes volume_side = 1/2 * integral |grad F|^2 over the box and
    boundary_side = 1/2 * surface integral F * dF/dn (outward normal, normal
    derivative by one-sided order-2 differences unless an analytic gradient
    is supplied). Returns a dict with both sides, their mismatch, the grid
    Laplace residual of F (harmonicity gate), and the stationarity check:
    when the max |dF/dn| over the boundary is at most HELMHOLTZ_TOL (a NaN
    is not) the energy must vanish at the discretization level, and
    ``stationary_energy`` reports it for the caller to assert against
    C*h^2 bounds.
    """
    if grid.ndim != 3:
        raise ValueError("boundary energy identity needs a 3-axis box grid")
    pts = grid.nodes3().reshape(grid.shape + (3,))
    vals = np.asarray(F_fn(pts), dtype=float)
    g_fd = gradient(vals, spec, grid=grid)
    gF = g_fd if grad_fn is None else np.asarray(grad_fn(pts), dtype=float)
    laplace_linf = float(np.abs(divergence(g_fd, spec, grid=grid)).max())

    energy_density = 0.5 * np.einsum("...i,...i->...", gF, gF)
    volume_side = float(grid_integral(energy_density, grid.spacing, grid.periodic))

    boundary_side = 0.0
    max_dFdn = 0.0
    for axis, idx, sign in _box_faces(grid):
        sl = [slice(None)] * 3
        sl[axis] = idx
        sl = tuple(sl)
        face_F = vals[sl]
        dFdn = sign * gF[sl + (axis,)]
        max_dFdn = float(np.maximum(max_dFdn, np.abs(dFdn).max()))  # NaN propagates
        spacings = [grid.spacing[k] for k in range(3) if k != axis]
        periodic = [grid.periodic[k] for k in range(3) if k != axis]
        boundary_side += float(grid_integral(face_F * dFdn, spacings, periodic))
    boundary_side *= 0.5

    return {
        "volume_side": volume_side,
        "boundary_side": boundary_side,
        "residual": abs(volume_side - boundary_side),
        "laplace_linf": laplace_linf,
        "normal_derivative_vanishes": max_dFdn <= HELMHOLTZ_TOL,
        "stationary_energy": volume_side if max_dFdn <= HELMHOLTZ_TOL else None,
        "max_gradient": float(np.abs(gF).max()),
    }
