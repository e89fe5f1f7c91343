"""Equation-of-motion residuals in both dependences, and potential bookkeeping.

ForcePotential bundles the accelerating-force potential V(x, t), the pressure
(as a closed form over positions or over labels), and the barotropic pressure
function f(p) = integral dp/phi(p); for constant density f(p) = p/rho and the
combined potential is Omega = V - p/rho.

The Eulerian residual is the momentum balance evaluated on spatial fields;
the Lagrangian residual contracts (acceleration - force) with the deformation
gradient and adds the label-space pressure gradient. The two are related
node-wise by exactly that contraction, which ``chain_rule_mismatch`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (POINT_STENCIL_H, POTENTIAL_STENCIL_H, TIME_STEP, StencilSpec, _slab_gradient,
                    _time_difference, differentiate, point_jacobian, summarize_residual)
from .flowmap import (_analytic_partials, _pointwise_slabs, _uses_partials,
                      deformation_gradient)

__all__ = [
    "ForcePotential",
    "eulerian_eom_residual",
    "lagrangian_eom_residual",
    "eulerian_residual_at_points",
    "chain_rule_mismatch",
]


@dataclass
class ForcePotential:
    """Force potential V, pressure, and barotropic closure.

    V:            callable (points, t) -> scalar array, or None for zero.
    V_grad:       optional analytic gradient (points, t) -> (..., 3).
    pressure:     callable or constant; interpreted per ``pressure_frame``.
    pressure_frame: "position" (p as a function of x) or "label" (p given
                  directly over labels, as closed forms sometimes are).
    pressure_grad: optional analytic gradient in the pressure frame.
    density:      constant rho (> 0).
    f_of_p:       optional barotropic pressure function f(p); when absent and
                  density is constant, f(p) = p/rho.
    """

    V: object = None
    V_grad: object = None
    pressure: object = 0.0
    pressure_frame: str = "position"
    pressure_grad: object = None
    density: float = 1.0
    f_of_p: object = None

    def V_at(self, points, t=0.0):
        if self.V is None:
            return np.zeros(np.asarray(points).shape[:-1])
        return np.asarray(self.V(points, t), dtype=float)

    def V_grad_at(self, points, t=0.0):
        if self.V is None:
            return np.zeros(np.asarray(points).shape)
        if self.V_grad is not None:
            return np.asarray(self.V_grad(points, t), dtype=float)
        return point_jacobian(lambda p: self.V(p, t), points, POTENTIAL_STENCIL_H)

    def pressure_at(self, points, t=0.0):
        if callable(self.pressure):
            return np.asarray(self.pressure(points, t), dtype=float)
        return np.full(np.asarray(points).shape[:-1], float(self.pressure))

    def f_at(self, points, t=0.0):
        p = self.pressure_at(points, t)
        if self.f_of_p is not None:
            return np.asarray(self.f_of_p(p), dtype=float)
        return p / self.density

    def omega_at(self, points, t=0.0):
        """Omega = V - f(p); for constant density this is V - p/rho."""
        return self.V_at(points, t) - self.f_at(points, t)


def eulerian_eom_residual(u, v, w, fp, t=0.0, spec=StencilSpec(), rind=1):
    """Linf of the three steady momentum residuals on a common spatial grid.

    u, v, w: scalar Fields of the velocity components over a spatial grid
    whose axes are x, y(, z). The pressure and V come from ``fp`` evaluated
    at the grid nodes (pressure_frame must be "position").
    """
    grid = u.grid
    if fp.pressure_frame != "position":
        raise ValueError("eulerian residual needs a position-frame pressure")
    comps = [u.data, v.data, w.data]
    pts = grid.nodes3().reshape(grid.shape + (3,))
    p = fp.pressure_at(pts, t)
    Vg = fp.V_grad_at(pts, t)
    rho = fp.density
    out = []
    for i, c in enumerate(comps):
        adv = np.zeros(grid.shape)
        for k in range(grid.ndim):
            adv += comps[k] * differentiate(c, k, spec, grid=grid)
        dpdxi = differentiate(p, i, spec, grid=grid) if i < grid.ndim else np.zeros(grid.shape)
        res = adv - Vg[..., i] + dpdxi / rho
        out.append(summarize_residual(res, grid, rind=rind))
    return tuple(out)


def _pressure_label_gradient(grid, sl, labels, pos, fp, t, spec, F):
    """d p / d lab on the axis-0 planes ``sl`` of the grid, whose labels,
    positions and deformation gradient are ``labels``, ``pos`` and ``F``."""
    if fp.pressure_frame == "label":
        if fp.pressure_grad is not None:
            return np.asarray(fp.pressure_grad(labels, t), dtype=float)
        return _slab_gradient(lambda rows: fp.pressure_at(grid._node_planes(rows), t), grid,
                              sl, spec.order)
    # position-frame pressure: chain rule through the advected positions
    if fp.pressure_grad is not None:
        gp = np.asarray(fp.pressure_grad(pos, t), dtype=float)
    else:
        gp = point_jacobian(lambda p: fp.pressure_at(p, t), pos, POTENTIAL_STENCIL_H)
    return np.einsum("...i,...ij->...j", gp, F)


def _label_momentum(m, fp, t, spec, mode):
    """Per slab ``sl`` of ``flowmap._pointwise_slabs``: (sl, F, positions,
    label-space momentum residual) on those axis-0 planes at time t.

    F is the analytic partials on the slab when ``flowmap._uses_partials``
    takes them, else the rows of the whole-grid finite-difference gradient
    ``deformation_gradient`` keeps, built before the first slab.
    """
    F_grid = None if _uses_partials(m, mode) else deformation_gradient(m, t, spec, mode).values
    for sl in _pointwise_slabs(m):
        labels = m.grid._node_planes(sl)
        F = _analytic_partials(m.label_partials, labels, t) if F_grid is None else F_grid[sl]
        acc = m.accelerations(labels, t)
        pos = m.positions(labels, t)
        net = acc - fp.V_grad_at(pos, t)
        del acc
        dp = _pressure_label_gradient(m.grid, sl, labels, pos, fp, t, spec, F)
        del labels
        core = np.einsum("...i,...ij->...j", net, F)
        core += np.divide(dp, fp.density, out=net)  # net is spent: its buffer takes dp / rho
        yield sl, F, pos, core


def lagrangian_eom_residual(m, fp, t, spec=StencilSpec(), mode="auto", rind=0):
    """Linf of the label-space momentum residuals at time t.

    Per label axis j: sum_i (a_i - dV/dx_i) dx_i/dlab_j + (1/rho) dp/dlab_j.
    Accelerations use registered analytic callables when present, else a
    centered time difference at grids.ACCELERATION_STEP * the map's time scale.
    The map's callables are evaluated slab by slab (``_label_momentum``);
    only the three residual planes are whole-grid.
    """
    core = np.empty(m.grid.shape + (3,))
    for sl, _, _, part in _label_momentum(m, fp, t, spec, mode):
        core[sl] = part
    return tuple(summarize_residual(core[..., j], m.grid, rind=rind) for j in range(3))


def eulerian_residual_at_points(u_fn, fp, points, t):
    """Momentum residual of a velocity-field callable at arbitrary points.

    Space and time derivatives are central differences of the callable itself;
    used to check the chain-rule tie between the two residual forms away from
    any grid. The pressure must be position-frame, as in
    ``eulerian_eom_residual``.
    """
    if fp.pressure_frame != "position":
        raise ValueError("eulerian residual needs a position-frame pressure")
    pts = np.asarray(points, dtype=float)
    u0 = np.asarray(u_fn(pts, t), dtype=float)
    dudt = _time_difference(lambda s: u_fn(pts, s), t, TIME_STEP)
    grad_u = point_jacobian(lambda p: u_fn(p, t), pts, POINT_STENCIL_H)
    adv = np.einsum("...ik,...k->...i", grad_u, u0)
    force = fp.V_grad_at(pts, t)
    if fp.pressure_grad is not None:
        gp = np.asarray(fp.pressure_grad(pts, t), dtype=float)
    else:  # a constant pressure differences to exact zeros
        gp = point_jacobian(lambda p: fp.pressure_at(p, t), pts, POINT_STENCIL_H)
    return dudt + adv - force + gp / fp.density


def chain_rule_mismatch(m, fp, u_fn, t, spec=StencilSpec(), rind=1):
    """Max |lagrangian residual - F^T (eulerian residual at mapped points)|.

    The Lagrangian residual is, node-wise, the Eulerian one contracted with
    the deformation gradient; this measures how well the two discretizations
    realize that identity (O(h^2) for second-order stencils).
    """
    res = np.empty(m.grid.shape + (3,))
    for sl, F, pos, lag in _label_momentum(m, fp, t, spec, "auto"):
        eul = eulerian_residual_at_points(u_fn, fp, pos, t)
        contracted = np.einsum("...i,...ij->...j", eul, F)
        res[sl] = np.abs(lag - contracted)
    return summarize_residual(res, m.grid, rind=rind)
