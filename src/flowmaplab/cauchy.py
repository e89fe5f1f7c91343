"""Label-space vorticity invariants, covelocity, and vortex-line checks.

The covelocity (alpha, beta, gamma) is the velocity pulled back to label
space, alpha_j = sum_i u_i dx_i/dlab_j. Half its label-space curl gives the
invariants (A, B, C), which stay frozen in time for ideal barotropic flow
under potential forces; ``invariant_drift`` measures exactly that constancy.

Cauchy wrote the invariants with first label derivatives only,

    2A = sum_i (du_i/db dx_i/dc - du_i/dc dx_i/db)   and cyclic,

since the covelocity's second-derivative term u_i d2x_i/(dlab_j dlab_k) is
symmetric in the label pair and cancels in the curl (Frisch & Villone, Eur.
Phys. J. H 39:325, 2014). A map with exact label partials of positions and
velocities therefore gets exact invariants from those two alone.

Sign and factor conventions: this library stores (A, B, C) and the Eulerian
rotational velocities (X, Y, Z) as HALF the standard right-handed curl, so
the modern vorticity vector is 2*(A, B, C) at t=0 and 2*(X, Y, Z) at time t.
Every cross-check in the test suite states which side carries the factor 2.

Vortex-line functions: two label scalars (phi, psi) whose joint level sets
are the initial vortex lines satisfy -2A = d(phi,psi)/d(b,c) and cyclic;
``vortex_line_function_residual`` grades candidate pairs against a given
invariant field (note the leading minus: pairs oriented with the half-curl
convention above satisfy the relations after exchanging phi and psi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (Field, StencilSpec, _half_curl, curl, divergence, gradient,
                    summarize_residual)
from .flowmap import deformation_gradient

__all__ = [
    "LabelCovelocity",
    "VorticityField",
    "label_covelocity",
    "cauchy_invariants",
    "invariant_drift",
    "solenoidality_residual",
    "eulerian_vorticity",
    "vortex_line_function_residual",
]


@dataclass
class LabelCovelocity:
    """(alpha, beta, gamma) on the label grid at one time."""

    grid: object
    t: float
    values: np.ndarray  # grid.shape + (3,)
    mode: str = "fd"


@dataclass
class VorticityField:
    """Half-curl components on labels (A,B,C) or positions (X,Y,Z).

    ``frame`` is "label" or "spatial"; operations refuse to mix frames.
    """

    grid: object
    t: float
    values: np.ndarray
    frame: str = "label"
    mode: str = "fd"

    def __post_init__(self):
        if self.frame not in ("label", "spatial"):
            raise TypeError(f"unknown vorticity frame {self.frame!r}")


def label_covelocity(m, t, spec=StencilSpec(), mode="auto"):
    """Velocity contracted with the deformation gradient per node.

    At t=0 with identity labels this is the initial velocity field itself.
    F is fetched before the velocities are evaluated, so the gradient the map
    kept from an earlier time is released before that evaluation allocates.
    """
    g = deformation_gradient(m, t, spec, mode)
    u = m.velocities(m.grid_labels(), t)
    vals = np.einsum("...i,...ij->...j", u, g.values)
    return LabelCovelocity(m.grid, float(t), vals, mode=g.mode)


def cauchy_invariants(m, t, spec=StencilSpec(), mode="auto"):
    """(A, B, C): half the label-space curl of the covelocity.

    With the map's label partials F and velocity partials G registered the
    curl is exact (no grid truncation): half the antisymmetric part of
    D_jk = sum_i F_ij G_ik, Cauchy's first-derivative form. The covelocity's
    label derivative also carries u_i d2x_i/(dlab_j dlab_k), which is
    symmetric in (j, k) and cancels in the curl, so neither second partials
    nor velocities are evaluated. Otherwise the covelocity is differentiated
    over the label grid with the given stencil.
    """
    if mode in ("auto", "analytic"):
        labels = m.grid_labels()
        F = m.label_partials(labels, t)
        G = m.velocity_label_partials(labels, t)
        if F is not None and G is not None:
            w = _half_curl(np.einsum("...ik,...ij->...jk", G, F))
            return VorticityField(m.grid, float(t), w, frame="label", mode="analytic")
        if mode == "analytic":
            raise ValueError("map lacks the derivative callables for analytic invariants")
    cov = label_covelocity(m, t, spec, mode)
    w = curl(cov.values, spec, grid=m.grid)
    w *= 0.5
    return VorticityField(m.grid, float(t), w, frame="label", mode=f"fd-order{spec.order}")


def invariant_drift(m, times, spec=StencilSpec(), mode="auto", rind=0):
    """Constancy-in-time check of the invariants: THE conservation test.

    Returns a dict with the drift, the largest deviation of a later field
    from the t0 field (not from any analytic value, so conservation is
    isolated from discretization bias), and the mode and stencil order that
    produced it.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("invariant drift needs at least two times")
    ref = cauchy_invariants(m, times[0], spec, mode)
    interior = m.grid.interior_slices(rind)
    drift = 0.0
    for t in times[1:]:  # no name holds a field into the next time's build
        dev = _max_deviation(cauchy_invariants(m, t, spec, mode).values, ref.values, interior)
        drift = max(drift, dev)
    return {"drift": drift, "mode": ref.mode, "stencil_order": spec.order}


def _max_deviation(w, ref, interior):
    """max |w - ref| over the ``interior`` nodes, reduced in w's own (fresh)
    buffer."""
    w -= ref
    np.abs(w, out=w)
    return float(np.max(w[interior]))


def solenoidality_residual(w, spec=StencilSpec(), rind=0):
    """Linf of dA/da + dB/db + dC/dc for a label-frame invariant field."""
    if w.frame != "label":
        raise TypeError("solenoidality residual expects a label-frame field")
    div = divergence(w.values, spec, grid=w.grid)
    return summarize_residual(div, w.grid, rind=rind)


def eulerian_vorticity(u, v, w, spec=StencilSpec(), t=0.0):
    """(X, Y, Z) = half-curl of a velocity field sampled on a spatial grid.

    The grid axes are x, y(, z); missing axes contribute zero derivatives
    (z-invariant embedded flows).
    """
    grid = u.grid if isinstance(u, Field) else None
    if grid is None:
        raise TypeError("eulerian_vorticity expects Fields on a spatial grid")
    vec = np.stack([u.data, v.data, w.data], axis=-1)
    vals = 0.5 * curl(vec, spec, grid=grid)
    return VorticityField(grid, float(t), vals, frame="spatial")


def vortex_line_function_residual(phi, psi, w, spec=StencilSpec(), rind=0):
    """Linf mismatch of -2(A,B,C) against the (phi, psi) Jacobian pairs.

    phi, psi: scalar arrays on w.grid. The three relations
    checked are -2A = dphi/db dpsi/dc - dphi/dc dpsi/db and cyclic.
    """
    if w.frame != "label":
        raise TypeError("vortex-line functions live in label space")
    grid = w.grid
    gp = gradient(np.asarray(phi, float), spec, grid=grid)
    gq = gradient(np.asarray(psi, float), spec, grid=grid)
    cross = np.stack(
        [gp[..., 1] * gq[..., 2] - gp[..., 2] * gq[..., 1],
         gp[..., 2] * gq[..., 0] - gp[..., 0] * gq[..., 2],
         gp[..., 0] * gq[..., 1] - gp[..., 1] * gq[..., 0]], axis=-1,
    )
    res = np.max(np.abs(-2.0 * w.values - cross), axis=-1)
    return summarize_residual(res, grid, rind=rind)
