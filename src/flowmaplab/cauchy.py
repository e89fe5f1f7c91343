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
Grid data are plain arrays: the invariants contract the F array of
``deformation_gradient``, and ``eulerian_vorticity`` takes one (..., 3) array.

Vortex-line functions: two label scalars (phi, psi) whose joint level sets
are the initial vortex lines satisfy -2A = d(phi,psi)/d(b,c) and cyclic;
``vortex_line_function_residual`` grades candidate pairs against a given
invariant field (note the leading minus: pairs oriented with the half-curl
convention above satisfy the relations after exchanging phi and psi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (StencilSpec, _half_curl, _slab_gradient, divergence, gradient,
                    summarize_residual)
from .flowmap import (_analytic_partials, _pointwise_slabs, _uses_partials,
                      deformation_gradient)

__all__ = [
    "VorticityField",
    "cauchy_invariants",
    "invariant_drift",
    "solenoidality_residual",
    "eulerian_vorticity",
    "vortex_line_function_residual",
]


@dataclass
class VorticityField:
    """Half-curl components on labels (A,B,C) or positions (X,Y,Z).

    ``frame`` is "label" or "spatial"; operations refuse to mix frames.
    """

    grid: object
    values: np.ndarray
    frame: str = "label"
    mode: str = "fd"

    def __post_init__(self):
        if self.frame not in ("label", "spatial"):
            raise TypeError(f"unknown vorticity frame {self.frame!r}")


def _covelocity(m, labels, t, F):
    """(alpha, beta, gamma) = u . F: the velocity at ``labels`` contracted with
    the deformation gradient F there; at t=0 with identity labels, the
    velocity itself."""
    return np.einsum("...i,...ij->...j", m.velocities(labels, t), F)


def cauchy_invariants(m, t, spec=StencilSpec(), mode="auto"):
    """(A, B, C): half the label-space curl of the covelocity.

    When ``flowmap._uses_partials`` takes the map's label partials F and
    velocity partials G, the curl is exact (no grid truncation): half the
    antisymmetric part of D_jk = sum_i F_ij G_ik, Cauchy's first-derivative
    form. The covelocity's label derivative also carries
    u_i d2x_i/(dlab_j dlab_k), which is symmetric in (j, k) and cancels in
    the curl, so neither second partials nor velocities are evaluated;
    non-finite F or G raise in ``flowmap._analytic_partials``. Otherwise
    the covelocity is differentiated over the label grid with the given
    stencil, F being the whole-grid gradient ``deformation_gradient`` keeps.

    Both forms run on the slabs of whole axis-0 planes of
    ``flowmap._pointwise_slabs``, each written into the one result array:
    the partials and their product are slab-sized, and the covelocity is
    formed on a slab's planes plus the stencil's axis-0 halo
    (``grids._slab_gradient``), so each row is the whole-grid one bit for
    bit.
    """
    w = np.empty(m.grid.shape + (3,))
    if _uses_partials(m, mode, velocity=True):
        for sl in _pointwise_slabs(m):
            labels = m.grid._node_planes(sl)
            F = _analytic_partials(m.label_partials, labels, t)
            G = _analytic_partials(m.velocity_label_partials, labels, t)
            w[sl] = _half_curl(np.einsum("...ik,...ij->...jk", G, F))
        return VorticityField(m.grid, w, frame="label", mode="analytic")
    F = deformation_gradient(m, t, spec, mode)
    for sl in _pointwise_slabs(m):
        w[sl] = _half_curl(_slab_gradient(
            np.empty(w[sl].shape + (3,)),
            lambda rows: _covelocity(m, m.grid._node_planes(rows), t, F[rows]), m.grid, sl,
            spec.order))
    return VorticityField(m.grid, w, frame="label", mode=f"fd-order{spec.order}")


def invariant_drift(m, times, spec=StencilSpec(), mode="auto", rind=0):
    """Constancy-in-time check of the invariants: THE conservation test.

    Returns a dict with the drift, the largest deviation of a later field
    from the t0 field (not from any analytic value, so conservation is
    isolated from discretization bias), and the mode and stencil order that
    produced it. A NaN deviation makes the drift NaN.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("invariant drift needs at least two times")
    ref = cauchy_invariants(m, times[0], spec, mode)
    interior = m.grid.interior_slices(rind)
    # no name holds a field into the next time's build
    drift = np.max([_max_deviation(cauchy_invariants(m, t, spec, mode).values, ref.values,
                                   interior) for t in times[1:]])
    return {"drift": float(drift), "mode": ref.mode, "stencil_order": spec.order}


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


def eulerian_vorticity(vel, spec=StencilSpec(), *, grid):
    """(X, Y, Z) = half-curl of a velocity field sampled on a spatial grid.

    ``vel`` has shape grid.shape + (3,). The grid axes are x, y(, z);
    missing axes contribute zero derivatives (z-invariant embedded flows).
    """
    if np.shape(vel) != grid.shape + (3,):
        raise ValueError(f"velocity shape {np.shape(vel)} is not the grid's {grid.shape + (3,)}")
    vals = _half_curl(gradient(vel, spec, grid=grid))
    return VorticityField(grid, vals, frame="spatial")


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
