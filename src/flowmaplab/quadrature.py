"""Composite quadrature for line, surface, and volume integrals.

The samples choose the rule, one axis at a time: a periodic axis gets
uniform weights, an axis with an even interval count (odd node count)
Simpson's weights, and any other axis trapezoid weights. No caller picks a
rule, so every integral in the library works on any sample count and is
exact on cubics wherever the count allows it. Line integrals run around
closed loops. Reductions go through numpy's pairwise summation, so results
are deterministic and independent of how callers parallelize around them.
"""

from __future__ import annotations

import numpy as np

from .grids import _diff_along_axis0

__all__ = [
    "axis_weights",
    "grid_integral",
    "path_integral",
]

# loop tangents to ~h^4, which matters for circulation values asserted near
# machine precision
LOOP_TANGENT_ORDER = 4


def axis_weights(n, h, periodic=False):
    """1D quadrature weights for n samples with spacing h, rule as above."""
    if n < 2:
        raise ValueError("need at least 2 samples per axis")
    if periodic:
        # closed loop: uniform weights (n cells)
        return np.full(n, h)
    if n % 2:
        w = np.full(n, 2 * h / 3)
        w[1::2] = 4 * h / 3
        w[0] = w[-1] = h / 3
        return w
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def grid_integral(values, spacings, periodic=None):
    """Tensor-product integral of sampled values over a 1-3 axis uniform grid.

    ``values`` may carry trailing component axes; those are preserved.
    """
    values = np.asarray(values, dtype=float)
    spacings = tuple(np.atleast_1d(spacings))
    nd = len(spacings)
    if periodic is None:
        periodic = (False,) * nd
    if values.ndim < nd:
        raise ValueError("values have fewer axes than spacings")
    out = values
    for axis in range(nd - 1, -1, -1):
        w = axis_weights(values.shape[axis], spacings[axis], periodic[axis])
        shape = [1] * out.ndim
        shape[axis] = len(w)
        out = np.sum(out * w.reshape(shape), axis=axis)
    return out


def path_integral(points, vectors):
    """Integral of vectors . dx around a closed loop of uniformly spaced samples.

    The samples are treated as one period of a smooth curve in the parameter
    s_i = 2*pi*i/N: tangents dx/ds are central differences of order
    LOOP_TANGENT_ORDER, and the uniform periodic weights are spectrally
    accurate there. The stencils need 6 samples or more, as on a grid axis.
    """
    pts = np.asarray(points, dtype=float)
    vec = np.asarray(vectors, dtype=float)
    if pts.shape != vec.shape:
        raise ValueError("points and vectors must have matching shapes")
    if pts.shape[0] < 6:
        raise ValueError(f"a closed path needs >= 6 samples, got {pts.shape[0]}")
    ds = 2 * np.pi / pts.shape[0]
    tangents = _diff_along_axis0(pts, ds, LOOP_TANGENT_ORDER, wrap=True)
    integrand = np.sum(vec * tangents, axis=-1)
    return float(np.sum(integrand) * ds)
