"""Composite quadrature for line, surface, and volume integrals.

Rules: trapezoid and simpson, both on node samples (simpson needs an even
interval count per axis); a periodic axis gets uniform weights under
either. Line integrals run around closed loops. Reductions go through numpy's
pairwise summation, so results are deterministic and independent of how
callers parallelize around them.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .grids import _diff_along_axis0

__all__ = [
    "QuadratureRule",
    "TRAPEZOID",
    "SIMPSON",
    "axis_weights",
    "grid_integral",
    "path_integral",
    "closed_path_tangents",
]


@dataclass(frozen=True)
class QuadratureRule:
    kind: str

    def __post_init__(self):
        if self.kind not in ("trapezoid", "simpson"):
            raise ValueError(f"unknown quadrature rule {self.kind!r}")


TRAPEZOID = QuadratureRule("trapezoid")
SIMPSON = QuadratureRule("simpson")


def _as_rule(rule):
    if isinstance(rule, QuadratureRule):
        return rule
    return QuadratureRule(str(rule))


def axis_weights(n, h, rule, periodic=False):
    """1D quadrature weights for n samples with spacing h."""
    rule = _as_rule(rule)
    if n < 2:
        raise ValueError("need at least 2 samples per axis")
    if periodic:
        # closed loop: uniform weights (n cells)
        return np.full(n, h)
    if rule.kind == "trapezoid":
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        return w
    # simpson
    if (n - 1) % 2 != 0:
        raise ValueError("Simpson needs an even interval count (odd node count)")
    w = np.full(n, 2 * h / 3)
    w[1::2] = 4 * h / 3
    w[0] = w[-1] = h / 3
    return w


def grid_integral(values, spacings, rule=TRAPEZOID, periodic=None):
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
        w = axis_weights(values.shape[axis], spacings[axis], rule, periodic[axis])
        shape = [1] * out.ndim
        shape[axis] = len(w)
        out = np.sum(out * w.reshape(shape), axis=axis)
    return out


def closed_path_tangents(points, order=4):
    """dx/ds of a uniformly parameterized closed polyline, shape (N, d).

    Central finite differences on the periodic parameter s_i = 2*pi*i/N.
    Order 4 keeps the tangent error ~h^4, which matters for circulation
    values asserted near machine precision.
    """
    pts = np.asarray(points, dtype=float)
    return _diff_along_axis0(pts, 2 * np.pi / pts.shape[0], order, wrap=True)


def path_integral(points, vectors, tangent_order=4):
    """Integral of vectors . dx around a closed loop of uniformly spaced samples.

    The samples are treated as one period of a smooth curve (trapezoid there
    is spectrally accurate in the parameter).
    """
    pts = np.asarray(points, dtype=float)
    vec = np.asarray(vectors, dtype=float)
    if pts.shape != vec.shape:
        raise ValueError("points and vectors must have matching shapes")
    if pts.shape[0] < 2:
        raise ValueError("empty path")
    tangents = closed_path_tangents(pts, order=tangent_order)
    integrand = np.sum(vec * tangents, axis=-1)
    return float(np.sum(integrand) * (2 * np.pi / pts.shape[0]))
