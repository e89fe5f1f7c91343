"""Quadrature rules and path integrals."""

import numpy as np
import pytest

from flowmaplab import LabelGrid
from flowmaplab.quadrature import (
    SIMPSON,
    TRAPEZOID,
    QuadratureRule,
    grid_integral,
    path_integral,
)


def test_unknown_rule_rejected():
    for kind in ("gauss", "midpoint"):
        with pytest.raises(ValueError):
            QuadratureRule(kind)


def test_zero_integrand_closed_loop():
    s = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([np.cos(s), np.sin(s), 0 * s], axis=-1)
    assert path_integral(pts, np.zeros_like(pts)) == 0.0


def test_circle_area_from_path():
    # closed-form oracle: the 1-form x dy integrates to the enclosed area pi
    n = 256
    s = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([np.cos(s), np.sin(s), 0 * s], axis=-1)
    vecs = np.zeros_like(pts)
    vecs[:, 1] = pts[:, 0]  # x dy
    val = path_integral(pts, vecs)
    assert abs(val - np.pi) < 1e-3


def test_unit_cube_constant_trapezoid_exact():
    g = LabelGrid((17, 17, 17), (0, 0, 0), (1 / 16, 1 / 16, 1 / 16))
    vals = np.ones(g.shape)
    out = grid_integral(vals, g.spacing, TRAPEZOID)
    assert out == pytest.approx(1.0, abs=1e-14)


def test_simpson_exact_on_cubics():
    g = LabelGrid((17,), (0.0,), (1 / 16,))
    x = g.axis_coords(0)
    out = grid_integral(x ** 3, g.spacing, SIMPSON)
    assert out == pytest.approx(0.25, abs=1e-15)


def test_simpson_rejects_odd_interval_count():
    g = LabelGrid((16,), (0.0,), (1 / 15,))
    with pytest.raises(ValueError):
        grid_integral(np.ones(16), g.spacing, SIMPSON)


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        grid_integral(np.zeros((0,)), (0.1,), TRAPEZOID)


def test_deterministic_reduction():
    # fixed-order pairwise reduction: repeated calls (and calls racing in a
    # thread pool) give bit-identical values; reversing the node traversal
    # direction agrees to roundoff
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(3)
    vals = rng.normal(size=(9, 9, 9))
    g = LabelGrid((9, 9, 9), (0, 0, 0), (0.1, 0.2, 0.3))
    a = grid_integral(vals, g.spacing, TRAPEZOID)
    with ThreadPoolExecutor(max_workers=4) as pool:
        repeats = list(pool.map(lambda _: grid_integral(vals, g.spacing, TRAPEZOID), range(16)))
    assert all(r == a for r in repeats)
    b = grid_integral(vals[::-1, ::-1, ::-1], g.spacing, TRAPEZOID)
    assert abs(a - b) < 1e-14 * max(1.0, abs(a))


def test_periodic_weights_uniform():
    g = LabelGrid((32,), (0.0,), (2 * np.pi / 32,), (True,))
    x = g.axis_coords(0)
    # trapezoid on a periodic smooth function: spectrally accurate
    val = grid_integral(np.sin(x) ** 2, g.spacing, TRAPEZOID, g.periodic)
    assert val == pytest.approx(np.pi, abs=1e-13)
