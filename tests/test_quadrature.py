"""Sample-chosen quadrature rules and path integrals."""

import numpy as np
import pytest

from flowmaplab import LabelGrid
from flowmaplab.quadrature import axis_weights, grid_integral, path_integral


def test_zero_integrand_closed_loop():
    s = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([np.cos(s), np.sin(s), 0 * s], axis=-1)
    assert path_integral(pts, np.zeros_like(pts)) == 0.0


@pytest.mark.parametrize("n", [0, 1, 5])
def test_short_path_named(n):
    # the order-4 loop tangents need 6 samples, as an order-4 grid axis does
    pts = np.zeros((n, 3))
    with pytest.raises(ValueError, match=f"a closed path needs >= 6 samples, got {n}"):
        path_integral(pts, pts)


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
    # 16 nodes per axis: an odd interval count, so trapezoid weights
    g = LabelGrid((16, 16, 16), (0, 0, 0), (1 / 15, 1 / 15, 1 / 15))
    out = grid_integral(np.ones(g.shape), g.spacing)
    assert out == pytest.approx(1.0, abs=1e-14)


def test_simpson_exact_on_cubics():
    # 17 nodes: an even interval count, so Simpson's weights
    g = LabelGrid((17,), (0.0,), (1 / 16,))
    x = g.axis_coords(0)
    out = grid_integral(x ** 3, g.spacing)
    assert out == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("n", [4, 16, 32])
def test_even_node_counts_integrate_linears_exactly(n):
    # an even node count cannot take Simpson's rule; trapezoid weights are
    # exact on linears there, and the quadratic term shows they are not Simpson
    g = LabelGrid((n,), (0.0,), (1 / (n - 1),))
    x = g.axis_coords(0)
    assert grid_integral(3 * x + 2, g.spacing) == pytest.approx(3.5, abs=1e-14)
    h = g.spacing[0]
    assert grid_integral(x ** 2, g.spacing) == pytest.approx(1 / 3 + h ** 2 / 6, abs=1e-14)


def test_rule_chosen_per_axis():
    # odd count on axis 0 (Simpson, exact on y^3), even count on axis 1
    # (trapezoid, exact on the linear factor)
    g = LabelGrid((9, 8), (0.0, 0.0), (1 / 8, 1 / 7))
    y, z = np.meshgrid(g.axis_coords(0), g.axis_coords(1), indexing="ij")
    vals = y ** 3 * (1 + z)
    assert grid_integral(vals, g.spacing) == pytest.approx(0.25 * 1.5, abs=1e-14)


def test_weights_follow_the_samples():
    h = 0.5
    assert axis_weights(5, h).tolist() == [h / 3, 4 * h / 3, 2 * h / 3, 4 * h / 3, h / 3]
    assert axis_weights(4, h).tolist() == [h / 2, h, h, h / 2]
    for n in (4, 5):
        assert axis_weights(n, h, periodic=True).tolist() == [h] * n


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        grid_integral(np.zeros((0,)), (0.1,))


def test_deterministic_reduction():
    # fixed-order pairwise reduction: repeated calls (and calls racing in a
    # thread pool) give bit-identical values; reversing the node traversal
    # direction agrees to roundoff
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(3)
    vals = rng.normal(size=(9, 9, 9))
    g = LabelGrid((9, 9, 9), (0, 0, 0), (0.1, 0.2, 0.3))
    a = grid_integral(vals, g.spacing)
    with ThreadPoolExecutor(max_workers=4) as pool:
        repeats = list(pool.map(lambda _: grid_integral(vals, g.spacing), range(16)))
    assert all(r == a for r in repeats)
    b = grid_integral(vals[::-1, ::-1, ::-1], g.spacing)
    assert abs(a - b) < 1e-14 * max(1.0, abs(a))


def test_periodic_weights_uniform():
    # uniform weights on a periodic smooth function: spectrally accurate at
    # either parity
    for n in (32, 33):
        g = LabelGrid((n,), (0.0,), (2 * np.pi / n,), (True,))
        x = g.axis_coords(0)
        val = grid_integral(np.sin(x) ** 2, g.spacing, g.periodic)
        assert val == pytest.approx(np.pi, abs=1e-13)
