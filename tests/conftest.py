"""Shared test helpers."""

import numpy as np
import pytest

# per-axis (low, high) bounds of a box inside each shipped chart's validity
# domain; the elliptical box is for the default chart (alpha, beta, gamma) =
# (3, 2, 1), kept 0.05 clear of its ordering bounds
_CHART_BOXES = {
    "cylindrical": ((2e-3, 2.0), (-np.pi + 0.1, np.pi - 0.1), (-1.0, 1.0)),
    "polar": ((0.1, 2.0), (0.2, np.pi - 0.2), (-np.pi + 0.1, np.pi - 0.1)),
    "elliptical": ((2.0 + 0.05, 3.0 - 0.05), (1.0 + 0.05, 2.0 - 0.05), (0.05, 1.0 - 0.05)),
}


def _sample_domain(chart, rng, n):
    """(n, 3) chart coordinates drawn uniformly inside the chart's box; the
    cartesian and skewed charts take the cube [-1, 1]^3."""
    if chart.name in ("cartesian", "skewed"):
        return rng.uniform(-1.0, 1.0, size=(n, 3))
    return np.stack([rng.uniform(lo, hi, size=n) for lo, hi in _CHART_BOXES[chart.name]],
                    axis=-1)


@pytest.fixture
def sample_domain():
    return _sample_domain
