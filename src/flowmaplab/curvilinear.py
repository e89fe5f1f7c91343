"""Curvilinear coordinate charts, metric coefficients, transformed equations
of motion, the transformed density equation, and the axisymmetric angular
invariant H = r^2 dtheta/dt.

A chart maps positions (x, y, z) to coordinates (rho1, rho2, rho3) and back.
The arc element in chart coordinates is

    ds^2 = N1 drho1^2 + N2 drho2^2 + N3 drho3^2
         + 2 n3 drho1 drho2 + 2 n1 drho2 drho3 + 2 n2 drho3 drho1,

with N_i the squared lengths of the coordinate tangents and n_i the cross
products of neighbouring tangents. For orthogonal charts (n_i = 0) the
equations of motion take the compact form

    2 dOmega/drho_i = 2 d(N_i drho_i/dt)/dt - sum_j (drho_j/dt)^2 dN_j/drho_i

and contracting with d(rho_i)/d(rho_j^0), rho^0 = forward(labels), gives the
label (initial-coordinate) form. Both forms summarize one residual R, whose
time derivative is a centred difference at grids.ACCELERATION_STEP times the
map's time scale, so a chart and Omega are all they need. The transformed
density equation compares the initial-coordinate Jacobian against
sqrt(det Gram0 / det Gram), which for orthogonal charts is
sqrt(N1^0 N2^0 N3^0 / (N1 N2 N3)).

Shipped charts: cartesian (trivial), cylindrical (r, theta, z), polar
(spherical r, theta colatitude from +z, phi azimuth), and the confocal
elliptical chart whose coordinates are the ordered roots of

    x^2/(alpha^2 - e^2) + y^2/(beta^2 - e^2) + z^2/(gamma^2 - e^2) = 1,

with alpha > rho1 > beta > rho2 > gamma > rho3 > 0, found for all points at
once as companion-matrix eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (ACCELERATION_STEP, POTENTIAL_STENCIL_H, StencilSpec, _time_difference, gradient,
                    point_jacobian, summarize_residual)
from .flowmap import det3, inv3

__all__ = [
    "Chart",
    "MetricCoefficients",
    "chart_metrics",
    "curvilinear_eom_residual",
    "curvilinear_lagrangian_eom_residual",
    "curvilinear_density_residual",
    "svanberg_invariant",
    "cartesian_chart",
    "cylindrical_chart",
    "polar_chart",
    "elliptical_chart",
    "skewed_chart",
]

# the cylindrical and polar charts exclude r (and polar sin theta) below this
SINGULAR_MARGIN = 1e-3


@dataclass
class Chart:
    """Coordinate chart with forward/inverse maps and optional exact partials.

    forward:  (..., 3) positions  -> (..., 3) chart coordinates
    inverse:  (..., 3) chart coords -> (..., 3) positions
    position_partials: optional (rho) -> (..., 3, 3) with [i, j] = dx_i/drho_j
    metric_partials:   optional (rho) -> (..., 3, 3) with [i, j] = dN_i/drho_j
                       (orthogonal charts only)
    domain:  predicate over chart coords marking the validity region
    """

    name: str
    forward: object
    inverse: object
    position_partials: object = None
    metric_partials: object = None
    orthogonal: bool = False
    domain: object = None

    def partials_at(self, rho):
        if self.position_partials is not None:
            return np.asarray(self.position_partials(np.asarray(rho, float)), dtype=float)
        return point_jacobian(self.inverse, rho, POTENTIAL_STENCIL_H)

    def check_domain(self, rho):
        if self.domain is not None and not np.all(self.domain(np.asarray(rho, float))):
            raise ValueError(f"points outside the {self.name} chart validity domain")


@dataclass
class MetricCoefficients:
    """N = (N1, N2, N3) and cross terms n = (n1, n2, n3) per point.

    The Gram matrix [[N1, n3, n2], [n3, N2, n1], [n2, n1, N3]] is symmetric
    positive definite on the validity domain.
    """

    N: np.ndarray  # (..., 3)
    n: np.ndarray  # (..., 3)

    def gram(self):
        g = np.empty(self.N.shape[:-1] + (3, 3))
        g[..., 0, 0] = self.N[..., 0]
        g[..., 1, 1] = self.N[..., 1]
        g[..., 2, 2] = self.N[..., 2]
        g[..., 0, 1] = g[..., 1, 0] = self.n[..., 2]
        g[..., 1, 2] = g[..., 2, 1] = self.n[..., 0]
        g[..., 2, 0] = g[..., 0, 2] = self.n[..., 1]
        return g


def chart_metrics(chart, rho):
    """Metric coefficients from the position partials at chart points."""
    rho = np.asarray(rho, dtype=float)
    chart.check_domain(rho)
    P = chart.partials_at(rho)  # dx_i/drho_j
    N = np.einsum("...ij,...ij->...j", P, P)
    n = np.stack(
        [np.einsum("...i,...i->...", P[..., 1], P[..., 2]),
         np.einsum("...i,...i->...", P[..., 2], P[..., 0]),
         np.einsum("...i,...i->...", P[..., 0], P[..., 1])], axis=-1,
    )
    return MetricCoefficients(N, n)


def _trajectory_chart_rates(m, chart, t):
    """Chart coordinates, their time rates and the metric coefficients N at
    the map's grid nodes.

    rho(t) = forward(x(a, t)); rates by the chain rule drho = (drho/dx) u;
    N_j = sum_i (dx_i/drho_j)^2 from the same partials.
    """
    labels = m.grid_labels()
    pos = m.positions(labels, t)
    vel = m.velocities(labels, t)
    rho = np.asarray(chart.forward(pos), dtype=float)
    chart.check_domain(rho)
    P = chart.partials_at(rho)
    rates = np.einsum("...ij,...j->...i", inv3(P), vel)
    return rho, rates, np.einsum("...ij,...ij->...j", P, P)


def _metric_partials(chart, rho):
    if chart.metric_partials is not None:
        return np.asarray(chart.metric_partials(np.asarray(rho, float)), dtype=float)
    return point_jacobian(lambda r: chart_metrics(chart, r).N, rho, POTENTIAL_STENCIL_H)


def _chart_momentum(m, chart, omega_fn, t, omega_grad):
    """Chart coordinates rho and the momentum residual R (see
    ``curvilinear_eom_residual``) at the map's grid nodes at time t. The
    Omega gradient is omega_grad(rho) when given, else central differences
    of omega_fn (~1e-10 of roundoff)."""
    if not chart.orthogonal:
        raise ValueError("the chart momentum residual needs an orthogonal chart")

    def momentum(s):  # N_i rho_i' along the trajectories at time s
        _, rates_s, N_s = _trajectory_chart_rates(m, chart, s)
        return N_s * rates_s

    rho, rates, _ = _trajectory_chart_rates(m, chart, t)
    dPdt = _time_difference(momentum, t, ACCELERATION_STEP * m.timescale)
    dN = _metric_partials(chart, rho)
    dOm = (np.asarray(omega_grad(rho), dtype=float) if omega_grad is not None
           else point_jacobian(omega_fn, rho, POTENTIAL_STENCIL_H))
    # [..., j, i] = rho_j'^2 dN_j/drho_i, summed over j
    return rho, 2 * dOm - 2 * dPdt + np.sum(rates[..., :, None] ** 2 * dN, axis=-2)


def curvilinear_eom_residual(m, chart, omega_fn, t, rind=0, omega_grad=None):
    """Summaries of the three orthogonal-chart momentum residuals at time t,

        R_i = 2 dOmega/drho_i - 2 d(N_i rho_i')/dt + sum_j rho_j'^2 dN_j/drho_i.

    d/dt is a centred difference of N_i rho_i' along each trajectory at
    grids.ACCELERATION_STEP times the map's time scale: exact for steady
    chart-rate motions, O(dt^2) otherwise. omega_fn is the combined
    potential Omega as a function of chart coordinates, omega_grad an
    optional analytic chart gradient of it. Raises for non-orthogonal
    charts: the compact form only holds when the cross metric terms vanish.
    """
    _, R = _chart_momentum(m, chart, omega_fn, t, omega_grad)
    return tuple(summarize_residual(R[..., i], m.grid, rind=rind) for i in range(3))


def _chart_jacobian(rho, rho0, spec, grid):
    """J[i, j] = d(rho_i)/d(rho0_j) = d(rho_i)/dlab_k * (d(rho0)/dlab)^-1[k, j],
    with both label gradients taken by grid differences.

    Label axes absent from 1D/2D grids: embedded flows are z-invariant with
    the chart's third coordinate equal to z = c, so d(rho3)/dc = 1 there.
    """
    drho_dlab = gradient(rho, spec, grid=grid)
    drho0_dlab = gradient(rho0, spec, grid=grid)
    for d in (drho_dlab, drho0_dlab):
        d[..., :, grid.ndim:] = 0.0
        d[..., 2, grid.ndim:] = 1.0
    return np.einsum("...ik,...kj->...ij", drho_dlab, inv3(drho0_dlab))


def curvilinear_lagrangian_eom_residual(m, chart, omega_fn, t, spec=StencilSpec(),
                                        rind=0, omega_grad=None):
    """Initial-coordinate (label) form of the chart momentum residuals:
    summaries of sum_i R_i d(rho_i)/d(rho_j^0), with R as in
    ``curvilinear_eom_residual``.

    rho^0 = chart.forward(labels): on an identity-at-zero map, the chart
    coordinates at t=0. Under the cartesian chart rho^0 is the labels, so
    the contraction is with dx/da, as in ``lagrangian_eom_residual``, on
    any map.
    """
    rho, R = _chart_momentum(m, chart, omega_fn, t, omega_grad)
    rho0 = np.asarray(chart.forward(m.grid_labels()), dtype=float)
    RJ = np.einsum("...i,...ij->...j", R, _chart_jacobian(rho, rho0, spec, m.grid))
    return tuple(summarize_residual(RJ[..., j], m.grid, rind=rind) for j in range(3))


def curvilinear_density_residual(m, chart, t, spec=StencilSpec(), density_ratio=1.0,
                                 rind=1):
    """Mismatch of the transformed density equation at time t.

    Compares det(d rho_i / d rho_j^0) * (rho/rho0 ratio) against
    sqrt(det Gram0 / det Gram), which holds for any chart.
    """
    grid = m.grid
    labels = m.grid_labels()
    rho_t = np.asarray(chart.forward(m.positions(labels, t)), dtype=float)
    rho_0 = np.asarray(chart.forward(m.positions(labels, 0.0)), dtype=float)
    chart.check_domain(rho_t)
    det_jac = det3(_chart_jacobian(rho_t, rho_0, spec, grid))
    rhs = np.sqrt(det3(chart_metrics(chart, rho_0).gram())
                  / det3(chart_metrics(chart, rho_t).gram()))
    res = det_jac * density_ratio - rhs
    return summarize_residual(res, grid, rind=rind)


def svanberg_invariant(m, times, rind=0):
    """Per-particle drift of H = r^2 dtheta/dt about the z axis.

    H = x v - y u is the angular momentum per unit mass; for axisymmetric
    potentials it is constant along each trajectory. Returns ``drift``, the
    largest |H(t) - H(t0)| over the later times, and ``H_reference``, the t0
    values.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two times")
    labels = m.grid_labels()

    def H(t):
        pos = m.positions(labels, t)
        vel = m.velocities(labels, t)
        return pos[..., 0] * vel[..., 1] - pos[..., 1] * vel[..., 0]

    H0 = H(times[0])
    drift = float(np.max([summarize_residual(np.abs(H(t) - H0), m.grid, rind=rind).linf
                          for t in times[1:]]))  # NaN propagates
    return {"drift": drift, "H_reference": H0}


# ---------------------------------------------------------------------------
# shipped charts


def cartesian_chart():
    ident = lambda p: np.asarray(p, dtype=float).copy()

    def partials(rho):
        F = np.zeros(np.asarray(rho).shape[:-1] + (3, 3))
        F[..., 0, 0] = F[..., 1, 1] = F[..., 2, 2] = 1.0
        return F

    def metric_partials(rho):
        return np.zeros(np.asarray(rho).shape[:-1] + (3, 3))

    return Chart("cartesian", ident, ident, partials, metric_partials, orthogonal=True)


def cylindrical_chart():
    """(r, theta, z): x = r cos theta, y = r sin theta. N = (1, r^2, 1)."""

    def forward(p):
        p = np.asarray(p, dtype=float)
        r = np.hypot(p[..., 0], p[..., 1])
        th = np.arctan2(p[..., 1], p[..., 0])
        return np.stack([r, th, p[..., 2]], axis=-1)

    def inverse(rho):
        rho = np.asarray(rho, dtype=float)
        return np.stack(
            [rho[..., 0] * np.cos(rho[..., 1]),
             rho[..., 0] * np.sin(rho[..., 1]),
             rho[..., 2]], axis=-1,
        )

    def partials(rho):
        rho = np.asarray(rho, dtype=float)
        r, th = rho[..., 0], rho[..., 1]
        F = np.zeros(rho.shape[:-1] + (3, 3))
        F[..., 0, 0] = np.cos(th)
        F[..., 0, 1] = -r * np.sin(th)
        F[..., 1, 0] = np.sin(th)
        F[..., 1, 1] = r * np.cos(th)
        F[..., 2, 2] = 1.0
        return F

    def metric_partials(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros(rho.shape[:-1] + (3, 3))
        out[..., 1, 0] = 2.0 * rho[..., 0]  # dN2/dr
        return out

    def domain(rho):
        return rho[..., 0] > SINGULAR_MARGIN

    return Chart("cylindrical", forward, inverse, partials, metric_partials,
                 orthogonal=True, domain=domain)


def polar_chart():
    """Spherical (r, theta, phi): theta the colatitude from +z, phi the
    azimuth. N = (1, r^2, r^2 sin^2 theta)."""

    def forward(p):
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        th = np.arccos(np.clip(p[..., 2] / np.where(r == 0, 1.0, r), -1.0, 1.0))
        ph = np.arctan2(p[..., 1], p[..., 0])
        return np.stack([r, th, ph], axis=-1)

    def inverse(rho):
        rho = np.asarray(rho, dtype=float)
        r, th, ph = rho[..., 0], rho[..., 1], rho[..., 2]
        st = np.sin(th)
        return np.stack([r * st * np.cos(ph), r * st * np.sin(ph), r * np.cos(th)], axis=-1)

    def partials(rho):
        rho = np.asarray(rho, dtype=float)
        r, th, ph = rho[..., 0], rho[..., 1], rho[..., 2]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        F = np.zeros(rho.shape[:-1] + (3, 3))
        F[..., 0, 0] = st * cp
        F[..., 0, 1] = r * ct * cp
        F[..., 0, 2] = -r * st * sp
        F[..., 1, 0] = st * sp
        F[..., 1, 1] = r * ct * sp
        F[..., 1, 2] = r * st * cp
        F[..., 2, 0] = ct
        F[..., 2, 1] = -r * st
        return F

    def metric_partials(rho):
        rho = np.asarray(rho, dtype=float)
        r, th = rho[..., 0], rho[..., 1]
        out = np.zeros(rho.shape[:-1] + (3, 3))
        out[..., 1, 0] = 2.0 * r                       # dN2/dr
        out[..., 2, 0] = 2.0 * r * np.sin(th) ** 2     # dN3/dr
        out[..., 2, 1] = 2.0 * r * r * np.sin(th) * np.cos(th)  # dN3/dtheta
        return out

    def domain(rho):
        rho = np.asarray(rho, dtype=float)
        return (rho[..., 0] > SINGULAR_MARGIN) & (np.sin(rho[..., 1]) > SINGULAR_MARGIN)

    return Chart("polar", forward, inverse, partials, metric_partials,
                 orthogonal=True, domain=domain)


def elliptical_chart(alpha=3.0, beta=2.0, gamma=1.0):
    """Confocal elliptical coordinates: the ordered roots in epsilon^2 of
    x^2/(alpha^2-e^2) + y^2/(beta^2-e^2) + z^2/(gamma^2-e^2) = 1.

    ``forward`` solves the cubic in s = e^2 at every point at once, as the
    eigenvalues of its stacked companion matrices, sorts the roots and clips
    them to their brackets (beta^2, alpha^2), (gamma^2, beta^2), (0, gamma^2),
    so that alpha >= rho1 >= beta >= rho2 >= gamma >= rho3 >= 0. A point
    outside the ellipsoid x^2/alpha^2 + y^2/beta^2 + z^2/gamma^2 = 1 has a
    negative smallest root and no chart coordinates: it gets rho3 = 0, which
    the domain excludes.
    """
    a2, b2, g2 = float(alpha) ** 2, float(beta) ** 2, float(gamma) ** 2
    if not (alpha > beta > gamma > 0):
        raise ValueError("need alpha > beta > gamma > 0")

    def inverse(rho):
        rho = np.asarray(rho, dtype=float)
        r1, r2, r3 = rho[..., 0] ** 2, rho[..., 1] ** 2, rho[..., 2] ** 2
        x2 = (a2 - r1) * (a2 - r2) * (a2 - r3) / ((a2 - b2) * (a2 - g2))
        y2 = (b2 - r1) * (b2 - r2) * (b2 - r3) / ((b2 - a2) * (b2 - g2))
        z2 = (g2 - r1) * (g2 - r2) * (g2 - r3) / ((g2 - a2) * (g2 - b2))
        return np.stack([np.sqrt(np.maximum(x2, 0.0)),
                         np.sqrt(np.maximum(y2, 0.0)),
                         np.sqrt(np.maximum(z2, 0.0))], axis=-1)

    def forward(p):
        # the cubic in s, monic: prod(c - s) - x^2 (b2 - s)(g2 - s) - ... = 0;
        # its roots are the eigenvalues of the companion matrix np.roots builds
        p = np.asarray(p, dtype=float)
        x2, y2, z2 = p[..., 0] ** 2, p[..., 1] ** 2, p[..., 2] ** 2
        c2 = -(a2 + b2 + g2) + x2 + y2 + z2
        c1 = (a2 * b2 + b2 * g2 + g2 * a2) - x2 * (b2 + g2) - y2 * (a2 + g2) - z2 * (a2 + b2)
        c0 = -(a2 * b2 * g2) + x2 * b2 * g2 + y2 * a2 * g2 + z2 * a2 * b2
        companion = np.zeros(p.shape[:-1] + (3, 3))
        companion[..., 0, 0], companion[..., 0, 1], companion[..., 0, 2] = -c2, -c1, -c0
        companion[..., 1, 0] = companion[..., 2, 1] = 1.0
        s = np.sort(np.real(np.linalg.eigvals(companion)), axis=-1)[..., ::-1]
        # near coincident roots round-off can push a root past its bracket
        return np.sqrt(np.clip(s, (b2, g2, 0.0), (a2, b2, g2)))

    def partials(rho):
        rho = np.asarray(rho, dtype=float)
        pos = inverse(rho)
        F = np.empty(rho.shape[:-1] + (3, 3))
        consts = (a2, b2, g2)
        for i in range(3):        # position component
            for j in range(3):    # chart coordinate
                F[..., i, j] = -pos[..., i] * rho[..., j] / (consts[i] - rho[..., j] ** 2)
        return F

    def domain(rho):
        rho = np.asarray(rho, dtype=float)
        return (
            (alpha > rho[..., 0]) & (rho[..., 0] > beta)
            & (beta > rho[..., 1]) & (rho[..., 1] > gamma)
            & (gamma > rho[..., 2]) & (rho[..., 2] > 0)
        )

    return Chart("elliptical", forward, inverse, partials, None,
                 orthogonal=True, domain=domain)


def skewed_chart():
    """Deliberately non-orthogonal chart (rho1=x, rho2=x+y, rho3=z)."""

    def forward(p):
        p = np.asarray(p, dtype=float)
        return np.stack([p[..., 0], p[..., 0] + p[..., 1], p[..., 2]], axis=-1)

    def inverse(rho):
        rho = np.asarray(rho, dtype=float)
        return np.stack([rho[..., 0], rho[..., 1] - rho[..., 0], rho[..., 2]], axis=-1)

    return Chart("skewed", forward, inverse, orthogonal=False)
