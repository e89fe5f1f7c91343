"""Material loops and surfaces: circulation, vorticity flux, Stokes and
Kelvin checks, and vortex-tube section equality.

Loops and surfaces are defined by label points and advected exactly through
the flow map (sampled maps advect the actual loop labels through their
generating field, never re-interpolating the trajectory table). Velocity
along a loop is the map's velocity at the loop's label points.

Conventions: loop samples are uniform in parameter; circulation integrates
u . dx/ds ds with ``quadrature.path_integral``'s order-4 tangents (keeps
absolute circulation values near machine precision on smooth loops); flux
surface tangents are order-2 parameter differences (SURFACE_TANGENT_ORDER),
so flux-vs-circulation mismatches converge at second order. Surface weights
are those the parameter samples choose (``quadrature.axis_weights``).
Surface normals follow the right-hand rule relative to the boundary
orientation, and the flux integrand is 2 * (X, Y, Z) . n dS, i.e. the full
vorticity vector against the advected normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _diff_along_axis0, _half_curl
from .quadrature import axis_weights, path_integral
from .flowmap import deformation_at, velocity_gradient_at, inv3

__all__ = [
    "MaterialLoop",
    "MaterialSurface",
    "StokesCheck",
    "circulation",
    "label_circulation",
    "vorticity_flux",
    "stokes_residual",
    "kelvin_drift",
    "tube_section_flux",
    "spatial_half_vorticity_at",
]

SURFACE_TANGENT_ORDER = 2


def _frame_from_normal(normal):
    """Orthonormal (e1, e2, n) with n along ``normal``. A normal whose squared
    length overflows or underflows is divided by its largest |component|
    first; any other is normalised by its length directly."""
    n = np.asarray(normal, dtype=float)
    with np.errstate(over="ignore"):
        length = np.linalg.norm(n)
    if not 0 < length < np.inf:
        scale = np.max(np.abs(n))  # NaN propagates
        if not 0 < scale < np.inf:
            raise ValueError(f"normal {n.tolist()} is not a finite vector of non-zero length")
        n = n / scale
        length = np.linalg.norm(n)
    n = n / length
    trial = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, trial)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2, n


@dataclass
class MaterialLoop:
    """Ordered closed polyline of particle labels (closure implicit).

    Samples are uniform in the loop parameter; n >= 16 for quadrature
    validity, no repeated consecutive points.
    """

    labels: np.ndarray  # (N, 3)

    def __post_init__(self):
        pts = np.asarray(self.labels, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("loop labels must have shape (N, 3)")
        if pts.shape[0] < 16:
            raise ValueError("loops need at least 16 points")
        seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        if np.any(seg == 0.0):
            raise ValueError("repeated consecutive loop points")
        self.labels = pts

    @classmethod
    def circle(cls, center=(0.0, 0.0, 0.0), radius=1.0, normal=(0.0, 0.0, 1.0), n=256):
        if radius <= 0:
            raise ValueError("loop radius must be positive")
        e1, e2, _ = _frame_from_normal(normal)
        s = 2 * np.pi * np.arange(n) / n
        pts = (np.asarray(center, float)[None, :]
               + radius * np.cos(s)[:, None] * e1[None, :]
               + radius * np.sin(s)[:, None] * e2[None, :])
        return cls(pts)

    def reversed(self):
        return MaterialLoop(self.labels[::-1].copy())


@dataclass
class MaterialSurface:
    """Parameterized patch of labels on an (M, N) parameter grid.

    param_periodic marks which parameter axis wraps (e.g. the angular axis
    of a disk). ``boundary_loop`` extracts the outer boundary in the
    orientation matching the right-hand rule with the patch normal.
    """

    labels: np.ndarray  # (M, N, 3)
    param_periodic: tuple = (False, False)

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=float)
        if lab.ndim != 3 or lab.shape[2] != 3:
            raise ValueError("surface labels must have shape (M, N, 3)")
        if lab.shape[0] < 2 or lab.shape[1] < 8:
            raise ValueError("surface parameter grid too coarse")
        self.labels = lab
        self.param_periodic = tuple(bool(p) for p in self.param_periodic)

    @classmethod
    def disk(cls, center=(0.0, 0.0, 0.0), radius=1.0, normal=(0.0, 0.0, 1.0),
             nr=32, ntheta=256, lift=None):
        """Flat disk (or cap lifted by ``lift(r)`` along the normal).

        Parameter axes: radius (non-periodic) x angle (periodic). The outer
        boundary ring equals MaterialLoop.circle with the same n and
        orientation (counterclockwise around the normal).
        """
        if radius <= 0:
            raise ValueError(f"disk radius must be positive, got {radius!r}")
        e1, e2, nrm = _frame_from_normal(normal)
        r = np.linspace(0.0, radius, nr)
        s = 2 * np.pi * np.arange(ntheta) / ntheta
        R, S = np.meshgrid(r, s, indexing="ij")
        pts = (np.asarray(center, float)[None, None, :]
               + (R * np.cos(S))[..., None] * e1
               + (R * np.sin(S))[..., None] * e2)
        if lift is not None:
            pts = pts + np.asarray(lift(R))[..., None] * nrm
        return cls(pts, param_periodic=(False, True))

    @classmethod
    def rectangle(cls, corner, edge1, edge2, n1=32, n2=32):
        """Flat parallelogram patch spanned by edge vectors from a corner."""
        c = np.asarray(corner, float)
        e1 = np.asarray(edge1, float)
        e2 = np.asarray(edge2, float)
        s1 = np.linspace(0.0, 1.0, n1)
        s2 = np.linspace(0.0, 1.0, n2)
        A, B = np.meshgrid(s1, s2, indexing="ij")
        pts = c[None, None, :] + A[..., None] * e1 + B[..., None] * e2
        return cls(pts, param_periodic=(False, False))

    def boundary_loop(self):
        """Outer boundary of the patch as a MaterialLoop, in patch orientation."""
        if self.param_periodic[1] and not self.param_periodic[0]:
            return MaterialLoop(self.labels[-1])
        if self.param_periodic == (False, False):
            # traverse the four edges right-handedly about e1 x e2
            ring = np.vstack([self.labels[:, 0], self.labels[-1, 1:],
                              self.labels[-2::-1, -1], self.labels[0, -2:0:-1]])
            return MaterialLoop(ring)
        raise ValueError("boundary extraction unsupported for this periodicity")

    def advected_normals(self, m, t):
        """Unnormalized normals T1 x T2 (area-weighted) on the advected patch."""
        pos = m.positions(self.labels, t)
        t1 = _param_derivative(pos, 0, self.param_periodic[0])
        t2 = _param_derivative(pos, 1, self.param_periodic[1])
        return pos, np.cross(t1, t2)

    def param_weights(self):
        """Quadrature weights in s on both parameter axes, s as in the tangents."""
        return tuple(axis_weights(n, _param_step(n, p), p)
                     for n, p in zip(self.labels.shape[:2], self.param_periodic))


def _param_step(n, periodic):
    return 2 * np.pi / n if periodic else 1.0 / (n - 1)


def _param_derivative(pos, axis, periodic):
    """d(pos)/ds along one parameter axis; s spans 2*pi on periodic axes and
    [0, 1] on clamped axes (uniform samples either way), with one-sided
    rows of the same order at clamped ends."""
    h = _param_step(pos.shape[axis], periodic)
    out = _diff_along_axis0(np.moveaxis(pos, axis, 0), h, SURFACE_TANGENT_ORDER, periodic)
    return np.moveaxis(out, 0, axis)


def circulation(m, loop, t):
    """Closed-loop integral of u . dx along the advected loop at time t."""
    pos = m.positions(loop.labels, t)
    if np.max(np.linalg.norm(pos - pos.mean(axis=0), axis=1)) < 1e-14:
        raise ValueError("degenerate loop: near-zero extent")
    vel = m.velocities(loop.labels, t)
    return path_integral(pos, vel)


def label_circulation(m, loop, t):
    """Circulation in label space: covelocity . dlabel along the label loop.

    Hankel's Lagrangian form of the value ``circulation`` returns, with its
    own tangents, so the two are independent discretizations that agree to
    quadrature tolerance.
    """
    covel = np.einsum("...i,...ij->...j", m.velocities(loop.labels, t),
                      deformation_at(m, loop.labels, t))
    return path_integral(loop.labels, covel)


def spatial_half_vorticity_at(m, labels, t):
    """(X, Y, Z) at the mapped points of arbitrary labels.

    Built from the instantaneous kinematics: the velocity gradient in space
    is G F^-1 (label derivatives chained through the inverse deformation
    gradient), and the half-curl is read off its antisymmetric part.
    """
    F = deformation_at(m, labels, t)
    G = velocity_gradient_at(m, labels, t)
    return _half_curl(np.einsum("...ik,...kj->...ij", G, inv3(F)))


def vorticity_flux(m, surf, t):
    """2 * integral of (X, Y, Z) . n dS over the advected surface.

    The factor 2 makes the value the flux of the full vorticity vector, which
    is what circulation equals under the Stokes identity.
    """
    pos, nw = surf.advected_normals(m, t)
    w = spatial_half_vorticity_at(m, surf.labels, t)
    integrand = 2.0 * np.sum(w * nw, axis=-1)
    w1, w2 = surf.param_weights()
    return float(np.sum(integrand * w1[:, None] * w2[None, :]))


@dataclass
class StokesCheck:
    circulation: float
    flux: float

    @property
    def residual(self):
        return abs(self.circulation - self.flux)


def stokes_residual(m, loop, surf, t):
    """|circulation around the loop - vorticity flux through its spanning
    surface| at time t, with both values reported."""
    return StokesCheck(circulation(m, loop, t), vorticity_flux(m, surf, t))


def kelvin_drift(m, loop, times):
    """Max over times of |circulation(t) - circulation(t0)| on a material
    loop; a NaN circulation makes it NaN."""
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("kelvin drift needs at least two times")
    c0 = circulation(m, loop, times[0])
    return float(np.max([abs(circulation(m, loop, t) - c0) for t in times[1:]]))


def tube_section_flux(m, section_a, section_b, t):
    """Vorticity flux through two sections cutting one vortex tube.

    Returns (flux_a, flux_b, |difference|); equal fluxes are the discrete
    form of the equal-section property of vortex tubes.
    """
    fa = vorticity_flux(m, section_a, t)
    fb = vorticity_flux(m, section_b, t)
    return fa, fb, abs(fa - fb)
