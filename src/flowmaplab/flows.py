"""Catalog of exact Euler solutions expressed as Lagrangian flow maps.

Closed-form entries: rigid_rotation, uniform_translation, simple_shear,
stagnation, gerstner. Trajectory-integrated entries (classical 4-stage
Runge-Kutta over a steady velocity field): point_vortex, taylor_green.

The first four are affine in the labels, x = M(t) a + U t under the steady
field u = L x + U; ``_affine_entry`` derives each one's positions, velocity,
acceleration and label partials from its (M(t), L, U).

Every entry carries the force potential and pressure it solves the momentum
balance under, plus its known kinematic properties, and self-validates at
construction: registered analytic partials are cross-checked against finite
differences and the Lagrangian momentum residual is evaluated on the entry's
grid at a nonzero time.

Entries also carry their Eulerian velocity u(x, t) where the flow has one in
closed form or is integrated from one (every flow but gerstner), and the
Clebsch data the ``clebsch`` checks read: a triple (F, phi, psi) realizing
u, the Bernoulli Omega of a pure potential F, and a pair of materially
advected scalars.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field as dc_field

import numpy as np

from .clebsch import ClebschTriple
from .grids import LabelGrid, StencilSpec
from .flowmap import (
    AnalyticFlowMap,
    SampledFlowMap,
    validate_analytic_partials,
)
from .dynamics import ForcePotential, lagrangian_eom_residual

__all__ = [
    "CatalogEntry",
    "default_grid",
    "catalog_flow",
    "catalog_names",
    "catalog_params",
    "integrate_trajectories",
    "rk4_advect",
]


class ParticleEscapeError(RuntimeError):
    """A trajectory left the caller-declared bounding box: the flow is
    unbounded there or the integration is under-resolved."""


def rk4_advect(field_fn, labels, t0, t1, dt, bbox=None):
    """Advect points through a velocity field with fixed-step RK4.

    field_fn(points, t) -> velocities. dt is a target step; the interval is
    covered by equal steps no larger than dt (reversed sign for t1 < t0).
    """
    pts = np.array(labels, dtype=float)
    span = float(t1) - float(t0)
    if span == 0.0:
        return pts
    nsteps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
    h = span / nsteps
    t = float(t0)
    for _ in range(nsteps):
        k1 = np.asarray(field_fn(pts, t))
        k2 = np.asarray(field_fn(pts + 0.5 * h * k1, t + 0.5 * h))
        k3 = np.asarray(field_fn(pts + 0.5 * h * k2, t + 0.5 * h))
        k4 = np.asarray(field_fn(pts + h * k3, t + h))
        pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if bbox is not None:
            lo, hi = np.asarray(bbox[0]), np.asarray(bbox[1])
            if np.any(pts < lo) or np.any(pts > hi):
                raise ParticleEscapeError(
                    f"particle left bounding box {bbox} at t={t:.6g}"
                )
    return pts


def integrate_trajectories(field_fn, grid, times, dt, bbox=None, name="sampled",
                           timescale=None):
    """Build a SampledFlowMap by marching the grid labels through ``times``
    with fixed-step RK4 over a (possibly unsteady) field. The map is
    identity-at-zero with unit reference density.

    The map's one march at ``dt`` fills its table and its checkpoint lattice
    (see SampledFlowMap). Its ``error_floor`` is the Richardson estimate of
    the table's integration error for a 4th-order method (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4), from a second march to times[-1] in k
    steps against the table's n: step doubling, max |x_dt - x_2dt| / 15,
    when n is even (k = n/2), else step halving, max |x_dt - x_dt/2| * 16/15
    (k = 2n), since 2*dt does not divide an odd count. A table of one time
    has no estimate (None).
    """
    times = np.asarray(times, dtype=float)
    m = SampledFlowMap(
        grid, times, None, field_fn=field_fn, dt=dt, name=name,
        timescale=timescale if timescale is not None else float(times[-1] or 1.0),
        bbox=bbox,
    )
    if len(times) > 1:
        n = round(times[-1] / dt)
        k = n // 2 if n % 2 == 0 else 2 * n
        other = rk4_advect(field_fn, m.grid_labels(), 0.0, times[-1], times[-1] / k, bbox)
        diff = float(np.max(np.abs(m.positions_table[-1] - other)))
        m.error_floor = diff / abs((n / k) ** 4 - 1)
    return m


@dataclass
class CatalogEntry:
    """An exact solution: its flow map, driving potential, and known facts.

    ``velocity_field`` is the Eulerian u(points, t): the closed form of an
    analytic flow (its map's velocities are u at its positions) or the field
    a sampled flow is integrated from. ``clebsch`` is a ClebschTriple
    realizing u = grad F + phi grad psi, with the cut mask of a multivalued
    potential; ``bernoulli`` is Omega(points, t) of the unsteady Bernoulli
    integral when the triple is a potential F alone; ``material_scalars`` is
    a ClebschTriple whose phi and psi are advected by u (it does not realize
    u). Each is None where the flow has no such data.
    """

    name: str
    params: dict
    dimensionality: int
    map: object
    force: ForcePotential
    properties: dict = dc_field(default_factory=dict)
    validation_residual: float = None
    velocity_field: object = None
    clebsch: ClebschTriple = None
    bernoulli: object = None
    material_scalars: ClebschTriple = None

    def describe(self):
        lines = [f"{self.name} ({self.dimensionality}D embedded in 3D)"]
        lines.append(f"  parameters: {self.params}")
        for k, v in self.properties.items():
            lines.append(f"  {k}: {v}")
        if self.validation_residual is not None:
            lines.append(
                f"  construction EOM residual: {self.validation_residual:.3e}"
            )
        return "\n".join(lines)


def _affine(A, x, b=(0.0, 0.0, 0.0)):
    """A x + b at points x (..., 3) for a 3x3 A: component i sums A[i, j] *
    x[..., j] over the row's nonzero entries, left to right (a unit entry
    passes x[..., j] unscaled), then adds b[i] when nonzero. Each component
    is then the sum of products the closed form writes, to the bit, which
    matmul and einsum are not. Components are stacked: filling one
    preallocated array instead cost page faults in later allocations and
    ~1.5% of the grid_calculus benchmark's wall time (2-core machine)."""
    comps = []
    for row, bi in zip(A, b):
        terms = [x[..., j] if a == 1 else a * x[..., j] for j, a in enumerate(row) if a != 0]
        comp = sum(terms[1:], terms[0]) if terms else np.zeros(x.shape[:-1])
        comps.append(comp + bi if bi != 0 else comp)
    return np.stack(comps, axis=-1)


def _product(A, B):
    """A B for 3x3 A and B, each entry summed over the k where both factors
    are nonzero; an entry with no such k is +0."""
    return np.array([[sum(A[i][k] * B[k][j] for k in range(3) if A[i][k] != 0 and B[k][j] != 0)
                      for j in range(3)] for i in range(3)], dtype=float)


def _affine_entry(name, params, grid, M, L, force, props, U=(0.0, 0.0, 0.0), timescale=1.0,
                  map_name=None, **entry_data):
    """A catalog entry whose map is affine in the labels: x = M(t) a + U t,
    the motion of the steady field u = L x + U (M' = L M, M(0) = I, L U = 0).

    ``M`` is a callable t -> 3x3 matrix; ``L`` and ``U`` are constant. The
    velocity is the field at the positions, the acceleration L^2 x, the
    label partials M(t), the velocity partials L M(t); second partials are
    zero. ``entry_data`` are the entry's Clebsch and Bernoulli fields.
    """
    def pos(lab, t):
        return _affine(M(t), lab, [u * t for u in U])

    def field(x, t):
        return _affine(L, x, U)

    def tile(A, lab):  # the matrix A at every label
        return np.broadcast_to(np.asarray(A, dtype=float), lab.shape[:-1] + (3, 3)).copy()

    L2 = _product(L, L)
    m = AnalyticFlowMap(
        grid, pos, lambda lab, t: field(pos(lab, t), t), lambda lab, t: _affine(L2, pos(lab, t)),
        lambda lab, t: tile(M(t), lab), lambda lab, t: tile(_product(L, M(t)), lab),
        lambda lab, t: np.zeros(lab.shape[:-1] + (3, 3, 3)),
        name=map_name or f"{name}({', '.join(f'{k}={v}' for k, v in params.items())})",
        timescale=timescale,
    )
    return CatalogEntry(name, params, 2, m, force, props, velocity_field=field, **entry_data)


def _rigid_rotation(grid, omega=1.0):
    w = float(omega)

    def M(t):
        c, s = np.cos(w * t), np.sin(w * t)
        return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]

    force = ForcePotential(
        pressure=lambda x, t: 0.5 * w * w * (x[..., 0] ** 2 + x[..., 1] ** 2),
        pressure_grad=lambda x, t: np.stack(
            [w * w * x[..., 0], w * w * x[..., 1], np.zeros_like(x[..., 2])], axis=-1
        ),
    )
    props = {
        "jacobian": "1 everywhere (volume preserving)",
        "half_vorticity": (0.0, 0.0, w),
        "pressure": "rho * omega^2 (x^2+y^2) / 2 (centripetal balance)",
    }
    # grad(-w x y) + 2 w x grad y = u; grad(2 w x) x grad y = (0, 0, 2 w) = curl u
    clebsch = ClebschTriple(F=lambda x, t: -w * x[..., 0] * x[..., 1],
                            phi=lambda x, t: 2 * w * x[..., 0], psi=lambda x, t: x[..., 1])
    # constant along the circular orbits
    scalars = ClebschTriple(phi=lambda x, t: x[..., 0] ** 2 + x[..., 1] ** 2,
                            psi=lambda x, t: x[..., 2])
    return _affine_entry("rigid_rotation", {"omega": w}, grid, M,
                         [[0.0, -w, 0.0], [w, 0.0, 0.0], [0.0, 0.0, 0.0]], force, props,
                         timescale=2 * np.pi / abs(w), clebsch=clebsch, material_scalars=scalars)


def _uniform_translation(grid, velocity=(1.0, 0.0, 0.0)):
    U = np.asarray(velocity, dtype=float)
    # the potential U . x; |grad F|^2 / 2 = |U|^2 / 2 is its Bernoulli Omega
    clebsch = ClebschTriple(F=lambda x, t: x @ U)
    scalars = ClebschTriple(phi=lambda x, t: x[..., 0] - U[0] * t,
                            psi=lambda x, t: x[..., 1] - U[1] * t)
    return _affine_entry("uniform_translation", {"velocity": tuple(U)}, grid,
                         lambda t: np.eye(3), np.zeros((3, 3)), ForcePotential(pressure=0.0),
                         {"jacobian": "1", "half_vorticity": (0.0, 0.0, 0.0)}, U=U,
                         map_name="uniform_translation", clebsch=clebsch,
                         bernoulli=lambda x, t: np.full(x.shape[:-1], 0.5 * (U @ U)),
                         material_scalars=scalars)


def _simple_shear(grid, gamma=1.0):
    g = float(gamma)
    # g y grad x = u; grad(g y) x grad x = (0, 0, -g) = curl u
    clebsch = ClebschTriple(phi=lambda x, t: g * x[..., 1], psi=lambda x, t: x[..., 0])
    return _affine_entry("simple_shear", {"gamma": g}, grid,
                         lambda t: [[1.0, g * t, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                         [[0.0, g, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                         ForcePotential(pressure=0.0),
                         {"jacobian": "1", "half_vorticity": (0.0, 0.0, -g / 2)},
                         timescale=1.0 / abs(g), clebsch=clebsch)


def _stagnation(grid, k=1.0):
    kk = float(k)
    force = ForcePotential(
        pressure=lambda x, t: -0.5 * kk * kk * (x[..., 0] ** 2 + x[..., 1] ** 2),
        pressure_grad=lambda x, t: np.stack(
            [-kk * kk * x[..., 0], -kk * kk * x[..., 1], np.zeros_like(x[..., 2])], axis=-1
        ),
    )
    props = {
        "jacobian": "1",
        "half_vorticity": (0.0, 0.0, 0.0),
        "pressure": "-rho k^2 (x^2+y^2)/2 (Bernoulli)",
    }
    # the harmonic potential k (x^2 - y^2) / 2; Omega = |grad F|^2 / 2
    clebsch = ClebschTriple(F=lambda x, t: 0.5 * kk * (x[..., 0] ** 2 - x[..., 1] ** 2))
    return _affine_entry("stagnation", {"k": kk}, grid,
                         lambda t: [[np.exp(kk * t), 0.0, 0.0], [0.0, np.exp(-kk * t), 0.0],
                                    [0.0, 0.0, 1.0]],
                         [[kk, 0.0, 0.0], [0.0, -kk, 0.0], [0.0, 0.0, 0.0]], force, props,
                         timescale=1.0 / abs(kk), clebsch=clebsch,
                         bernoulli=lambda x, t: 0.5 * kk * kk * (x[..., 0] ** 2 + x[..., 1] ** 2))


def _gerstner_k(k):
    if not float(k) > 0:
        raise ValueError(f"gerstner wavenumber k must be positive, got {k!r}")
    return float(k)


def _gerstner(grid, k=1.0, g=1.0):
    kk, gg = _gerstner_k(k), float(g)
    cw = np.sqrt(gg / kk)
    bmax = grid.origin[1] + grid.spacing[1] * (grid.shape[1] - 1)
    if np.exp(2 * kk * bmax) >= 1.0:
        raise ValueError(
            "Gerstner grid reaches e^(2kb) >= 1: degenerate (self-intersecting) map"
        )

    def _EB(lab, t):
        E = np.exp(kk * lab[..., 1])
        th = kk * (lab[..., 0] - cw * t)
        return E, th

    def pos(lab, t):
        E, th = _EB(lab, t)
        return np.stack(
            [lab[..., 0] - E / kk * np.sin(th), lab[..., 1] + E / kk * np.cos(th), lab[..., 2]],
            axis=-1,
        )

    def vel(lab, t):
        E, th = _EB(lab, t)
        return np.stack([cw * E * np.cos(th), cw * E * np.sin(th), np.zeros_like(E)], axis=-1)

    def acc(lab, t):
        E, th = _EB(lab, t)
        return np.stack([gg * E * np.sin(th), -gg * E * np.cos(th), np.zeros_like(E)], axis=-1)

    def partials(lab, t):
        E, th = _EB(lab, t)
        F = np.zeros(lab.shape[:-1] + (3, 3))
        F[..., 0, 0] = 1 - E * np.cos(th)
        F[..., 0, 1] = -E * np.sin(th)
        F[..., 1, 0] = -E * np.sin(th)
        F[..., 1, 1] = 1 + E * np.cos(th)
        F[..., 2, 2] = 1.0
        return F

    def vel_partials(lab, t):
        E, th = _EB(lab, t)
        G = np.zeros(lab.shape[:-1] + (3, 3))
        G[..., 0, 0] = -cw * kk * E * np.sin(th)
        G[..., 0, 1] = cw * kk * E * np.cos(th)
        G[..., 1, 0] = cw * kk * E * np.cos(th)
        G[..., 1, 1] = cw * kk * E * np.sin(th)
        return G

    def second_partials(lab, t):
        E, th = _EB(lab, t)
        H = np.zeros(lab.shape[:-1] + (3, 3, 3))
        H[..., 0, 0, 0] = kk * E * np.sin(th)
        H[..., 0, 0, 1] = H[..., 0, 1, 0] = -kk * E * np.cos(th)
        H[..., 0, 1, 1] = -kk * E * np.sin(th)
        H[..., 1, 0, 0] = -kk * E * np.cos(th)
        H[..., 1, 0, 1] = H[..., 1, 1, 0] = -kk * E * np.sin(th)
        H[..., 1, 1, 1] = kk * E * np.cos(th)
        return H

    def rho0(lab):
        return 1.0 - np.exp(2 * kk * lab[..., 1])

    m = AnalyticFlowMap(
        grid, pos, vel, acc, partials, vel_partials, second_partials,
        convention="generalized", reference_density=rho0,
        name=f"gerstner(k={kk})", timescale=2 * np.pi / (kk * cw),
    )
    force = ForcePotential(
        V=lambda x, t: -gg * x[..., 1],
        V_grad=lambda x, t: np.stack(
            [np.zeros_like(x[..., 0]), -gg * np.ones_like(x[..., 1]), np.zeros_like(x[..., 2])],
            axis=-1,
        ),
        pressure=lambda lab, t: -gg * lab[..., 1] + gg / (2 * kk) * np.exp(2 * kk * lab[..., 1]),
        pressure_frame="label",
        pressure_grad=lambda lab, t: np.stack(
            [np.zeros_like(lab[..., 0]),
             -gg + gg * np.exp(2 * kk * lab[..., 1]),
             np.zeros_like(lab[..., 2])], axis=-1,
        ),
    )
    props = {
        "jacobian": "1 - e^(2kb), independent of t",
        "dispersion": f"c^2 = g/k -> c = {cw:.6g}",
        "label_half_vorticity": "third component c*k*e^(2kb), constant in time",
    }
    return CatalogEntry("gerstner", {"k": kk, "g": gg}, 2, m, force, props)


POINT_VORTEX_CORE_RADIUS = 0.1


def _point_vortex(grid, gamma=2 * np.pi, times=None, dt=None):
    G = float(gamma)
    period = 4 * np.pi ** 2 / G  # orbit period at radius 1
    if times is None:
        times = (0.0, period / 8, period / 4)
    if dt is None:
        dt = period / 2048

    def field(x, t):
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        if np.any(r2 < POINT_VORTEX_CORE_RADIUS ** 2):
            raise ValueError("point-vortex evaluation inside the excluded core disk")
        f = G / (2 * np.pi * r2)
        return np.stack([-f * x[..., 1], f * x[..., 0], np.zeros_like(f)], axis=-1)

    lab = grid.nodes3()
    if np.any(lab[:, 0] ** 2 + lab[:, 1] ** 2 < POINT_VORTEX_CORE_RADIUS ** 2):
        raise ValueError("point-vortex label grid intrudes into the core disk")
    m = integrate_trajectories(field, grid, times, dt,
                               name=f"point_vortex(gamma={G})", timescale=period)
    force = ForcePotential(
        pressure=lambda x, t: -G ** 2 / (8 * np.pi ** 2 * (x[..., 0] ** 2 + x[..., 1] ** 2)),
        pressure_grad=lambda x, t: np.stack(
            [G ** 2 / (4 * np.pi ** 2) * x[..., 0] / (x[..., 0] ** 2 + x[..., 1] ** 2) ** 2,
             G ** 2 / (4 * np.pi ** 2) * x[..., 1] / (x[..., 0] ** 2 + x[..., 1] ** 2) ** 2,
             np.zeros_like(x[..., 2])], axis=-1,
        ),
    )
    props = {
        "circulation": f"{G} around loops enclosing the core, 0 otherwise",
        "angular_velocity": "Gamma / (2 pi r^2) per particle",
        "orbit_period_at_r1": period,
        "core_exclusion_radius": POINT_VORTEX_CORE_RADIUS,
    }

    def potential(x, t):
        return G / (2 * np.pi) * np.arctan2(x[..., 1], x[..., 0])

    def bernoulli(x, t):
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        # the origin is inside the cut mask; keep it finite so masked nodes
        # do not poison array arithmetic
        return G ** 2 / (8 * np.pi ** 2 * np.where(r2 < 1e-12, 1.0, r2))

    def cut(x):
        # points adjacent to the branch cut {y = 0, x < 0} of the azimuth,
        # plus the core disk where the potential itself is singular
        near_cut = (x[..., 0] < 0.0) & (np.abs(x[..., 1]) < 0.35 * np.abs(x[..., 0]) + 0.3)
        near_core = x[..., 0] ** 2 + x[..., 1] ** 2 < 0.25 ** 2
        return near_cut | near_core

    return CatalogEntry("point_vortex", {"gamma": G}, 2, m, force, props,
                        velocity_field=field,
                        clebsch=ClebschTriple(F=potential, cut_mask=cut),
                        bernoulli=bernoulli)


def _taylor_green(grid, times=None, dt=None):
    if times is None:
        times = (0.0, 0.5, 1.0)
    if dt is None:
        dt = 1.0 / 256

    def field(x, t):
        return np.stack(
            [np.cos(x[..., 0]) * np.sin(x[..., 1]),
             -np.sin(x[..., 0]) * np.cos(x[..., 1]),
             np.zeros_like(x[..., 0])], axis=-1,
        )

    m = integrate_trajectories(field, grid, times, dt, name="taylor_green",
                               timescale=2 * np.pi)
    force = ForcePotential(
        pressure=lambda x, t: -0.25 * (np.cos(2 * x[..., 0]) + np.cos(2 * x[..., 1])),
        pressure_grad=lambda x, t: np.stack(
            [0.5 * np.sin(2 * x[..., 0]), 0.5 * np.sin(2 * x[..., 1]),
             np.zeros_like(x[..., 0])], axis=-1,
        ),
    )
    props = {
        "field": "steady cellular field (cos x sin y, -sin x cos y, 0)",
        "pressure": "-rho (cos 2x + cos 2y)/4",
    }
    return CatalogEntry("taylor_green", {}, 2, m, force, props, velocity_field=field)


def _gerstner_hi(k=1.0, **_):
    # one wavelength in a, so the x-extent follows k
    return (2 * np.pi / _gerstner_k(k), -0.5)


@dataclass(frozen=True)
class _Flow:
    """One catalog row: the factory, its label domain and its construction gate.

    The domain spans ``lo`` to ``hi`` with ``shape`` nodes by default; ``hi``
    may be a callable of the flow's params when the extent depends on them.
    ``gate`` bounds the Lagrangian momentum residual at construction.
    """

    factory: object
    lo: tuple
    hi: object
    shape: tuple
    gate: float
    periodic: tuple = (False, False)


_CATALOG = {
    "rigid_rotation": _Flow(_rigid_rotation, (-0.5, -0.5), (0.5, 0.5), (33, 33), 1e-9),
    "uniform_translation": _Flow(_uniform_translation, (0.0, 0.0), (1.0, 1.0), (17, 17), 1e-12),
    "simple_shear": _Flow(_simple_shear, (0.0, 0.0), (1.0, 1.0), (17, 17), 1e-12),
    "stagnation": _Flow(_stagnation, (0.1, 0.1), (1.1, 1.1), (17, 17), 1e-9),
    "gerstner": _Flow(_gerstner, (0.0, -3.0), _gerstner_hi, (33, 33), 1e-8),
    "point_vortex": _Flow(_point_vortex, (0.7, 0.7), (1.7, 1.7), (33, 33), 2e-4),
    "taylor_green": _Flow(_taylor_green, (0.0, 0.0), (2 * np.pi, 2 * np.pi), (32, 32), 2e-4,
                          periodic=(True, True)),
}


def catalog_names():
    return sorted(_CATALOG)


def catalog_params(name):
    """Names of the params a catalog flow takes: its factory's keywords."""
    return tuple(p for p in inspect.signature(_row(name).factory).parameters if p != "grid")


def _row(name):
    if name not in _CATALOG:
        raise KeyError(f"unknown flow {name!r}; known: {', '.join(catalog_names())}")
    return _CATALOG[name]


def default_grid(name, shape=None, **params):
    """Label grid of a catalog flow's domain, buildable without the flow.

    ``shape`` gives the node counts (the catalog default when None); a
    periodic axis of n nodes has n cells, any other n - 1. A shape with the
    wrong number of axes raises ValueError.
    """
    row = _row(name)
    hi = row.hi(**params) if callable(row.hi) else row.hi
    shape = row.shape if shape is None else tuple(int(n) for n in shape)
    if len(shape) != len(row.shape):
        raise ValueError(f"grid shape {shape} has wrong dimensionality for flow {name!r}")
    spacing = tuple((h - lo) / (n if p else n - 1)
                    for lo, h, n, p in zip(row.lo, hi, shape, row.periodic))
    return LabelGrid(shape, row.lo, spacing, row.periodic)


def catalog_flow(name, validate=True, grid=None, **params):
    """Build a catalog entry by name; unknown names raise.

    The entry lives on ``grid``, or on ``default_grid(name, **params)``.
    Entries self-validate: analytic partials are cross-checked against finite
    differences and the Lagrangian momentum residual at a mid-range time must
    pass the entry's gate.
    """
    row = _row(name)
    if grid is None:
        grid = default_grid(name, **params)
    entry = row.factory(grid, **params)
    if validate:
        if isinstance(entry.map, SampledFlowMap):
            t_check = float(entry.map.times[1])
        else:
            t_check = 0.3 * entry.map.timescale
        validate_analytic_partials(entry.map, t_check)
        res = lagrangian_eom_residual(entry.map, entry.force, t_check, StencilSpec(order=2))
        worst = max(r.linf for r in res)
        entry.validation_residual = worst
        if worst > row.gate:
            raise ValueError(
                f"catalog entry {name} failed its construction gate: "
                f"EOM residual {worst:.3e} > {row.gate:g}"
            )
    return entry
