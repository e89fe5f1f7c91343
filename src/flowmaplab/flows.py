"""Catalog of exact Euler solutions expressed as Lagrangian flow maps.

Closed-form entries: rigid_rotation, uniform_translation, simple_shear,
stagnation, gerstner. Trajectory-integrated entries (classical 4-stage
Runge-Kutta over a steady velocity field): point_vortex, taylor_green.

The first four are affine in the labels, x = M(t) a + U t under the steady
field u = L x + U; ``_affine_entry`` derives each one's positions, velocity,
acceleration, label partials and pressure from its (M(t), L, U).

Every entry carries the force potential and pressure it solves the momentum
balance under, plus its known kinematic properties, and self-validates at
construction: registered analytic partials are cross-checked against finite
differences and the Lagrangian momentum residual is evaluated on the entry's
grid at a nonzero time.

Entries also carry their Eulerian velocity u(x, t) where the flow has one in
closed form or is integrated from one (every flow but gerstner), and the
Clebsch data the ``clebsch`` checks read: a triple (F, phi, psi) realizing
u and a pair of materially advected scalars. A pure potential F's Bernoulli
Omega = V - p is the force potential's ``omega_at``.
"""

from __future__ import annotations

import inspect
import numbers
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
    "ParticleEscapeError",
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

    field_fn(points, t) -> velocities, an array of the points' shape or one
    that broadcasts to it. dt is a target step; the interval is covered by
    equal steps no larger than dt (reversed sign for t1 < t0). The result is
    a fresh array; with float64 velocities it is bit for bit the textbook
    step pts + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), each stage input
    pts + (c*h)*k.

    The march owns three scratch arrays (stage input ``y``, weighted stage
    sum ``acc`` and ``tmp``), allocated once per call and updated in place.
    It never writes into an array the field returned, and overwrites ``y``
    only after the stage value computed from it is spent, so a field may
    return its own input or a read-only broadcast. A field must not keep
    ``y`` or the points it is passed: both change after it returns.
    """
    pts = np.array(labels, dtype=float)
    span = float(t1) - float(t0)
    if span == 0.0:
        return pts
    nsteps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
    h = span / nsteps
    half_h, sixth_h = 0.5 * h, h / 6.0
    if bbox is not None:
        lo, hi = np.asarray(bbox[0]), np.asarray(bbox[1])
    y, acc, tmp = np.empty_like(pts), np.empty_like(pts), np.empty_like(pts)
    t = float(t0)
    for _ in range(nsteps):
        k1 = np.asarray(field_fn(pts, t))
        np.add(pts, np.multiply(k1, half_h, out=tmp), out=y)
        k2 = np.asarray(field_fn(y, t + half_h))
        np.add(k1, np.multiply(k2, 2, out=acc), out=acc)
        np.add(pts, np.multiply(k2, half_h, out=tmp), out=y)
        k3 = np.asarray(field_fn(y, t + half_h))
        np.add(acc, np.multiply(k3, 2, out=tmp), out=acc)
        np.add(pts, np.multiply(k3, h, out=tmp), out=y)
        k4 = np.asarray(field_fn(y, t + h))
        np.add(acc, k4, out=acc)
        np.add(pts, np.multiply(acc, sixth_h, out=acc), out=pts)
        t += h
        if bbox is not None and (np.any(pts < lo) or np.any(pts > hi)):
            raise ParticleEscapeError(
                f"particle left bounding box {bbox} at t={t:.6g}"
            )
    return pts


def integrate_trajectories(field_fn, grid, times, dt, name="sampled", timescale=None):
    """Build a SampledFlowMap by marching the grid labels through ``times``
    with fixed-step RK4 over a (possibly unsteady) field. The map is
    identity-at-zero with unit reference density.

    The map's one march at ``dt`` fills its table and its checkpoint lattice
    (see SampledFlowMap); its ``error_floor`` marches again on first read.
    """
    m = SampledFlowMap(grid, times, field_fn, dt, name=name)
    m.timescale = float(timescale if timescale is not None else m.times[-1] or 1.0)
    return m


@dataclass
class CatalogEntry:
    """An exact solution: its flow map, driving potential, and known facts.

    ``velocity_field`` is the Eulerian u(points, t): the closed form of an
    analytic flow (its map's velocities are u at its positions) or the field
    a sampled flow is integrated from. ``clebsch`` is a ClebschTriple
    realizing u = grad F + phi grad psi, with the cut mask of a multivalued
    potential; when it is a potential F alone, ``force.omega_at`` is the
    Omega of its unsteady Bernoulli integral. ``material_scalars`` is a
    ClebschTriple whose phi and psi are advected by u (it does not realize
    u). Each is None where the flow has no such data.
    """

    name: str
    params: dict
    map: object
    force: ForcePotential
    properties: dict = dc_field(default_factory=dict)
    validation_residual: float = None
    velocity_field: object = None
    clebsch: ClebschTriple = None
    material_scalars: ClebschTriple = None

    def describe(self):
        lines = [f"{self.name} ({self.map.grid.ndim}D embedded in 3D)"]
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


def _affine_entry(name, params, grid, M, L, props, U=(0.0, 0.0, 0.0), timescale=1.0,
                  map_name=None, **entry_data):
    """A catalog entry whose map is affine in the labels: x = M(t) a + U t,
    the motion of the steady field u = L x + U (M' = L M, M(0) = I, L U = 0).

    ``M`` is a callable t -> 3x3 matrix; ``L`` and ``U`` are constant. The
    velocity is the field at the positions, the acceleration L^2 x, the
    label partials M(t) and the velocity partials L M(t). With no force
    potential and unit density the momentum balance gives the pressure
    gradient -L^2 x and the pressure -x . L^2 x / 2 - |U|^2 / 2 (L^2 is
    symmetric for every affine entry; the constant sets a potential entry's
    Bernoulli constant to 0). ``entry_data`` are the entry's Clebsch fields.
    """
    def pos(lab, t):
        return _affine(M(t), lab, [u * t for u in U])

    def field(x, t):
        return _affine(L, x, U)

    def tile(A, lab):  # the matrix A at every label
        return np.broadcast_to(np.asarray(A, dtype=float), lab.shape[:-1] + (3, 3)).copy()

    L2 = _product(L, L)
    p0 = 0.5 * np.dot(U, U)  # |U|^2 / 2
    force = ForcePotential(pressure=lambda x, t: -0.5 * np.sum(x * _affine(L2, x), axis=-1) - p0,
                           pressure_grad=lambda x, t: _affine(-L2, x))
    m = AnalyticFlowMap(
        grid, pos, lambda lab, t: field(pos(lab, t), t), lambda lab, t: _affine(L2, pos(lab, t)),
        lambda lab, t: tile(M(t), lab), lambda lab, t: tile(_product(L, M(t)), lab),
        name=map_name or f"{name}({', '.join(f'{k}={v}' for k, v in params.items())})",
        timescale=timescale,
    )
    return CatalogEntry(name, params, m, force, props, velocity_field=field, **entry_data)


def _param(flow, name, value, positive=False):
    """``value``, a finite real number but no bool, as a float: nonzero (the
    flow's timescale divides by it), above zero if ``positive``, any if
    ``positive`` is None; else a ValueError naming the flow and the param."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{flow} {name} must be a number, got {value!r}")
    v = float(value)
    if not np.isfinite(v):
        raise ValueError(f"{flow} {name} must be finite, got {value!r}")
    if positive is not None and not (v > 0 if positive else v != 0):
        raise ValueError(f"{flow} {name} must be {'positive' if positive else 'nonzero'}, "
                         f"got {value!r}")
    return v


def _table_times(flow, times):
    """A sampled flow's table times: two or more, since its construction
    gate grades the second, each a ``_param``."""
    if not (isinstance(times, (list, tuple)) or isinstance(times, np.ndarray) and times.ndim == 1
            ) or len(times) < 2:
        raise ValueError(f"{flow} times must hold two or more values, got {times!r}")
    return np.array([_param(flow, f"times[{i}]", t, positive=None) for i, t in enumerate(times)])


def _rigid_rotation(grid, omega=1.0):
    w = _param("rigid_rotation", "omega", omega)

    def M(t):
        c, s = np.cos(w * t), np.sin(w * t)
        return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]

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
                         [[0.0, -w, 0.0], [w, 0.0, 0.0], [0.0, 0.0, 0.0]], props,
                         timescale=2 * np.pi / abs(w), clebsch=clebsch, material_scalars=scalars)


def _uniform_translation(grid, velocity=(1.0, 0.0, 0.0)):
    if not (isinstance(velocity, (list, tuple, np.ndarray)) and len(velocity) == 3):
        raise ValueError(f"uniform_translation velocity must have 3 components, got {velocity!r}")
    U = np.array([_param("uniform_translation", f"velocity[{i}]", u, positive=None)
                  for i, u in enumerate(velocity)])
    # the potential U . x; |grad F|^2 / 2 = |U|^2 / 2 is its Bernoulli Omega
    clebsch = ClebschTriple(F=lambda x, t: x @ U)
    scalars = ClebschTriple(phi=lambda x, t: x[..., 0] - U[0] * t,
                            psi=lambda x, t: x[..., 1] - U[1] * t)
    return _affine_entry("uniform_translation", {"velocity": tuple(U)}, grid,
                         lambda t: np.eye(3), np.zeros((3, 3)),
                         {"jacobian": "1", "half_vorticity": (0.0, 0.0, 0.0)}, U=U,
                         map_name="uniform_translation", clebsch=clebsch,
                         material_scalars=scalars)


def _simple_shear(grid, gamma=1.0):
    g = _param("simple_shear", "gamma", gamma)
    # g y grad x = u; grad(g y) x grad x = (0, 0, -g) = curl u
    clebsch = ClebschTriple(phi=lambda x, t: g * x[..., 1], psi=lambda x, t: x[..., 0])
    return _affine_entry("simple_shear", {"gamma": g}, grid,
                         lambda t: [[1.0, g * t, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                         [[0.0, g, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                         {"jacobian": "1", "half_vorticity": (0.0, 0.0, -g / 2)},
                         timescale=1.0 / abs(g), clebsch=clebsch)


def _stagnation(grid, k=1.0):
    kk = _param("stagnation", "k", k)
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
                         [[kk, 0.0, 0.0], [0.0, -kk, 0.0], [0.0, 0.0, 0.0]], props,
                         timescale=1.0 / abs(kk), clebsch=clebsch)


def _gerstner_k(k):
    return _param("gerstner", "wavenumber k", k, positive=True)


def _gerstner(grid, k=1.0, g=1.0):
    kk, gg = _gerstner_k(k), _param("gerstner", "gravity g", g, positive=True)
    cw = np.sqrt(gg / kk)
    bmax = grid.origin[1] + grid.spacing[1] * (grid.shape[1] - 1)
    if np.exp(2 * kk * bmax) >= 1.0:
        raise ValueError(
            "Gerstner grid reaches e^(2kb) >= 1: degenerate (self-intersecting) map"
        )

    def _Esc(lab, t):
        # E = e^(kb), and sin and cos of th = k (a - c t), each taken once
        E = np.exp(kk * lab[..., 1])
        th = np.asarray(kk * (lab[..., 0] - cw * t))
        return E, np.sin(th), np.cos(th, out=th)

    # each closed form writes its components into their slots of one result
    def pos(lab, t):
        E, s, c = _Esc(lab, t)
        out = np.empty(lab.shape[:-1] + (3,))
        x, y = out[..., 0], out[..., 1]
        E /= kk  # (a - E / k sin(th), b + E / k cos(th), c)
        np.subtract(lab[..., 0], np.multiply(E, s, out=x), out=x)
        np.multiply(E, c, out=y)
        y += lab[..., 1]
        out[..., 2] = lab[..., 2]
        return out

    def vel(lab, t):
        E, s, c = _Esc(lab, t)
        out = np.empty(lab.shape[:-1] + (3,))
        E *= cw  # c E (cos th, sin th, 0)
        np.multiply(E, c, out=out[..., 0])
        np.multiply(E, s, out=out[..., 1])
        out[..., 2] = 0.0
        return out

    def acc(lab, t):
        E, s, c = _Esc(lab, t)
        out = np.empty(lab.shape[:-1] + (3,))
        ax, ay = out[..., 0], out[..., 1]
        np.multiply(gg, E, out=ax)  # g E sin(th)
        ax *= s
        np.multiply(-gg, E, out=ay)  # -g E cos(th)
        ay *= c
        out[..., 2] = 0.0
        return out

    def partials(lab, t):
        E, s, c = _Esc(lab, t)
        F = np.zeros(lab.shape[:-1] + (3, 3))
        np.multiply(E, c, out=F[..., 1, 1])
        np.subtract(1, F[..., 1, 1], out=F[..., 0, 0])  # 1 - E cos(th)
        F[..., 1, 1] += 1  # 1 + E cos(th)
        np.negative(E, out=F[..., 0, 1])  # -E sin(th)
        F[..., 0, 1] *= s
        np.positive(F[..., 0, 1], out=F[..., 1, 0])  # a ufunc: item assignment would copy
        F[..., 2, 2] = 1.0
        return F

    def vel_partials(lab, t):
        E, s, c = _Esc(lab, t)
        G = np.zeros(lab.shape[:-1] + (3, 3))
        np.multiply(-cw * kk, E, out=G[..., 0, 0])  # -c k E sin(th)
        G[..., 0, 0] *= s
        E *= cw * kk  # c k E (cos th, sin th)
        np.multiply(E, c, out=G[..., 0, 1])
        np.positive(G[..., 0, 1], out=G[..., 1, 0])
        np.multiply(E, s, out=G[..., 1, 1])
        return G

    def rho0(lab):
        return 1.0 - np.exp(2 * kk * lab[..., 1])

    def V_grad(x, t):  # (0, -g, 0)
        out = np.zeros(x.shape[:-1] + (3,))
        out[..., 1] = -gg
        return out

    def pressure_grad(lab, t):  # (0, -g + g e^(2kb), 0)
        out = np.zeros(lab.shape[:-1] + (3,))
        p = out[..., 1]
        np.multiply(2 * kk, lab[..., 1], out=p)
        np.exp(p, out=p)
        p *= gg
        p -= gg
        return out

    m = AnalyticFlowMap(
        grid, pos, vel, acc, partials, vel_partials,
        convention="generalized", reference_density=rho0,
        name=f"gerstner(k={kk})", timescale=2 * np.pi / (kk * cw),
    )
    force = ForcePotential(
        V=lambda x, t: -gg * x[..., 1],
        V_grad=V_grad,
        pressure=lambda lab, t: -gg * lab[..., 1] + gg / (2 * kk) * np.exp(2 * kk * lab[..., 1]),
        pressure_frame="label",
        pressure_grad=pressure_grad,
    )
    props = {
        "jacobian": "1 - e^(2kb), independent of t",
        "dispersion": f"c^2 = g/k -> c = {cw:.6g}",
        "label_half_vorticity": "third component c*k*e^(2kb), constant in time",
    }
    return CatalogEntry("gerstner", {"k": kk, "g": gg}, m, force, props)


POINT_VORTEX_CORE_RADIUS = 0.1


def _point_vortex(grid, gamma=2 * np.pi, times=None, dt=None):
    G = _param("point_vortex", "gamma", gamma)
    period = 4 * np.pi ** 2 / G  # orbit period at radius 1
    times = _table_times("point_vortex", (0.0, period / 8, period / 4) if times is None else times)
    dt = period / 2048 if dt is None else _param("point_vortex", "dt", dt, positive=True)

    def field(x, t):
        # (-f x1, f x0, 0) with f = G / (2 pi r^2), written into one array
        x0, x1 = x[..., 0], x[..., 1]
        r2 = x0 * x0 + x1 * x1
        if (r2 < POINT_VORTEX_CORE_RADIUS ** 2).any():
            raise ValueError("point-vortex evaluation inside the excluded core disk")
        f = G / (2 * np.pi * r2)
        out = np.empty(x.shape)
        np.multiply(-f, x1, out=out[..., 0])
        np.multiply(f, x0, out=out[..., 1])
        out[..., 2] = 0.0
        return out

    lab = grid.nodes3()
    if np.any(lab[:, 0] ** 2 + lab[:, 1] ** 2 < POINT_VORTEX_CORE_RADIUS ** 2):
        raise ValueError("point-vortex label grid intrudes into the core disk")
    m = integrate_trajectories(field, grid, times, dt,
                               name=f"point_vortex(gamma={G})", timescale=period)

    def pressure(x, t):  # finite at the origin, which the cut mask covers
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        return -G ** 2 / (8 * np.pi ** 2 * np.where(r2 < 1e-12, 1.0, r2))

    force = ForcePotential(
        pressure=pressure,
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

    def cut(x):
        # points adjacent to the branch cut {y = 0, x < 0} of the azimuth,
        # plus the core disk where the potential itself is singular
        near_cut = (x[..., 0] < 0.0) & (np.abs(x[..., 1]) < 0.35 * np.abs(x[..., 0]) + 0.3)
        near_core = x[..., 0] ** 2 + x[..., 1] ** 2 < 0.25 ** 2
        return near_cut | near_core

    return CatalogEntry("point_vortex", {"gamma": G}, m, force, props,
                        velocity_field=field,
                        clebsch=ClebschTriple(F=potential, cut_mask=cut))


def _taylor_green(grid, times=None, dt=None):
    times = _table_times("taylor_green", (0.0, 0.5, 1.0) if times is None else times)
    dt = 1.0 / 256 if dt is None else _param("taylor_green", "dt", dt, positive=True)

    def field(x, t):
        # (cos x0 sin x1, -sin x0 cos x1, 0), written into one array
        x0, x1 = x[..., 0], x[..., 1]
        out = np.empty(x.shape)
        np.multiply(np.cos(x0), np.sin(x1), out=out[..., 0])
        np.multiply(-np.sin(x0), np.cos(x1), out=out[..., 1])
        out[..., 2] = 0.0
        return out

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
    return CatalogEntry("taylor_green", {}, m, force, props, velocity_field=field)


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
        worst = float(np.max([r.linf for r in res]))  # NaN propagates
        entry.validation_residual = worst
        # a gradient the gate built (fd, on a map without analytic partials)
        # would otherwise stay held through the first check's own builds
        entry.map._gradient = None
        if not worst <= row.gate:
            raise ValueError(
                f"catalog entry {name} failed its construction gate: "
                f"EOM residual {worst:.3e} > {row.gate:g}"
            )
    return entry
