"""Kinetic-energy accounting: the living force and its boundary bookkeeping.

K(t) integrates in label space, so no spatial remeshing ever happens. For
incompressible motion driven by a potential with no pressure work at the
boundary, dK/dt equals the boundary flux of V * U_n; for irrotational flow
the volume energy collapses onto the boundary, which is why a potential flow
with no normal boundary motion cannot move at all.
"""

import numpy as np

import flowmaplab as fl
from flowmaplab import LabelGrid, MaterialSurface

print("--- living force -------------------------------------------------")
grid = LabelGrid((17, 17, 17), (-0.5, -0.5, -0.5), (1 / 16,) * 3)
rot = fl.catalog_flow("rigid_rotation", omega=1.0, grid=grid)
print(f"  rotation on the unit cube: K = {fl.living_force(rot.map, 0.0):.12f} "
      f"(moment integral gives {1 / 12:.12f})")
trans = fl.catalog_flow("uniform_translation", velocity=(1.0, 0, 0),
                        grid=LabelGrid((9, 9, 9), (0, 0, 0), (1 / 8,) * 3))
print(f"  unit-speed translation of unit mass: K = {fl.living_force(trans.map, 0.0):.12f}")


def box_faces(lo, hi, n):
    """Outward-oriented rectangle patches bounding [lo, hi]^3."""
    L = hi - lo
    e = [np.eye(3)[i] * L for i in range(3)]
    c0 = np.full(3, lo)
    return [
        MaterialSurface.rectangle(c0 + e[0], e[1], e[2], n, n),
        MaterialSurface.rectangle(c0, e[2], e[1], n, n),
        MaterialSurface.rectangle(c0 + e[1], e[2], e[0], n, n),
        MaterialSurface.rectangle(c0, e[0], e[2], n, n),
        MaterialSurface.rectangle(c0 + e[2], e[0], e[1], n, n),
        MaterialSurface.rectangle(c0, e[1], e[0], n, n),
    ]


print("\n--- two-sided energy flux balance ----------------------------------")
# incompressible potential flow u = (1+t)(y, x, 0); x +/- y stretch by
# exp(+/-(t + t^2/2)); driven purely by V = xy + (1+t)^2 (x^2+y^2)/2 at
# constant pressure, so the identity dK/dt = boundary integral of V U_n holds


def stretch_map(n):
    g = LabelGrid((n, n, n), (0.0, 0.0, 0.0), (1.0 / (n - 1),) * 3)

    def s(t):
        return np.exp(t + 0.5 * t * t)

    def pos(lab, t):
        p = (lab[..., 0] + lab[..., 1]) * s(t)
        m = (lab[..., 0] - lab[..., 1]) / s(t)
        return np.stack([(p + m) / 2, (p - m) / 2, lab[..., 2]], -1)

    def vel(lab, t):
        x = pos(lab, t)
        return (1 + t) * np.stack([x[..., 1], x[..., 0], 0 * x[..., 0]], -1)

    return fl.AnalyticFlowMap(g, pos, vel)


def V(x, t):
    return x[..., 0] * x[..., 1] + 0.5 * (1 + t) ** 2 * (x[..., 0] ** 2 + x[..., 1] ** 2)


for n, dt in ((9, 2e-3), (17, 1e-3)):
    ledger = fl.energy_flux_residual(stretch_map(n), V, [0.4],
                                     box_faces(0.0, 1.0, n), dt=dt)
    print(f"  faces {n}x{n}: dK/dt {ledger.dKdt[0]:+.6f} "
          f"flux {ledger.flux[0]:+.6f} residual {ledger.residual:.2e}")

print("\n--- rotation sealed in a coaxial cylinder ---------------------------")
th = 2 * np.pi * np.arange(128) / 128
zz = np.linspace(-0.3, 0.3, 16)
TH, ZZ = np.meshgrid(th, zz, indexing="ij")
side = MaterialSurface(np.stack([0.4 * np.cos(TH), 0.4 * np.sin(TH), ZZ], -1),
                       param_periodic=(True, False))
lids = [MaterialSurface.disk(center=(0, 0, 0.3), radius=0.4, nr=12, ntheta=64),
        MaterialSurface.disk(center=(0, 0, -0.3), radius=0.4, nr=12, ntheta=64,
                             normal=(0, 0, -1))]
cyl_rot = fl.catalog_flow("rigid_rotation", omega=1.0, grid=grid)
ledger = fl.energy_flux_residual(cyl_rot.map,
                                 lambda x, t: x[..., 0] ** 2 + x[..., 1] ** 2,
                                 [0.0, 1.0], [side] + lids)
print(f"  normal velocity vanishes on the wall: flux {np.abs(ledger.flux).max():.2e}, "
      f"dK/dt {np.abs(ledger.dKdt).max():.2e}")

print("\n--- boundary energy identity for harmonic potentials ----------------")
box = LabelGrid((33, 33, 33), (0.0, 0.0, 0.0), (1 / 32,) * 3)
for F, name, expect in ((lambda p: p[..., 0] * p[..., 1], "xy", 1 / 3),
                        (lambda p: p[..., 0] ** 2 - p[..., 1] ** 2, "x^2-y^2", 4 / 3)):
    out = fl.boundary_energy_identity(F, box)
    print(f"  F = {name:8s}: volume {out['volume_side']:.9f} "
          f"boundary {out['boundary_side']:.9f} (analytic {expect:.9f})")

out = fl.boundary_energy_identity(lambda p: np.full(p.shape[:-1], 1.0), box)
print(f"  dF/dn = 0 everywhere forces K = {out['stationary_energy']:.1e}: "
      "no stationary potential flow")
