"""Rebuilding velocity from vorticity by direct kernel summation.

Each rotating element induces a velocity perpendicular to both its axis and
the separation vector, with magnitude dV * Delta * sin(eps) / (2 pi r^2).
Summed over a compact divergence-free Gaussian blob, the reconstruction
converges at second order to the closed-form swirl of the blob, whose
midplane profile is also the plain 1D radial quadrature
u_theta(r) = (1/r) * integral 2 Z(s) s ds.
"""

import numpy as np
from scipy.integrate import quad

import flowmaplab as fl

print("--- element-law identities of the kernel, one node at a time ---")
rng = np.random.default_rng(1)
g = fl.LabelGrid((8, 8, 8), (-1.75, -1.75, -1.75), (0.5,) * 3)
worst = np.zeros(3)
for _ in range(5):
    index = tuple(rng.integers(0, 8, 3))
    w = rng.normal(size=3)
    vals = np.zeros((8, 8, 8, 3))
    vals[index] = w
    src = fl.VorticitySource(g, vals, compact=False)
    x = g.nodes3().reshape(g.shape + (3,))[index]
    x1 = x + rng.normal(size=3) * 2 + 0.4
    du = fl.velocity_from_vorticity(src, [x1], allow_interior_targets=True)[0]
    d = x1 - x
    r = np.linalg.norm(d)
    law = g.cell_volume * np.linalg.norm(np.cross(w, d)) / (2 * np.pi * r ** 3)
    worst = np.maximum(worst, np.abs([d @ du, w @ du, np.linalg.norm(du) - law]))
print("  (x - x1) . du:", worst[0])
print("  axis . du:    ", worst[1])
print("  |du| vs law:  ", worst[2])

print("\n--- Gaussian swirl blob ------------------------------------------")
sigma = 0.105
r_star = 1.5 * sigma
target = np.array([r_star, 0.0, 0.0])
for n in (32, 64):
    src, u_exact, _, w_mid = fl.gaussian_swirl_blob(n=n)
    u = fl.velocity_from_vorticity(src, [target], allow_interior_targets=True)[0]
    err = np.linalg.norm(u - u_exact(target)) / np.linalg.norm(u_exact(target))
    print(f"  {n}^3 nodes: u_theta {u[1]:+.6e}  relative error {err:.2%}")

val, _ = quad(lambda s: 2 * w_mid(s) * s, 0.0, r_star)
print(f"  radial quadrature oracle: {val / r_star:+.6e}")

print("\n--- structure of the reconstructed field -------------------------")
src, u_exact, _, _ = fl.gaussian_swirl_blob(n=48)
on_axis = fl.velocity_from_vorticity(src, [(0.0, 0.0, 0.27)],
                                     allow_interior_targets=True)[0]
print(f"  on-axis velocity magnitude: {np.linalg.norm(on_axis):.2e} (swirl only)")

tg = fl.LabelGrid((6, 6, 6), (1.2, 1.1, -0.12), (0.05,) * 3)
pts = tg.nodes3()
u = fl.velocity_from_vorticity(src, pts).reshape(tg.shape + (3,))
from flowmaplab.grids import StencilSpec, differentiate

div = sum(differentiate(u[..., k], k, StencilSpec(2), grid=tg) for k in range(3))
print(f"  divergence at exterior targets: {np.abs(div).max():.2e}")
