"""Tour of the flow-map calculus on the exact-solution catalog.

Walks through the deformation gradient, the Jacobian determinant and its
conservation, the nine cofactor relations, the Eulerian divergence check, and
mass carried by the labels. Everything prints; nothing plots.
"""

import numpy as np

import flowmaplab as fl

print("Catalog of exact solutions:")
for name in fl.catalog_names():
    print(" -", name)

print("\n--- rigid rotation -------------------------------------------")
rot = fl.catalog_flow("rigid_rotation", omega=1.0)
t = 0.9
F = fl.deformation_gradient(rot.map, t)
print(f"deformation gradient at one node (t={t}):\n", np.round(F[0, 0], 6))
J = fl.det3(F)
print("max |J - 1| =", np.abs(J - 1).max(), "(volume preserving)")
print("cofactor identity residual:", fl.cofactor_identity_residual(rot.map, t).linf)

print("\n--- trochoidal wave ------------------------------------------")
wave = fl.catalog_flow("gerstner", k=1.0, g=1.0)
lab = wave.map.grid_labels()
J = fl.det3(fl.deformation_gradient(wave.map, 2.0))
print("J = 1 - e^(2kb): max deviation",
      np.abs(J - (1 - np.exp(2 * lab[..., 1]))).max())
for tt in (0.0, wave.map.timescale / 4, wave.map.timescale / 2):
    r = fl.density_residual(wave.map, tt, "lagrangian")
    print(f"  |J(t) - J(0)| at t={tt:.3f}: {r.linf:.3e}")

print("\n--- Eulerian form of the volume law --------------------------")
for name in ("stagnation", "gerstner"):
    e = fl.catalog_flow(name)
    r = fl.density_residual(e.map, 0.4 * e.map.timescale, "eulerian")
    print(f"  max |div u| for {name}: {r.linf:.3e}")

print("\n--- mass is carried by the labels ----------------------------")
mapped, reference = fl.mass_integral_transform(
    wave.map, 3.0, lambda p: np.ones(p.shape[:-1]))
print(f"  total mass, composed vs reference: {mapped:.12f} vs {reference:.12f}")
