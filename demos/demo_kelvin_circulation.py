"""Circulation on material loops: the discrete loop/surface theorems.

A material loop is a ring of particle labels carried by the flow. Its
circulation equals the vorticity flux through any spanning material surface
and never changes in time. The point vortex makes the sharpest test: loops
enclosing the core carry exactly the vortex strength, loops that miss it
carry nothing.
"""

import numpy as np

import flowmaplab as fl
from flowmaplab import MaterialLoop, MaterialSurface

G = 2 * np.pi
period = 4 * np.pi ** 2 / G
pv = fl.catalog_flow("point_vortex", gamma=G, times=(0.0, period / 2, period),
                     dt=period / 4096)

print("--- point vortex, strength", G, "-----------------------------")
t = float(pv.map.times[1])
enclosing = MaterialLoop.circle(radius=1.0, n=256)
missing = MaterialLoop.circle(center=(1.2, 1.2, 0.0), radius=0.2, n=256)
c1 = fl.circulation(pv.map, enclosing, t)
c2 = fl.circulation(pv.map, missing, t)
c1_label = fl.label_circulation(pv.map, enclosing, t)
print(f"  enclosing loop:    {c1:+.9f}  (strength {G:.9f})")
print(f"  non-enclosing:     {c2:+.2e}")
print(f"  label-space form agrees to {abs(c1 - c1_label):.2e}")

drift = fl.kelvin_drift(pv.map, enclosing, pv.map.times)
print(f"  circulation drift over one orbit: {drift:.3e}")

print("\n--- rotation disk: circulation equals the vorticity flux -------")
rot = fl.catalog_flow("rigid_rotation", omega=0.1)
for n in (64, 128, 256):
    loop = MaterialLoop.circle(radius=1.0, n=n)
    surf = MaterialSurface.disk(radius=1.0, nr=max(8, n // 8), ntheta=n)
    chk = fl.stokes_residual(rot.map, loop, surf, 0.9)
    print(f"  N={n:4d}: circulation {chk.circulation:+.8f} "
          f"flux {chk.flux:+.8f} mismatch {chk.residual:.2e}")

print("\n--- a vortex tube has the same flux through every section ------")
a = MaterialSurface.disk(center=(0, 0, 0.2), radius=0.4, nr=16, ntheta=128)
b = MaterialSurface.disk(center=(0, 0, 0.7), radius=0.4, nr=16, ntheta=128)
fa, fb, diff = fl.tube_section_flux(rot.map, a, b, 1.1)
print(f"  fluxes {fa:.10f} and {fb:.10f}, difference {diff:.2e}")

print("\n--- surface independence ---------------------------------------")
flat = MaterialSurface.disk(radius=0.5, nr=24, ntheta=192)
cap = MaterialSurface.disk(radius=0.5, nr=24, ntheta=192,
                           lift=lambda r: 0.3 * (0.25 - r ** 2))
print(f"  flat disk vs lifted cap: "
      f"{abs(fl.vorticity_flux(rot.map, flat, 0.8) - fl.vorticity_flux(rot.map, cap, 0.8)):.2e}")
