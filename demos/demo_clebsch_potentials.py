"""Clebsch potentials: u = grad F + phi grad psi and what the pieces mean.

phi and psi ride with the fluid (material scalars) and their level-set
intersections trace vortex lines; curl u factors as grad phi x grad psi.
The irrotational specialization (phi absent) gives a harmonic velocity
potential with the unsteady Bernoulli integral fixing the pressure. The
triples and advected scalars are those the catalog entries carry, and the
Bernoulli Omega is each entry's force potential, ``force.omega_at``.
"""

import numpy as np

import flowmaplab as fl
from flowmaplab import LabelGrid

grid = LabelGrid((33, 33), (-1.0, -1.0), (1 / 16, 1 / 16))
h2 = max(grid.spacing) ** 2
print(f"grid 33x33, h^2 = {h2:.2e}")

print("\n--- assembling velocities from potentials ----------------------")
for name in ("uniform_translation", "simple_shear", "rigid_rotation"):
    e = fl.catalog_flow(name)
    pts = grid.nodes3().reshape(grid.shape + (3,))
    u = e.clebsch.velocity(pts)
    s = fl.clebsch_vorticity_residual(e.clebsch, grid)
    print(f"  {name:19s} |u| max {np.linalg.norm(u, axis=-1).max():.3f}; "
          f"curl u = grad phi x grad psi to {s.linf:.2e}")

print("\n--- the potentials are carried by the flow ---------------------")
for name in ("rigid_rotation", "uniform_translation"):
    e = fl.catalog_flow(name)
    r_phi, r_psi = fl.clebsch_advection_residual(e.material_scalars, e.velocity_field, grid)
    print(f"  {name:19s} material derivatives: {r_phi.linf:.2e}, {r_psi.linf:.2e}")

print("\n--- irrotational flows: Laplace + Bernoulli ---------------------")
for name in ("uniform_translation", "stagnation"):
    e = fl.catalog_flow(name)
    lap, bern = fl.potential_flow_checks(e.clebsch.F, e.force.omega_at, grid)
    print(f"  {name:19s} Laplace {lap.linf:.2e}  Bernoulli {bern.linf:.2e}")

print("\n--- multivalued potential with a declared cut -------------------")
e = fl.catalog_flow("point_vortex")
g2 = LabelGrid((65, 65), (-2.0, -2.0), (4 / 64, 4 / 64))
lap, bern = fl.potential_flow_checks(e.clebsch.F, e.force.omega_at, g2,
                                     cut_mask=e.clebsch.cut_mask)
print(f"  {lap.excluded} nodes near the cut/core excluded from norms")
print(f"  away from the cut: Laplace {lap.linf:.2e}, Bernoulli {bern.linf:.2e}")

print("\n--- consistency with the vorticity module -----------------------")
from flowmaplab import eulerian_vorticity

e = fl.catalog_flow("rigid_rotation", omega=1.0)
pts = grid.nodes3().reshape(grid.shape + (3,))
u = e.clebsch.velocity(pts)
W = eulerian_vorticity(u, grid=grid)
print(f"  half-curl of the assembled field: (0, 0, {W.values[..., 2].mean():.6f}) "
      "(half of grad phi x grad psi)")
