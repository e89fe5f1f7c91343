"""The central conservation law: label-space vorticity invariants.

The velocity pulled back to particle labels (the covelocity) has a curl
whose half, (A, B, C), never changes while the flow obeys the momentum
balance under potential forces. This script computes the invariants for the
rotation and the trochoidal wave, measures their drift, and shows the
finite-difference mode converging at second order on the integrated
point-vortex map.
"""

import numpy as np

import flowmaplab as fl
from flowmaplab import StencilSpec
from flowmaplab.flows import default_grid

print("--- rigid rotation: the invariant IS the angular velocity ------")
rot = fl.catalog_flow("rigid_rotation", omega=1.3)
for t in (0.0, 2.0, 5.0):
    w = fl.cauchy_invariants(rot.map, t)
    print(f"  t={t}: (A,B,C) = (0, 0, {w.values[..., 2].mean():+.12f})")

print("\n--- covelocity of the rotation is frozen ----------------------")
lab = rot.map.grid_labels()
# alpha_j = sum_i u_i dx_i/dlab_j
cov = np.einsum("...i,...ij->...j", rot.map.velocities(lab, 4.0),
                fl.deformation_gradient(rot.map, 4.0).values)
expect = np.stack([-1.3 * lab[..., 1], 1.3 * lab[..., 0], 0 * lab[..., 0]], -1)
print("  max |covelocity - (-w b, w a, 0)| =", np.abs(cov - expect).max())

print("\n--- trochoidal wave: spatially varying invariant ---------------")
wave = fl.catalog_flow("gerstner")
T = wave.map.timescale
out = fl.invariant_drift(wave.map, [0.0, T / 4, T / 2, 0.75 * T])
print(f"  drift over 3/4 period (exact derivatives): {out['drift']:.3e}")
w = fl.cauchy_invariants(wave.map, 1.0)
print("  C(b) spans", w.values[..., 2].min(), "to", w.values[..., 2].max())

print("\n--- integrated point vortex: drift shrinks at order 2 ---------")
drifts = []
for n in (64, 128):
    e = fl.catalog_flow("point_vortex",
                        grid=default_grid("point_vortex", (n, n)),
                        validate=False)
    out = fl.invariant_drift(e.map, e.map.times, StencilSpec(2), mode="fd", rind=1)
    drifts.append(out["drift"])
    print(f"  grid {n}x{n}: drift {out['drift']:.3e}")
print(f"  measured order: {np.log2(drifts[0] / drifts[1]):.2f}")

print("\n--- solenoidality and vortex-line functions --------------------")
s = fl.solenoidality_residual(fl.cauchy_invariants(wave.map, 1.0))
print(f"  divergence of (A,B,C): {s.linf:.3e}")
g = rot.map.grid
lab = g.nodes3().reshape(g.shape + (3,))
w = fl.cauchy_invariants(rot.map, 0.8)
res = fl.vortex_line_function_residual(-2 * 1.3 * lab[..., 0], lab[..., 1], w)
print(f"  line-function pair (phi, psi) = (-2w a, b): residual {res.linf:.3e}")
