"""Curvilinear charts: metric coefficients, transformed momentum balance,
the transformed volume law, and the axisymmetric angular invariant.
"""

import numpy as np

import flowmaplab as fl
from flowmaplab import LabelGrid

rng = np.random.default_rng(0)
# per-axis (low, high) bounds of a box inside each chart's validity domain
BOXES = {
    "cylindrical": ((2e-3, 2.0), (-np.pi + 0.1, np.pi - 0.1), (-1.0, 1.0)),
    "polar": ((0.1, 2.0), (0.2, np.pi - 0.2), (-np.pi + 0.1, np.pi - 0.1)),
    "elliptical": ((2.05, 2.95), (1.05, 1.95), (0.05, 0.95)),
}


def sample(chart, n):
    return np.stack([rng.uniform(lo, hi, size=n) for lo, hi in BOXES[chart.name]], axis=-1)


print("--- metric coefficients ---------------------------------------")
for chart in (fl.cylindrical_chart(), fl.polar_chart(), fl.elliptical_chart()):
    rho = sample(chart, 5)
    mc = fl.chart_metrics(chart, rho)
    print(f"  {chart.name:12s} N at one point: {np.round(mc.N[0], 6)}")
    n = fl.chart_metrics(chart, sample(chart, 200)).n
    print(f"  {'':12s} largest cross term |n_i|: {np.abs(n).max():.2e}")

print("\n--- a deliberately skewed chart is caught ----------------------")
from flowmaplab.curvilinear import skewed_chart

sk = skewed_chart()
mc = fl.chart_metrics(sk, rng.uniform(-1.0, 1.0, size=(10, 3)))
print(f"  cross term n3 = {mc.n[0, 2]:+.1f} (nonzero: not orthogonal)")

print("\n--- momentum balance in the charts -----------------------------")
w = 1.0
grid3 = LabelGrid((7, 7, 7), (0.5, 0.3, 0.4), (0.5 / 6,) * 3)
rot = fl.catalog_flow("rigid_rotation", omega=w, grid=grid3)


def omega_cyl(rho):
    return -0.5 * w * w * rho[..., 0] ** 2


def omega_cyl_grad(rho):
    out = np.zeros(rho.shape)
    out[..., 0] = -w * w * rho[..., 0]
    return out


res = fl.curvilinear_eom_residual(rot.map, fl.cylindrical_chart(), omega_cyl, 0.4,
                                  omega_grad=omega_cyl_grad)
print(f"  rotation, cylindrical chart: residual {max(r.linf for r in res):.3e}")

pv = fl.catalog_flow("point_vortex")
G = pv.params["gamma"]
res = fl.curvilinear_eom_residual(
    pv.map, fl.cylindrical_chart(),
    lambda rho: G ** 2 / (8 * np.pi ** 2 * rho[..., 0] ** 2),
    float(pv.map.times[1]))
print(f"  point vortex, cylindrical chart: residual {max(r.linf for r in res):.3e}")

print("\n--- transformed volume law --------------------------------------")
g9 = LabelGrid((9, 9, 9), (0.5, 0.3, 0.4), (0.5 / 8,) * 3)
stretch = fl.AnalyticFlowMap(g9, lambda lab, t: (1 + t) * lab,
                             lambda lab, t: lab.copy(), convention="generalized")
t = 0.6
s = fl.curvilinear_density_residual(stretch, fl.polar_chart(), t,
                                    density_ratio=(1 + t) ** -3)
print(f"  radial stretch with rho/rho0 = (1+t)^-3: residual {s.linf:.3e}")

print("\n--- the angular invariant H = r^2 dtheta/dt ---------------------")
out = fl.svanberg_invariant(pv.map, pv.map.times)
print(f"  point vortex: H = strength/(2 pi) = {G / (2 * np.pi):.6f} per particle, "
      f"drift {out['drift']:.2e}")
out = fl.svanberg_invariant(rot.map, [0.0, 2.0, 4.0])
print(f"  rotation: H = w r0^2 per particle, drift {out['drift']:.2e}")
