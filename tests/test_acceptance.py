"""Acceptance gate: every shipped claim at its stated tolerance.

Each criterion prints one pass/fail line (run with -s to see them during the
run) and fails loudly with the offending sub-checks listed.
"""

import json

import numpy as np

import flowmaplab as fl
from flowmaplab import (
    LabelGrid,
    MaterialLoop,
    MaterialSurface,
    StencilSpec,
    catalog_flow,
)
from flowmaplab.flows import default_grid
from flowmaplab.suite import _regrid, run_suite
from flowmaplab.quadrature import SIMPSON


def _criterion(num, desc, checks):
    ok = all(c[1] for c in checks)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    for label, good, detail in checks:
        if not good:
            print(f"    FAILED {label}: {detail}")
    assert ok, f"criterion {num} failed: " + "; ".join(
        c[0] for c in checks if not c[1])


def test_criterion_1_cauchy_invariant_conservation():
    checks = []

    e = catalog_flow("rigid_rotation", omega=1.0)
    times = np.linspace(0.0, 2 * np.pi, 8)
    drift = fl.invariant_drift(e.map, times)["drift"]
    checks.append(("rigid rotation analytic drift <= 1e-10", drift <= 1e-10, drift))

    g = _regrid(default_grid("gerstner"), (128, 128))
    e = catalog_flow("gerstner", grid=g)
    T = e.map.timescale
    drift = fl.invariant_drift(e.map, [0.0, T / 4, T / 2])["drift"]
    checks.append(("gerstner analytic drift <= 1e-8 on 128x128", drift <= 1e-8, drift))

    drifts = []
    for n in (64, 128):
        e = catalog_flow("point_vortex",
                         grid=_regrid(default_grid("point_vortex"), (n, n)),
                         validate=False)
        out = fl.invariant_drift(e.map, e.map.times, StencilSpec(2), mode="fd", rind=1)
        drifts.append(out["drift"])
    order = float(np.log2(drifts[0] / drifts[1]))
    checks.append(("point vortex FD drift order >= 1.8 under 64^2 -> 128^2",
                   order >= 1.8, (drifts, order)))

    _criterion(1, "label invariants constant in time", checks)


def test_criterion_2_density_equations():
    checks = []

    for name in ("rigid_rotation", "uniform_translation", "simple_shear",
                 "stagnation", "gerstner"):
        e = catalog_flow(name)
        t = 0.4 * e.map.timescale
        r = fl.density_residual(e.map, t, "lagrangian").linf
        checks.append((f"{name} |J(t)-J(0)| <= 1e-9", r <= 1e-9, r))

    for name in fl.catalog_names():
        e = catalog_flow(name)
        t = 0.25 * e.map.timescale
        r = fl.cofactor_identity_residual(e.map, t).linf
        checks.append((f"{name} cofactor identity <= 1e-10", r <= 1e-10, r))

    errs = []
    for n in (65, 129):
        e = catalog_flow("gerstner", grid=_regrid(default_grid("gerstner"), (n, n)),
                         validate=False)
        errs.append(fl.density_residual(e.map, 1.0, "eulerian", StencilSpec(2)).linf)
    order = float(np.log2(errs[0] / errs[1]))
    checks.append(("eulerian divergence order >= 1.8", order >= 1.8, (errs, order)))

    _criterion(2, "density equations in both dependences", checks)


def test_criterion_3_lagrangian_eom():
    checks = []

    for name in ("rigid_rotation", "gerstner"):
        e = catalog_flow(name)
        t = 0.3 * e.map.timescale
        r = max(s.linf for s in fl.lagrangian_eom_residual(e.map, e.force, t))
        checks.append((f"{name} label momentum residual <= 1e-8", r <= 1e-8, r))

    w = 1.0
    e = catalog_flow("rigid_rotation", omega=w)
    fp = fl.ForcePotential(pressure=0.0)  # unbalanced on purpose: both sides nonzero

    def u_fn(p, t):
        return np.stack([-w * p[..., 1], w * p[..., 0], 0 * p[..., 0]], -1)

    s = fl.chain_rule_mismatch(e.map, fp, u_fn, 0.8)
    h2 = max(e.map.grid.spacing) ** 2
    checks.append(("chain-rule tie between the two forms at O(h^2)",
                   s.linf <= 5 * h2, (s.linf, h2)))

    _criterion(3, "label-space momentum balance", checks)


def test_criterion_4_curvilinear_machinery():
    checks = []
    rng = np.random.default_rng(0)

    polar = fl.polar_chart()
    rho = polar.sample_domain(rng, 500)
    mc = fl.chart_metrics(polar, rho)
    r, th = rho[..., 0], rho[..., 1]
    err = max(
        float(np.abs(mc.N[..., 0] - 1).max()),
        float(np.abs(mc.N[..., 1] - r ** 2).max()),
        float(np.abs(mc.N[..., 2] - (r * np.sin(th)) ** 2).max()),
    )
    checks.append(("polar metric coefficients exact", err <= 1e-9, err))

    cyl = fl.cylindrical_chart()
    rho = cyl.sample_domain(rng, 500)
    mc = fl.chart_metrics(cyl, rho)
    err = max(
        float(np.abs(mc.N[..., 0] - 1).max()),
        float(np.abs(mc.N[..., 1] - rho[..., 0] ** 2).max()),
        float(np.abs(mc.N[..., 2] - 1).max()),
    )
    checks.append(("cylindrical metric coefficients exact", err <= 1e-9, err))

    from flowmaplab.flowmap import det3

    ell = fl.elliptical_chart(3.0, 2.0, 1.0)
    rho = ell.sample_domain(rng, 500)
    mc = fl.chart_metrics(ell, rho)
    checks.append(("elliptical N_i positive on the ordered domain",
                   bool(np.all(mc.N > 0)), float(mc.N.min())))
    P = ell.partials_at(rho)
    rel = np.abs(det3(P) ** 2 - det3(mc.gram())) / np.abs(det3(mc.gram()))
    checks.append(("determinant identity <= 1e-9 relative",
                   float(rel.max()) <= 1e-9, float(rel.max())))

    w = 1.0
    g3 = LabelGrid((7, 7, 7), (0.5, 0.3, 0.4), (0.5 / 6,) * 3)
    e = catalog_flow("rigid_rotation", omega=w, grid=g3)

    def omega(rho):
        return -0.5 * w * w * (rho[..., 0] * np.sin(rho[..., 1])) ** 2

    def omega_grad(rho):
        rr, tt = rho[..., 0], rho[..., 1]
        out = np.zeros(rho.shape)
        out[..., 0] = -w * w * rr * np.sin(tt) ** 2
        out[..., 1] = -w * w * rr * rr * np.sin(tt) * np.cos(tt)
        return out

    res = fl.curvilinear_eom_residual(e.map, polar, omega, 0.4, omega_grad=omega_grad)
    worst = max(s.linf for s in res)
    checks.append(("polar momentum residual for rigid rotation <= 1e-10",
                   worst <= 1e-10, worst))

    pv = catalog_flow("point_vortex")
    drift = fl.svanberg_invariant(pv.map, pv.map.times)["drift"]
    checks.append(("H = r^2 dtheta/dt drift <= 1e-6 for the point vortex",
                   drift <= 1e-6, drift))

    _criterion(4, "curvilinear charts, metrics, and transformed momentum", checks)


def test_criterion_5_stokes_kelvin():
    checks = []

    w = 0.1
    e = catalog_flow("rigid_rotation", omega=w)
    errs = []
    for n in (64, 128, 256):
        loop = MaterialLoop.circle(radius=1.0, n=n)
        surf = MaterialSurface.disk(radius=1.0, nr=max(8, n // 8), ntheta=n)
        errs.append(fl.stokes_residual(e.map, loop, surf, 0.9).residual)
    checks.append(("circulation vs flux mismatch <= 1e-4 at N=256",
                   errs[-1] <= 1e-4, errs[-1]))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    checks.append(("stokes mismatch order >= 1.8", min(orders) >= 1.8, orders))

    G = 2 * np.pi
    period = 4 * np.pi ** 2 / G
    pv = catalog_flow("point_vortex", gamma=G, times=(0.0, period / 2, period),
                      dt=period / 4096)
    loop = MaterialLoop.circle(radius=1.0, n=256)
    drift = fl.kelvin_drift(pv.map, loop, pv.map.times)["drift"]
    checks.append(("material-loop circulation drift <= 1e-5 over one orbit",
                   drift <= 1e-5, drift))

    t = float(pv.map.times[1])
    c_in = fl.circulation(pv.map, loop, t).position_form
    c_out = fl.circulation(
        pv.map, MaterialLoop.circle(center=(1.2, 1.2, 0.0), radius=0.2, n=256),
        t).position_form
    checks.append(("enclosing loop carries the full strength within 1e-6",
                   abs(c_in - G) <= 1e-6, abs(c_in - G)))
    checks.append(("non-enclosing loop carries zero within 1e-6",
                   abs(c_out) <= 1e-6, abs(c_out)))

    _criterion(5, "discrete circulation and flux theorems", checks)


def test_criterion_6_clebsch():
    checks = []
    g = LabelGrid((33, 33), (-1.0, -1.0), (1 / 16, 1 / 16))
    h2 = max(g.spacing) ** 2

    for name in ("uniform", "shear_xy", "rigid_rotation", "stagnation"):
        fx = fl.clebsch_fixture(name)
        s = fl.clebsch_vorticity_residual(fx["triple"], g)
        checks.append((f"{name} curl identity at O(h^2)", s.linf <= 5 * h2, s.linf))

    for name in ("rotation_material", "translation_material"):
        fx = fl.clebsch_fixture(name)
        r_phi, r_psi = fl.clebsch_advection_residual(fx["triple"], fx["velocity"], g)
        worst = max(r_phi.linf, r_psi.linf)
        checks.append((f"{name} advection residuals at O(h^2)",
                       worst <= 5 * h2, worst))

    for name in ("uniform", "stagnation"):
        fx = fl.clebsch_fixture(name)
        lap, bern = fl.potential_flow_checks(fx["triple"].F, fx["omega"], g)
        worst = max(lap.linf, bern.linf)
        checks.append((f"{name} Laplace+Bernoulli residuals <= 1e-12",
                       worst <= 1e-12, worst))

    _criterion(6, "Clebsch decomposition and potential-flow checks", checks)


def test_criterion_7_biot_savart():
    checks = []

    rng = np.random.default_rng(0)
    pos = rng.normal(size=(100000, 3))
    wv = rng.normal(size=(100000, 3))
    tgt = pos + rng.normal(size=(100000, 3)) * 2 + 0.5
    out = fl.biot_savart_geometry(pos, wv, 0.37, tgt)
    worst = max(out["radial_orthogonality"].max(), out["axis_orthogonality"].max(),
                out["magnitude_law"].max())
    checks.append(("element-law identities <= 1e-12 over 1e5 random pairs",
                   float(worst) <= 1e-12, float(worst)))

    from scipy.integrate import quad

    sigma = 0.105
    r = 1.5 * sigma
    target = np.array([r, 0.0, 0.0])
    errs = {}
    for n in (32, 64):
        src, u_exact, _, w_mid = fl.gaussian_swirl_blob(n=n)
        u = fl.velocity_from_vorticity(src, [target], allow_interior_targets=True)[0]
        errs[n] = float(np.linalg.norm(u - u_exact(target)))
    val, _ = quad(lambda s: 2 * w_mid(s) * s, 0.0, r)
    oracle = val / r
    src, _, _, _ = fl.gaussian_swirl_blob(n=64)
    u64 = fl.velocity_from_vorticity(src, [target], allow_interior_targets=True)[0]
    rel = abs(u64[1] - oracle) / abs(oracle)
    checks.append(("axisymmetric blob within 2% of the radial oracle at 64^3",
                   rel <= 0.02, rel))
    ratio = errs[32] / errs[64]
    checks.append(("error ratio 32^3 -> 64^3 at least 3.5", ratio >= 3.5, ratio))

    _criterion(7, "vorticity-to-velocity reconstruction", checks)


def test_criterion_8_energy():
    checks = []

    w = 1.0
    grid = LabelGrid((17, 17, 17), (-0.5, -0.5, -0.5), (1 / 16,) * 3)
    e = catalog_flow("rigid_rotation", omega=w, grid=grid)
    K = fl.living_force(e.map, 0.7)
    checks.append(("living force of rotation on the unit cube = w^2/12 within 1e-8",
                   abs(K - w * w / 12) <= 1e-8, abs(K - w * w / 12)))

    grid = LabelGrid((33, 33, 33), (0.0, 0.0, 0.0), (1 / 32,) * 3)
    for F_fn, desc in ((lambda p: p[..., 0] * p[..., 1], "xy"),
                       (lambda p: p[..., 0] ** 2 - p[..., 1] ** 2, "x^2-y^2")):
        out = fl.boundary_energy_identity(F_fn, grid, rule=SIMPSON)
        checks.append((f"boundary energy identity <= 1e-6 for {desc}",
                       out["residual"] <= 1e-6, out["residual"]))

    out = fl.boundary_energy_identity(lambda p: np.full(p.shape[:-1], 3.0), grid,
                                      rule=SIMPSON)
    h2 = max(grid.spacing) ** 2
    checks.append(("zero normal derivative forces |grad F| <= C h^2",
                   out["normal_derivative_vanishes"] and out["max_gradient"] <= h2,
                   out["max_gradient"]))

    _criterion(8, "kinetic-energy ledger and boundary identity", checks)


def test_criterion_9_harness(tmp_path):
    checks = []

    cfg = json.loads(open("suites/cauchy-core.json").read())
    cfg.pop("out", None)
    r1, code1 = run_suite(cfg)
    r2, code2 = run_suite(cfg)
    checks.append(("default suite passes", code1 == 0 and code2 == 0, (code1, code2)))
    checks.append(("reports hash-identical across two runs",
                   r1.determinism_hash() == r2.determinism_hash(),
                   (r1.determinism_hash(), r2.determinism_hash())))

    orders = [r.order for r in r1.rows if r.order is not None]
    checks.append(("measured order >= 1.8 on the finite-difference rows",
                   bool(orders) and min(orders) >= 1.8, orders))

    ff = json.loads(open("suites/forced-failure.json").read())
    ff.pop("out", None)
    report, code = run_suite(ff)
    failing = report.failing_rows()
    checks.append(("forced-failure suite exits 1 naming the failing row",
                   code == 1 and len(failing) > 0 and failing[0].flow == "gerstner",
                   [(r.flow, r.check, r.grid) for r in failing]))

    _criterion(9, "deterministic harness with honest exit codes", checks)
