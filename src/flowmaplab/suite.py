"""Suite runner: (flow x check x grid x time) matrices graded against
tolerances, with convergence-order estimation across resolutions.

A suite config is JSON validated against CONFIG_SCHEMA. Checks are looked up
in a registry by dotted id; every check returns the scalar error a tolerance
grades. Rows run serially, one catalog entry per (flow, grid) shared by all
checks, and land in declared order; all numerics are deterministic, so
reports hash identically from run to run.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import LabelGrid, StencilSpec
from .flowmap import cofactor_identity_residual, density_residual
from .flows import catalog_flow, default_grid, rk4_advect
from .dynamics import lagrangian_eom_residual
from .cauchy import cauchy_invariants, invariant_drift, solenoidality_residual
from .circulation import MaterialLoop, MaterialSurface, kelvin_drift, stokes_residual
from .curvilinear import svanberg_invariant
from .energy import living_force
from .quadrature import SIMPSON, TRAPEZOID
from .reporting import ReportRow, VerificationReport

__all__ = ["CONFIG_SCHEMA", "CHECKS", "load_config", "run_suite", "convergence_study"]


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["flows", "checks", "grids"],
    "properties": {
        "name": {"type": "string"},
        # "seed", "threads" and "quadrature" are accepted for old configs;
        # nothing reads them
        "seed": {"type": "integer"},
        "threads": {"type": "integer", "minimum": 1},
        "rind": {"type": "integer", "minimum": 0},
        "stencil_order": {"enum": [2, 4]},
        "quadrature": {"enum": ["trapezoid", "midpoint", "simpson"]},
        "time_fractions": {
            "type": "array", "items": {"type": "number"}, "minItems": 1,
        },
        "flows": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "required": ["name"],
                "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object", "required": ["id", "tolerance"],
                "properties": {
                    "id": {"type": "string"},
                    "tolerance": {"type": "number", "exclusiveMinimum": 0},
                    "options": {"type": "object"},
                    "min_order": {"type": "number"},
                },
            },
        },
        "grids": {
            "type": "array", "minItems": 1,
            "items": {"type": "array", "items": {"type": "integer", "minimum": 4},
                      "minItems": 1, "maxItems": 3},
        },
        "out": {
            "type": "object",
            "properties": {"report": {"type": "string"}, "rows": {"type": "string"}},
        },
    },
}


class ConfigError(ValueError):
    pass


def load_config(path_or_dict):
    import json

    if isinstance(path_or_dict, dict):
        cfg = path_or_dict
    else:
        with open(path_or_dict) as fh:
            cfg = json.load(fh)
    try:
        import jsonschema

        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except ImportError:  # schema module optional at runtime
        if not ({"flows", "checks", "grids"} <= set(cfg)):
            raise ConfigError("config needs flows, checks, grids")
    except Exception as exc:  # jsonschema.ValidationError
        raise ConfigError(str(exc)) from None
    for chk in cfg["checks"]:
        if chk["id"] not in CHECKS:
            raise ConfigError(
                f"unknown check {chk['id']!r}; known: {', '.join(sorted(CHECKS))}"
            )
    return cfg


def _regrid(grid, shape):
    shape = tuple(int(n) for n in shape)
    if len(shape) != grid.ndim:
        raise ConfigError(f"grid shape {shape} has wrong dimensionality for this flow")
    spacing = []
    for k, n in enumerate(shape):
        cells_old = grid.shape[k] if grid.periodic[k] else grid.shape[k] - 1
        extent = grid.spacing[k] * cells_old
        cells_new = n if grid.periodic[k] else n - 1
        spacing.append(extent / cells_new)
    return LabelGrid(shape, grid.origin, tuple(spacing), grid.periodic)


def _times_for(entry, cfg):
    fracs = cfg.get("time_fractions", [0.0, 0.125, 0.25])
    return [f * entry.map.timescale for f in fracs]


# ---------------------------------------------------------------------------
# check implementations: fn(entry, times, opts, ctx) -> row dict with at
# least "linf" and "time"; "l2" and "location" ride along when the check
# reduces a residual field


def _from_summary(s, t):
    return {"linf": s.linf, "l2": s.l2, "location": s.location, "time": t}


def _chk_invariant_drift(entry, times, opts, ctx):
    spec = StencilSpec(order=opts.get("stencil_order", ctx["stencil_order"]))
    mode = opts.get("mode", "auto")
    out = invariant_drift(entry.map, times, spec, mode=mode, rind=ctx["rind"])
    return {"linf": out["drift"], "time": times[-1]}


def _chk_solenoidality(entry, times, opts, ctx):
    spec = StencilSpec(order=opts.get("stencil_order", ctx["stencil_order"]))
    w = cauchy_invariants(entry.map, times[-1], spec, mode=opts.get("mode", "auto"))
    s = solenoidality_residual(w, spec, rind=max(1, ctx["rind"]))
    return _from_summary(s, times[-1])


def _chk_density_lagrangian(entry, times, opts, ctx):
    spec = StencilSpec(order=opts.get("stencil_order", ctx["stencil_order"]))
    worst = None
    for t in times[1:]:
        s = density_residual(entry.map, t, "lagrangian", spec,
                             gradient_mode=opts.get("mode", "auto"), rind=ctx["rind"])
        if worst is None or s.linf > worst["linf"]:
            worst = _from_summary(s, t)
    return worst


def _chk_density_eulerian(entry, times, opts, ctx):
    spec = StencilSpec(order=opts.get("stencil_order", ctx["stencil_order"]))
    s = density_residual(entry.map, times[-1], "eulerian", spec,
                         resample_method=opts.get("resample", "invert"))
    return _from_summary(s, times[-1])


def _chk_cofactor(entry, times, opts, ctx):
    spec = StencilSpec(order=opts.get("stencil_order", ctx["stencil_order"]))
    s = cofactor_identity_residual(entry.map, times[-1], spec,
                                   mode=opts.get("mode", "auto"), rind=ctx["rind"])
    return _from_summary(s, times[-1])


def _chk_lagrangian_eom(entry, times, opts, ctx):
    spec = StencilSpec(order=opts.get("stencil_order", ctx["stencil_order"]))
    res = lagrangian_eom_residual(entry.map, entry.force, times[-1], spec,
                                  mode=opts.get("mode", "auto"), rind=ctx["rind"])
    worst = max(res, key=lambda r: r.linf)
    return _from_summary(worst, times[-1])


def _chk_svanberg(entry, times, opts, ctx):
    out = svanberg_invariant(entry.map, times, rind=ctx["rind"])
    return {"linf": out["drift"], "location": out["location"], "time": times[-1]}


def _loop_points(entry, opts):
    # loop/surface resolution follows the grid resolution unless pinned, so
    # convergence studies refine the discrete theorem, not just the grid
    return int(opts.get("points", max(32, entry.map.grid.shape[0])))


def _loop_from_opts(entry, opts):
    return MaterialLoop.circle(
        center=tuple(opts.get("center", (0.0, 0.0, 0.0))),
        radius=opts.get("radius", 0.25),
        normal=tuple(opts.get("normal", (0.0, 0.0, 1.0))),
        n=_loop_points(entry, opts),
    )


def _chk_kelvin(entry, times, opts, ctx):
    loop = _loop_from_opts(entry, opts)
    out = kelvin_drift(entry.map, loop, times)
    return {"linf": out["drift"], "time": times[-1]}


def _chk_stokes(entry, times, opts, ctx):
    n = _loop_points(entry, opts)
    loop = _loop_from_opts(entry, opts)
    surf = MaterialSurface.disk(
        center=tuple(opts.get("center", (0.0, 0.0, 0.0))),
        radius=opts.get("radius", 0.25),
        normal=tuple(opts.get("normal", (0.0, 0.0, 1.0))),
        nr=opts.get("radial_points", max(8, n // 8)),
        ntheta=n,
    )
    chk = stokes_residual(entry.map, loop, surf, times[-1])
    return {"linf": chk.residual, "time": times[-1]}


def _chk_energy_drift(entry, times, opts, ctx):
    # Simpson needs an odd node count on every non-periodic axis; grids
    # without one fall back to the trapezoid rule
    g = entry.map.grid
    rule = SIMPSON if all(p or n % 2 for n, p in zip(g.shape, g.periodic)) else TRAPEZOID
    K0 = living_force(entry.map, times[0], rule)
    worst = max(abs(living_force(entry.map, t, rule) - K0) for t in times[1:])
    return {"linf": worst, "time": times[-1]}


CHECKS = {
    "cauchy.invariant_drift": (
        _chk_invariant_drift, "constancy in time of the label invariants (A,B,C)"),
    "cauchy.solenoidality": (
        _chk_solenoidality, "label divergence of (A,B,C) vanishes"),
    "flowmap.density_lagrangian": (
        _chk_density_lagrangian, "J(t) = J(0) * rho0/rho (volume/density law)"),
    "flowmap.density_eulerian": (
        _chk_density_eulerian, "div u = 0 on the resampled spatial grid"),
    "flowmap.cofactor_identity": (
        _chk_cofactor, "J * inverse gradient = cofactors of forward gradient"),
    "dynamics.lagrangian_eom": (
        _chk_lagrangian_eom, "label-space momentum residual under V and p"),
    "curvilinear.svanberg": (
        _chk_svanberg, "H = r^2 dtheta/dt constant per particle"),
    "circulation.kelvin_drift": (
        _chk_kelvin, "material-loop circulation constant in time"),
    "circulation.stokes": (
        _chk_stokes, "circulation equals vorticity flux through a spanning surface"),
    "energy.living_force_drift": (
        _chk_energy_drift, "kinetic energy constant for steady volume-preserving flow"),
}


def run_suite(cfg):
    """Execute every (flow, check, grid) combination of a validated config.

    Returns (VerificationReport, exit_code): 0 all rows pass, 1 otherwise.
    Each declared flow is built once per grid and every check runs on that
    entry, which is dropped before the next one is built; rows land in
    declared (flow, check, grid) order. Measured orders are attached to the
    finer rows of each (flow, check) group when two or more resolutions ran.
    """
    cfg = load_config(cfg)
    ctx = {
        "rind": cfg.get("rind", 1),
        "stencil_order": cfg.get("stencil_order", 2),
    }
    checks = cfg["checks"]
    shapes = [tuple(shape) for shape in cfg["grids"]]
    rows, hs = {}, {}
    # keyed by the flow's position, so two configs of one flow stay apart
    for fi, flow_cfg in enumerate(cfg["flows"]):
        for gi, shape in enumerate(shapes):
            params = dict(flow_cfg.get("params", {}))
            params["grid"] = _regrid(default_grid(flow_cfg["name"], **params), shape)
            entry = catalog_flow(flow_cfg["name"], **params)
            hs[fi, gi] = max(entry.map.grid.spacing)
            times = _times_for(entry, cfg)
            for ci, check_cfg in enumerate(checks):
                fn, anchor = CHECKS[check_cfg["id"]]
                out = fn(entry, times, check_cfg.get("options", {}), ctx)
                rows[fi, ci, gi] = ReportRow(
                    flow=flow_cfg["name"],
                    check=check_cfg["id"],
                    anchor=anchor,
                    grid="x".join(str(n) for n in shape),
                    time=float(out["time"]),
                    linf=float(out["linf"]),
                    l2=None if out.get("l2") is None else float(out["l2"]),
                    location=None if out.get("location") is None else tuple(out["location"]),
                    tolerance=check_cfg["tolerance"],
                )
            del entry

    # measured order: fit within each (flow, check) group across grids
    for fi in range(len(cfg["flows"])):
        gis = sorted(range(len(shapes)), key=lambda gi: -hs[fi, gi])
        for ci in range(len(checks)):
            if any(rows[fi, ci, gi].linf < 1e-12 for gi in gis):
                continue  # at the noise floor: order is meaningless
            for coarse, fine in zip(gis, gis[1:]):
                ratio = hs[fi, coarse] / hs[fi, fine]
                if ratio <= 1:
                    continue
                rows[fi, ci, fine].order = float(
                    math.log(rows[fi, ci, coarse].linf / rows[fi, ci, fine].linf)
                    / math.log(ratio)
                )
    report = VerificationReport([rows[key] for key in sorted(rows)], config=cfg)
    # a declared check's min_order gate fails those of its own rows with an order
    for (_, ci, _), r in rows.items():
        if r.order is not None and r.order < checks[ci].get("min_order", -math.inf):
            r.passed = False
    return report, (0 if report.overall_pass else 1)


def convergence_study(check_id, flow_name, resolutions=None, dts=None,
                      flow_params=None, tolerance=1.0, out_path=None,
                      time_fractions=None):
    """(h, error) table plus least-squares order for one check and flow.

    Either grid ``resolutions`` (list of shapes) or, for the integrator
    closure study, a list of ``dts``. Emits a two-column whitespace data file
    when out_path is given and returns a dict with the table and the fitted
    slope (None when the errors sit at the noise floor).
    """
    flow_params = flow_params or {}
    table = []
    if check_id == "flows.rk4_closure":
        if not dts:
            raise ConfigError("rk4 closure study needs --dts")
        w = flow_params.get("omega", 1.0)
        period = 2 * math.pi / w

        def field(x, t):
            return np.stack([-w * x[..., 1], w * x[..., 0], np.zeros_like(x[..., 0])], axis=-1)

        start = np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 0.0]])
        for dt in dts:
            end = rk4_advect(field, start, 0.0, period, dt)
            table.append((float(dt), float(np.max(np.abs(end - start)))))
    else:
        if not resolutions:
            raise ConfigError("convergence study needs grid resolutions")
        cfg = {
            "flows": [{"name": flow_name, "params": flow_params}],
            "checks": [{"id": check_id, "tolerance": tolerance}],
            "grids": [list(r) for r in resolutions],
        }
        if time_fractions:
            cfg["time_fractions"] = time_fractions
        report, _ = run_suite(cfg)
        for row, shape in zip(report.rows, resolutions):
            h = max(_regrid(default_grid(flow_name, **flow_params), shape).spacing)
            table.append((h, row.linf))
    table.sort(key=lambda he: -he[0])
    errs = np.array([e for _, e in table])
    slope = None
    if len(table) >= 2 and np.all(errs > 1e-12):
        logh = np.log([h for h, _ in table])
        loge = np.log(errs)
        slope = float(np.polyfit(logh, loge, 1)[0])
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("# h  error\n")
            for h, e in table:
                fh.write(f"{h!r} {e!r}\n")
    return {"table": table, "order": slope,
            "note": None if slope is not None else "n/a (floor)"}
