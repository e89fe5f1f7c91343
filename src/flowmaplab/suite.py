"""Suite runner: (flow x check x grid x time) matrices graded against
tolerances, with convergence-order estimation across resolutions.

A suite config is JSON validated against CONFIG_SCHEMA. Checks are looked up
in a registry by dotted id; every check returns the scalar error a tolerance
grades. Rows run serially, one catalog entry per (flow, grid) shared by all
checks, and land in declared order; all numerics are deterministic, so
reports hash identically from run to run.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .grids import StencilSpec
from .flowmap import cofactor_identity_residual, density_residual
from .flows import catalog_flow, catalog_names, catalog_params, default_grid, rk4_advect
from .dynamics import lagrangian_eom_residual
from .cauchy import cauchy_invariants, invariant_drift, solenoidality_residual
from .circulation import MaterialLoop, MaterialSurface, kelvin_drift, stokes_residual
from .energy import living_force
from .quadrature import SIMPSON, TRAPEZOID
from .reporting import ReportRow, VerificationReport

__all__ = ["CONFIG_SCHEMA", "CHECKS", "load_config", "validate_flow", "run_suite",
           "convergence_study"]


_VECTOR3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["flows", "checks", "grids"],
    "additionalProperties": False,
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
                "type": "object", "required": ["name"], "additionalProperties": False,
                "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object", "required": ["id", "tolerance"], "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "tolerance": {"type": "number", "exclusiveMinimum": 0},
                    # any other option is checked against the check's signature
                    "options": {
                        "type": "object",
                        "properties": {
                            "mode": {"enum": ["auto", "analytic", "fd"]},
                            "stencil_order": {"enum": [2, 4]},
                            "radius": {"type": "number", "exclusiveMinimum": 0},
                            "points": {"type": "integer", "minimum": 16},
                            "radial_points": {"type": "integer", "minimum": 2},
                            "center": _VECTOR3,
                            "normal": _VECTOR3,
                        },
                    },
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
            "type": "object", "additionalProperties": False,
            "properties": {"report": {"type": "string"}, "rows": {"type": "string"}},
        },
    },
}


class ConfigError(ValueError):
    pass


def load_config(path_or_dict):
    """A suite config (a path or a dict), validated before anything is built.

    Beyond the schema, every check id, check option, flow name and flow param
    must be one the code reads, and every flow's domain must mesh at every
    grid. Any violation raises ConfigError naming the key and the accepted
    names.
    """
    import json

    import jsonschema

    if isinstance(path_or_dict, dict):
        cfg = path_or_dict
    else:
        with open(path_or_dict) as fh:
            cfg = json.load(fh)
    # the error jsonschema.validate would raise, without re-checking the
    # constant schema itself on every load (a test checks it once)
    exc = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg))
    if exc is not None:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.absolute_path)
        msg = f"config{where}: {exc.message}"
        if exc.validator == "additionalProperties":
            msg += f"; accepted: {', '.join(exc.schema['properties'])}"
        raise ConfigError(msg)
    for chk in cfg["checks"]:
        if chk["id"] in _RETIRED:
            raise ConfigError(f"check {chk['id']!r} was removed: {_RETIRED[chk['id']]}")
        if chk["id"] not in CHECKS:
            raise ConfigError(
                f"unknown check {chk['id']!r}; known: {', '.join(sorted(CHECKS))}"
            )
        _reject_unknown(f"check {chk['id']!r}", "option", chk.get("options", {}),
                        _check_options(chk["id"]))
    for flow in cfg["flows"]:
        validate_flow(flow["name"], flow.get("params", {}), cfg["grids"])
    return cfg


def _check_options(check_id):
    """Names of the options a check takes: its keyword-only parameters."""
    params = inspect.signature(CHECKS[check_id][0]).parameters.values()
    return tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY)


def validate_flow(name, params, shapes=(None,)):
    """Raise ConfigError unless ``name`` is a catalog flow that takes every
    key of ``params`` and whose domain meshes at each of ``shapes`` (None is
    the flow's default shape)."""
    if name not in catalog_names():
        raise ConfigError(f"unknown flow {name!r}; known: {', '.join(catalog_names())}")
    _reject_unknown(f"flow {name!r}", "param", params, catalog_params(name))
    for shape in shapes:
        try:
            default_grid(name, shape, **params)
        except ValueError as exc:  # a shape or domain param the flow cannot take
            raise ConfigError(str(exc)) from None


def _reject_unknown(owner, kind, given, accepted):
    unknown = [k for k in given if k not in accepted]
    if unknown:
        raise ConfigError(f"{owner} takes no {kind} {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(accepted) or 'none'}")


def _times_for(entry, cfg):
    fracs = cfg.get("time_fractions", [0.0, 0.125, 0.25])
    return [f * entry.map.timescale for f in fracs]


# ---------------------------------------------------------------------------
# check implementations: fn(entry, times, ctx, **options) -> row dict with
# at least "linf" and "time"; "l2" and "location" ride along when the check
# reduces a residual field. A check's options are its keyword-only
# parameters, and load_config rejects any other.


def _from_summary(s, t):
    return {"linf": s.linf, "l2": s.l2, "location": s.location, "time": t}


def _spec(ctx, stencil_order):
    # a check's own stencil_order overrides the config's top-level one
    return StencilSpec(order=ctx["stencil_order"] if stencil_order is None else stencil_order)


def _chk_invariant_drift(entry, times, ctx, *, mode="auto", stencil_order=None):
    out = invariant_drift(entry.map, times, _spec(ctx, stencil_order), mode=mode,
                          rind=ctx["rind"])
    return {"linf": out["drift"], "time": times[-1]}


def _chk_solenoidality(entry, times, ctx, *, mode="auto", stencil_order=None):
    spec = _spec(ctx, stencil_order)
    w = cauchy_invariants(entry.map, times[-1], spec, mode=mode)
    s = solenoidality_residual(w, spec, rind=max(1, ctx["rind"]))
    return _from_summary(s, times[-1])


def _chk_density_lagrangian(entry, times, ctx, *, mode="auto", stencil_order=None):
    spec = _spec(ctx, stencil_order)
    worst = None
    for t in times[1:]:
        s = density_residual(entry.map, t, "lagrangian", spec, gradient_mode=mode,
                             rind=ctx["rind"])
        if worst is None or s.linf > worst["linf"]:
            worst = _from_summary(s, t)
    return worst


def _chk_density_eulerian(entry, times, ctx, *, stencil_order=None):
    s = density_residual(entry.map, times[-1], "eulerian", _spec(ctx, stencil_order))
    return _from_summary(s, times[-1])


def _chk_cofactor(entry, times, ctx, *, mode="auto", stencil_order=None):
    s = cofactor_identity_residual(entry.map, times[-1], _spec(ctx, stencil_order),
                                   mode=mode, rind=ctx["rind"])
    return _from_summary(s, times[-1])


def _chk_lagrangian_eom(entry, times, ctx, *, mode="auto", stencil_order=None):
    res = lagrangian_eom_residual(entry.map, entry.force, times[-1], _spec(ctx, stencil_order),
                                  mode=mode, rind=ctx["rind"])
    worst = max(res, key=lambda r: r.linf)
    return _from_summary(worst, times[-1])


def _loop_points(entry, points):
    # loop/surface resolution follows the grid resolution unless pinned, so
    # convergence studies refine the discrete theorem, not just the grid
    return int(max(32, entry.map.grid.shape[0]) if points is None else points)


def _chk_kelvin(entry, times, ctx, *, center=(0.0, 0.0, 0.0), radius=0.25,
                normal=(0.0, 0.0, 1.0), points=None):
    loop = MaterialLoop.circle(center=tuple(center), radius=radius, normal=tuple(normal),
                               n=_loop_points(entry, points))
    out = kelvin_drift(entry.map, loop, times)
    return {"linf": out["drift"], "time": times[-1]}


def _chk_stokes(entry, times, ctx, *, center=(0.0, 0.0, 0.0), radius=0.25,
                normal=(0.0, 0.0, 1.0), points=None, radial_points=None):
    n = _loop_points(entry, points)
    loop = MaterialLoop.circle(center=tuple(center), radius=radius, normal=tuple(normal), n=n)
    surf = MaterialSurface.disk(
        center=tuple(center), radius=radius, normal=tuple(normal),
        nr=max(8, n // 8) if radial_points is None else radial_points, ntheta=n,
    )
    chk = stokes_residual(entry.map, loop, surf, times[-1])
    return {"linf": chk.residual, "time": times[-1]}


def _chk_energy_drift(entry, times, ctx):
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
    "circulation.kelvin_drift": (
        _chk_kelvin, "material-loop circulation constant in time"),
    "circulation.stokes": (
        _chk_stokes, "circulation equals vorticity flux through a spanning surface"),
    "energy.living_force_drift": (
        _chk_energy_drift, "kinetic energy constant for steady volume-preserving flow"),
}

# checks that could not fail where they apply, and why
_RETIRED = {
    "curvilinear.svanberg": "H = r^2 dtheta/dt is constant by construction on the flows it "
                            "applies to; curvilinear.svanberg_invariant still computes it",
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
            params = flow_cfg.get("params", {})
            grid = default_grid(flow_cfg["name"], shape, **params)
            entry = catalog_flow(flow_cfg["name"], grid=grid, **params)
            hs[fi, gi] = max(entry.map.grid.spacing)
            times = _times_for(entry, cfg)
            for ci, check_cfg in enumerate(checks):
                fn, anchor = CHECKS[check_cfg["id"]]
                out = fn(entry, times, ctx, **check_cfg.get("options", {}))
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
        # the study integrates the rigid_rotation entry's field, which reads only omega
        if flow_name != "rigid_rotation":
            raise ConfigError(f"flows.rk4_closure runs on rigid_rotation only, not {flow_name!r}")
        _reject_unknown("flows.rk4_closure", "param", flow_params, ("omega",))
        if not dts:
            raise ConfigError("rk4 closure study needs --dts")
        entry = catalog_flow("rigid_rotation", validate=False, **flow_params)
        period = 2 * math.pi / entry.params["omega"]
        start = np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 0.0]])
        for dt in dts:
            end = rk4_advect(entry.velocity_field, start, 0.0, period, dt)
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
            table.append((max(default_grid(flow_name, shape, **flow_params).spacing), row.linf))
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
