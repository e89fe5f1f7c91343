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
import numbers

import numpy as np

from .grids import StencilSpec
from .flowmap import _lagrangian_density_residuals, cofactor_identity_residual, density_residual
from .flows import catalog_flow, catalog_names, catalog_params, default_grid, rk4_advect
from .dynamics import lagrangian_eom_residual
from .cauchy import cauchy_invariants, invariant_drift, solenoidality_residual
from .circulation import (MaterialLoop, MaterialSurface, _frame_from_normal, kelvin_drift,
                          stokes_residual)
from .energy import living_force
from .reporting import ReportRow, VerificationReport

__all__ = ["CONFIG_SCHEMA", "CHECKS", "ConfigError", "load_config", "validate_flow",
           "run_suite", "convergence_study"]


_VECTOR3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["flows", "checks", "grids"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        # "seed" and "threads" are accepted for old configs; load_config drops them
        "seed": {"type": "integer"},
        "threads": {"type": "integer", "minimum": 1},
        "rind": {"type": "integer", "minimum": 0},
        "stencil_order": {"type": "integer", "enum": [2, 4]},
        "time_fractions": {
            "type": "array", "items": {"type": "number"}, "minItems": 2,
        },
        "flows": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "required": ["name"], "additionalProperties": False,
                "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
            },
        },
        "checks": {
            "type": "array", "minItems": 1,
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


# the draft 2020-12 meaning of each type CONFIG_SCHEMA names: a bool is no
# number, and an integral float is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
# the keywords _schema_errors reads; "$schema" only names the draft
_KEYWORDS = {"$schema", "type", "required", "properties", "additionalProperties", "items",
             "enum", "minimum", "exclusiveMinimum", "minItems", "maxItems"}


def _schema_errors(node, schema, path=()):
    """Yield (path, keyword, message) for each way ``node`` breaks ``schema``.

    Implements the draft 2020-12 meaning of the keywords in ``_KEYWORDS``,
    with jsonschema's messages, and only ``additionalProperties: false``. A
    schema with any other keyword raises, so that a keyword added to
    CONFIG_SCHEMA cannot go unchecked.
    """
    unknown = schema.keys() - _KEYWORDS
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise NotImplementedError(f"schema keywords {sorted(unknown)} at {_config_path(path)}")
    if "type" in schema and not _TYPES[schema["type"]](node):
        yield path, "type", f"{node!r} is not of type {schema['type']!r}"
    # == with bool kept apart from int, as jsonschema's enum compares
    if "enum" in schema and not any(
            node == v and isinstance(node, bool) == isinstance(v, bool) for v in schema["enum"]):
        yield path, "enum", f"{node!r} is not one of {schema['enum']!r}"
    if _TYPES["number"](node):
        if "minimum" in schema and node < schema["minimum"]:
            yield path, "minimum", f"{node!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and node <= schema["exclusiveMinimum"]:
            yield (path, "exclusiveMinimum", f"{node!r} is less than or equal to the minimum "
                                             f"of {schema['exclusiveMinimum']!r}")
    elif isinstance(node, list):
        if len(node) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            yield path, "minItems", f"{node!r} {short}"
        if len(node) > schema.get("maxItems", len(node)):
            yield path, "maxItems", f"{node!r} is too long"
        if "items" in schema:
            for i, item in enumerate(node):
                yield from _schema_errors(item, schema["items"], path + (i,))
    elif isinstance(node, dict):
        for key in schema.get("required", ()):
            if key not in node:
                yield path, "required", f"{key!r} is a required property"
        props = schema.get("properties", {})
        extra = sorted((k for k in node if k not in props), key=str)
        if "additionalProperties" in schema and extra:
            yield (path, "additionalProperties",
                   f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                   f"{'was' if len(extra) == 1 else 'were'} unexpected); "
                   f"accepted: {', '.join(props)}")
        for key, sub in props.items():
            if key in node:
                yield from _schema_errors(node[key], sub, path + (key,))


# the values a config that leaves these keys out runs with
_DEFAULTS = {"rind": 1, "stencil_order": 2, "time_fractions": [0.0, 0.125, 0.25]}


def _typed(node, schema):
    """A copy of a schema-valid ``node`` in which every value ``schema`` types
    "integer" is an int (the schema takes ``16.0`` there, and the code slices
    and counts with it) and every value it types "number" a float."""
    cast = {"integer": int, "number": float}.get(schema.get("type"))
    if cast is not None:
        return cast(node)
    if isinstance(node, list):
        return [_typed(item, schema.get("items", {})) for item in node]
    if isinstance(node, dict):
        props = schema.get("properties", {})
        return {key: _typed(value, props.get(key, {})) for key, value in node.items()}
    return node


class ConfigError(ValueError):
    pass


def load_config(path_or_dict):
    """A suite config (a path or a dict), validated before anything is built.

    Beyond the schema, every number must be finite (JSON readers accept NaN
    and Infinity), every check id, check option, flow name and flow param
    must be one the code reads, every flow's domain must mesh at every grid,
    ``time_fractions`` must strictly increase, a loop ``normal`` must have
    non-zero length, and with ``stencil_order`` 4 every grid axis needs at
    least 6 nodes. Any violation raises ConfigError naming the key and the
    accepted names or values.

    The config returned is the effective config, a new dict that loads to
    itself: schema integers are ints and numbers floats, ``_DEFAULTS``,
    ``params`` and ``options`` are filled in, and ``seed`` and ``threads``
    are dropped, so ``rind: 1.0``, ``rind: 1`` and no ``rind`` hash alike.
    """
    import json

    if isinstance(path_or_dict, dict):
        cfg = path_or_dict
    else:
        with open(path_or_dict) as fh:
            cfg = json.load(fh)
    bad = _non_finite(cfg)
    if bad is not None:
        path, value = bad
        raise ConfigError(f"{_config_path(path)}: {value!r} is not a finite number")
    # the error jsonschema's best_match picks: the shallowest, and of those
    # the greatest path, then the first found
    error = max(_schema_errors(cfg, CONFIG_SCHEMA), key=lambda err: (-len(err[0]), err[0]),
                default=None)
    if error is not None:
        path, _, message = error
        raise ConfigError(f"{_config_path(path)}: {message}")
    cfg = _typed({**_DEFAULTS, **{k: v for k, v in cfg.items() if k not in ("seed", "threads")}},
                 CONFIG_SCHEMA)
    fracs = cfg["time_fractions"]
    if any(b <= a for a, b in zip(fracs, fracs[1:])):
        raise ConfigError(f"config.time_fractions {fracs} must strictly increase")
    if cfg["stencil_order"] == 4:
        for shape in cfg["grids"]:
            if min(shape) < 6:
                raise ConfigError(f"config.grids {shape}: stencil_order 4 needs >= 6 nodes "
                                  f"on every axis")
    for i, chk in enumerate(cfg["checks"]):
        if chk["id"] in _RETIRED:
            raise ConfigError(f"check {chk['id']!r} was removed: {_RETIRED[chk['id']]}")
        if chk["id"] not in CHECKS:
            raise ConfigError(
                f"unknown check {chk['id']!r}; known: {', '.join(sorted(CHECKS))}"
            )
        _reject_unknown(f"check {chk['id']!r}", "option", chk.setdefault("options", {}),
                        _check_options(chk["id"]))
        if "normal" in chk["options"]:
            try:
                _frame_from_normal(chk["options"]["normal"])
            except ValueError as exc:
                raise ConfigError(f"config.checks[{i}].options.normal: {exc}") from None
    for flow in cfg["flows"]:
        validate_flow(flow["name"], flow.setdefault("params", {}), cfg["grids"])
    return cfg


def _config_path(keys, root="config"):
    return root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def _non_finite(node, path=()):
    """(path, value) of the first NaN or infinite number in a parsed config."""
    if isinstance(node, float) and not math.isfinite(node):
        return path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        found = _non_finite(value, path + (key,))
        if found is not None:
            return found
    return None


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


# ---------------------------------------------------------------------------
# check implementations: fn(entry, times, ctx, **options) -> row dict with
# at least "linf" and "time"; "l2" and "location" ride along when the check
# reduces a residual field. A check's options are its keyword-only
# parameters, and load_config rejects any other.


def _from_summary(s, t):
    return {"linf": s.linf, "l2": s.l2, "location": s.location, "time": t}


def _chk_invariant_drift(entry, times, ctx, *, mode="auto"):
    out = invariant_drift(entry.map, times, ctx["spec"], mode=mode, rind=ctx["rind"])
    return {"linf": out["drift"], "time": times[-1]}


def _chk_solenoidality(entry, times, ctx, *, mode="auto"):
    spec = ctx["spec"]
    w = cauchy_invariants(entry.map, times[-1], spec, mode=mode)
    s = solenoidality_residual(w, spec, rind=max(1, ctx["rind"]))
    return _from_summary(s, times[-1])


def _chk_density_lagrangian(entry, times, ctx, *, mode="auto"):
    residuals = _lagrangian_density_residuals(entry.map, times[1:], ctx["spec"], mode,
                                              ctx["rind"])
    i = int(np.argmax([s.linf for s in residuals]))  # the first NaN, else the first max
    return _from_summary(residuals[i], times[1 + i])


def _chk_density_eulerian(entry, times, ctx):
    s = density_residual(entry.map, times[-1], "eulerian", ctx["spec"])
    return _from_summary(s, times[-1])


def _chk_cofactor(entry, times, ctx, *, mode="auto"):
    s = cofactor_identity_residual(entry.map, times[-1], ctx["spec"], mode=mode,
                                   rind=ctx["rind"])
    return _from_summary(s, times[-1])


def _chk_lagrangian_eom(entry, times, ctx, *, mode="auto"):
    res = lagrangian_eom_residual(entry.map, entry.force, times[-1], ctx["spec"],
                                  mode=mode, rind=ctx["rind"])
    i = int(np.argmax([r.linf for r in res]))  # the first NaN, else the first max
    return _from_summary(res[i], times[-1])


def _loop_points(entry, points):
    # loop/surface resolution follows the grid resolution unless pinned, so
    # convergence studies refine the discrete theorem, not just the grid
    return int(max(32, entry.map.grid.shape[0]) if points is None else points)


def _chk_kelvin(entry, times, ctx, *, center=(0.0, 0.0, 0.0), radius=0.25,
                normal=(0.0, 0.0, 1.0), points=None):
    loop = MaterialLoop.circle(center=tuple(center), radius=radius, normal=tuple(normal),
                               n=_loop_points(entry, points))
    return {"linf": kelvin_drift(entry.map, loop, times), "time": times[-1]}


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
    K0 = living_force(entry.map, times[0])
    worst = np.max([abs(living_force(entry.map, t) - K0) for t in times[1:]])  # NaN propagates
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

# an error at or below this is noise: a group holding one fits no order
ORDER_FLOOR = 1e-12


def run_suite(cfg):
    """Execute every (flow, check, grid) combination of a validated config.

    Returns (VerificationReport, exit_code): 0 all rows pass, 1 otherwise.
    A ValueError raised while a flow entry is built (a param value the flow
    cannot take) raises ConfigError.
    Each declared flow is built once per grid and every check runs on that
    entry, which is dropped before the next one is built; rows land in
    declared (flow, check, grid) order. Measured orders are attached to the
    finer rows of each (flow, check) group when two or more resolutions ran.
    The report's config block is the effective config without its ``out``
    block, so the output paths do not move the determinism hash.
    """
    cfg = load_config(cfg)
    ctx = {"rind": cfg["rind"], "spec": StencilSpec(order=cfg["stencil_order"])}
    checks = cfg["checks"]
    shapes = [tuple(shape) for shape in cfg["grids"]]
    rows, hs = {}, {}
    # keyed by the flow's position, so two configs of one flow stay apart
    for fi, flow_cfg in enumerate(cfg["flows"]):
        for gi, shape in enumerate(shapes):
            params = flow_cfg["params"]
            try:
                grid = default_grid(flow_cfg["name"], shape, **params)
                entry = catalog_flow(flow_cfg["name"], grid=grid, **params)
            except ValueError as exc:  # a param value the flow cannot be built with
                raise ConfigError(str(exc)) from None
            hs[fi, gi] = max(entry.map.grid.spacing)
            times = [f * entry.map.timescale for f in cfg["time_fractions"]]
            for ci, check_cfg in enumerate(checks):
                fn, anchor = CHECKS[check_cfg["id"]]
                out = fn(entry, times, ctx, **check_cfg["options"])
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
            if not all(rows[fi, ci, gi].linf > ORDER_FLOOR for gi in gis):
                continue
            for coarse, fine in zip(gis, gis[1:]):
                ratio = hs[fi, coarse] / hs[fi, fine]
                if ratio <= 1:
                    continue
                rows[fi, ci, fine].order = float(
                    math.log(rows[fi, ci, coarse].linf / rows[fi, ci, fine].linf)
                    / math.log(ratio)
                )
    report = VerificationReport([rows[key] for key in sorted(rows)],
                                config={k: v for k, v in cfg.items() if k != "out"})
    # a declared check's min_order gate fails those of its own rows with an order
    for (_, ci, _), r in rows.items():
        if r.order is not None and r.order < checks[ci].get("min_order", -math.inf):
            r.passed = False
    return report, (0 if report.overall_pass else 1)


def convergence_study(check_id, flow_name, resolutions=None, dts=None,
                      flow_params=None, out_path=None):
    """(h, error) table plus least-squares order for one check and flow.

    Either grid ``resolutions`` (list of shapes) or, for the integrator
    closure study, a list of ``dts``, each positive and finite. Emits a
    two-column whitespace data file when out_path is given and returns a dict
    with the table and the fitted slope (None when the errors sit at the
    noise floor). Fewer than two distinct step sizes leave no slope to fit
    and raise ConfigError, and so does the step list the study does not read.
    """
    flow_params = flow_params or {}
    table = []
    closure = check_id == "flows.rk4_closure"
    if resolutions if closure else dts:
        raise ConfigError(f"{check_id} does not read {'--grids' if closure else '--dts'}")
    if closure:
        # the study integrates the rigid_rotation entry's field, which reads only omega
        if flow_name != "rigid_rotation":
            raise ConfigError(f"flows.rk4_closure runs on rigid_rotation only, not {flow_name!r}")
        _reject_unknown("flows.rk4_closure", "param", flow_params, ("omega",))
        if not dts:
            raise ConfigError("rk4 closure study needs --dts")
        for dt in dts:
            if not (math.isfinite(dt) and dt > 0):
                raise ConfigError(f"rk4 closure step {dt!r} is not positive and finite")
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
            # the study keeps each row's error, not its grade
            "checks": [{"id": check_id, "tolerance": 1.0}],
            "grids": [list(r) for r in resolutions],
        }
        report, _ = run_suite(cfg)
        for row, shape in zip(report.rows, resolutions):
            table.append((max(default_grid(flow_name, shape, **flow_params).spacing), row.linf))
    steps = len({h for h, _ in table})
    if steps < 2:
        raise ConfigError(f"convergence study needs two or more distinct step sizes; "
                          f"{'--dts' if closure else '--grids'} gives {steps}")
    table.sort(key=lambda he: -he[0])
    errs = np.array([e for _, e in table])
    slope = None
    if all(e > ORDER_FLOOR for e in errs):
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
