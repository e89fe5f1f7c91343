"""Command-line harness.

Commands:
  run <config>                      execute a verification suite
  converge <check> <flow> ...       convergence study over grids or dts
  flows list | describe <name>      catalog listing
  report diff <a> <b>               compare two report files

Exit codes for ``run``: 0 all rows pass, 1 a check failed (report still
written), 2 config schema violation or malformed command-line input, 3 I/O
failure. Flags override config fields. Other commands also exit 2 on
malformed command-line input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .flows import catalog_names, describe_flow
from .reporting import report_diff
from .suite import ConfigError, convergence_study, load_config, run_suite

__all__ = ["main", "build_parser"]


def build_parser():
    p = argparse.ArgumentParser(
        prog="flowmaplab",
        description="Verification suites for Lagrangian flow-map identities.",
    )
    p.add_argument("--version", action="version", version=f"flowmaplab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a suite config")
    runp.add_argument("config", help="path to a suite JSON config")
    runp.add_argument("--grid", help="override grids, e.g. 32x32,64x64")
    runp.add_argument("--flow", help="restrict to one catalog flow")
    runp.add_argument("--out", help="override the report output path")

    conv = sub.add_parser("converge", help="convergence study for one check")
    conv.add_argument("check", help="check id, e.g. cauchy.invariant_drift")
    conv.add_argument("flow", help="catalog flow name")
    conv.add_argument("--grids", help="comma list of grid shapes, e.g. 32x32,64x64")
    conv.add_argument("--dts", help="comma list of time steps (rk4 closure study)")
    conv.add_argument("--params", help="flow parameters as JSON")
    conv.add_argument("--out", help="two-column data file for plotting")

    flows = sub.add_parser("flows", help="catalog queries")
    fsub = flows.add_subparsers(dest="flows_command", required=True)
    fsub.add_parser("list", help="list catalog flows")
    fdesc = fsub.add_parser("describe", help="describe one flow")
    fdesc.add_argument("name")
    fdesc.add_argument("--params", help="flow parameters as JSON")

    rep = sub.add_parser("report", help="report utilities")
    rsub = rep.add_subparsers(dest="report_command", required=True)
    rdiff = rsub.add_parser("diff", help="compare two report files")
    rdiff.add_argument("a")
    rdiff.add_argument("b")

    return p


def _parse_grids(text):
    try:
        return [[int(n) for n in tok.lower().split("x")] for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad grid list {text!r}; expected e.g. 32x32,64x64") from None


def _parse_params(text):
    try:
        params = json.loads(text) if text else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ConfigError(f"--params must be a JSON object, got {text!r}")
    return params


def _cmd_run(args):
    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    if args.grid:
        cfg["grids"] = _parse_grids(args.grid)
    if args.flow:
        cfg["flows"] = [f for f in cfg["flows"] if f["name"] == args.flow]
        if not cfg["flows"]:
            raise ConfigError(f"flow {args.flow!r} not in config")
    report, code = run_suite(cfg)
    out = args.out or cfg.get("out", {}).get("report")
    rows_out = cfg.get("out", {}).get("rows")
    try:
        if out:
            report.to_json(out)
        if rows_out:
            report.to_csv(rows_out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3
    for r in report.rows:
        status = "pass" if r.passed else "FAIL"
        order = "" if r.order is None else f" order={r.order:.2f}"
        print(f"[{status}] {r.flow} {r.check} grid={r.grid} t={r.time:.4g} "
              f"linf={r.linf:.3e} tol={r.tolerance:g}{order}")
    print(f"determinism hash: {report.determinism_hash()}")
    if code != 0:
        for r in report.failing_rows():
            print(f"failing row: flow={r.flow} check={r.check} grid={r.grid} "
                  f"linf={r.linf:.3e} > tol={r.tolerance:g}", file=sys.stderr)
    return code


def _cmd_converge(args):
    try:
        dts = [float(x) for x in args.dts.split(",")] if args.dts else None
    except ValueError:
        raise ConfigError(f"bad --dts list {args.dts!r}") from None
    out = convergence_study(args.check, args.flow,
                            resolutions=_parse_grids(args.grids) if args.grids else None,
                            dts=dts, flow_params=_parse_params(args.params),
                            out_path=args.out)
    print("# h  error")
    for h, e in out["table"]:
        print(f"{h:.6e} {e:.6e}")
    if out["order"] is None:
        print(f"fitted order: {out['note']}")
    else:
        print(f"fitted order: {out['order']:.3f}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "converge":
            return _cmd_converge(args)
        if args.command == "flows":
            if args.flows_command == "list":
                for name in catalog_names():
                    print(name)
            else:
                print(describe_flow(args.name, **_parse_params(args.params)))
            return 0
    except ConfigError as exc:  # malformed config or command-line input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "report":
        same, text = report_diff(args.a, args.b)
        print(text)
        return 0 if same else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
