"""Command-line interface: run, repro, metrics.

``run`` and ``repro`` finish each run through ``repro.run_and_write``, which
writes report.json on every path; both exit 1 on a raised run and 2 on a
report whose status is not ``ok``.

Only the standard library is imported at module level so that --threads can
pin the BLAS/OpenMP pools through environment variables before numpy loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import THREAD_VARS


def _default_output_root() -> str:
    return os.environ.get("NLPF_OUTPUT_DIR", os.path.join(os.getcwd(), "nlpf_out"))


def _resolve_outdir(args_outdir, config_dir, label) -> str:
    if args_outdir:
        return args_outdir
    root = _default_output_root()
    return os.path.join(root, config_dir or label)


def cmd_run(args) -> int:
    from .config import ConfigError, parse_config_file
    from .repro import run_and_write

    try:
        cfg = parse_config_file(args.config, overrides=args.override)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not (args.C_I >= 0 and math.isfinite(args.C_I)):
        print(f"error: --C-I must be finite and >= 0, got {args.C_I}", file=sys.stderr)
        return 1

    outdir = _resolve_outdir(args.output_dir, cfg.output_dir, cfg.label)
    try:
        result, report = run_and_write(cfg, outdir, C_I=args.C_I)
    except Exception as exc:  # run_and_write has written the error report
        print(f"error: {exc}", file=sys.stderr)
        return 1

    adm = report.get("admissibility")
    if adm and adm["status"] == "warn":
        print(f"warning: step-size admissibility: {adm['message']}")
    summary = report["diagnostics_summary"]
    print(f"run {cfg.label}: {result.n_steps} steps, "
          f"{len(result.states)} snapshots -> {outdir}")
    print(f"  max |complementarity| = {summary['comp_residual_max']}")
    print(f"  max enthalpy drift    = {summary['enthalpy_drift_max']}")
    print(f"  bound violation       = {summary['bound_violation_max']}")
    print(f"  max KKT residual      = {summary['kkt_residual_max']}")
    print(f"  CG iterations         = {summary['cg_iters_total']}")
    if report["status"] != "ok":
        print(f"status {report['status']} (see report.json)", file=sys.stderr)
        return 2
    return 0


def cmd_repro(args) -> int:
    from .repro import REPRO_DRIVERS

    driver = REPRO_DRIVERS[args.example]
    outdir = args.output_dir or os.path.join(_default_output_root(), args.example)
    try:
        summary = driver(outdir, log=print)
    except Exception as exc:  # the raising run has written its error report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_fail = 0
    for name, ok, detail in summary["checks"]:
        status = "PASS" if ok else "FAIL"
        n_fail += not ok
        print(f"{status}  {name}  [{detail}]")
    if n_fail:
        print(f"{n_fail} reproduction check(s) failed", file=sys.stderr)
        return 2
    return 0


def cmd_metrics(args) -> int:
    import numpy as np

    from .fields_io import field_on_grid, read_field
    from .grid import build_grid
    from .metrics import interface_width

    try:
        coords, values = read_field(args.field)
    except (OSError, ValueError) as exc:  # ValueError: a bad header, row or encoding
        print(f"error: cannot read field {args.field}: {exc}", file=sys.stderr)
        return 1
    dim = coords.shape[1]
    keep = np.all((coords >= -1e-9) & (coords <= 1.0 + 1e-9), axis=1)
    coords, values = coords[keep], values[keep]
    n_axis = round(len(values) ** (1.0 / dim))
    if n_axis**dim != len(values) or n_axis < 2:
        print("error: field does not cover a full tensor grid of at least 2 nodes "
              "per axis on the unit domain", file=sys.stderr)
        return 1
    try:
        grid = build_grid(dim, 1.0 / (n_axis - 1), 0.0)
        values = field_on_grid(coords, values, grid, f"field {args.field}")
        rep = interface_width(grid, values, tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"interface width (cells): min = {rep.width_min}, max = {rep.width_max}")
    print(f"widths: {rep.widths}")
    print(f"pure-phase fractions: low = {rep.fraction_low:.4f}, "
          f"high = {rep.fraction_high:.4f}")
    print(f"counting convention: {rep.convention}; tol = {rep.tol:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nlpf",
        description="Nonlocal phase-field solver (obstacle potential, "
        "uniform grids)",
    )
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS/OpenMP thread count, >= 1 (default 1, reproducible)")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute a simulation from a config file")
    pr.add_argument("config")
    pr.add_argument("--override", action="append", default=[],
                    metavar="section.key=value")
    pr.add_argument("--output-dir")
    pr.add_argument("--C-I", type=float, default=0.0, dest="C_I",
                    help="exterior constant (finite, >= 0) for the advisory "
                    "step-size check of the beta = 0 nonlocal variant")
    pr.set_defaults(func=cmd_run)

    pp = sub.add_parser("repro", help="reproduce a reference experiment")
    pp.add_argument("example", choices=("ex1", "ex2", "ex3"))
    pp.add_argument("--output-dir")
    pp.set_defaults(func=cmd_repro)

    pm = sub.add_parser("metrics", help="re-run interface metrics on a saved field")
    pm.add_argument("field", help="field CSV written by a run")
    pm.add_argument("--tol", type=float, default=1e-3,
                    help="phase-class tolerance, 0 <= tol < 0.5 (default 1e-3)")
    pm.set_defaults(func=cmd_metrics)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:  # before any pool size is exported
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)
    return args.func(args)
