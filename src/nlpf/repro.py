"""Reproduction drivers for the reference experiments, and ``run_and_write``.

``run_and_write`` finishes every run: ``nlpf run`` and each driver here go
through it, so a reproduction run leaves the report ``nlpf run`` would.  A
driver checks "report status ok" for each of its runs besides its threshold
checks, and its ``ok`` is the conjunction of them all.
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict

from . import presets
from .config import RunConfig
from .fields_io import build_report, format_values, write_field, write_report, write_vtk
from .kernel import c_gamma_closed_form
from .metrics import field_distance, interface_width
from .stepper import RunResult, run, timestep_admissibility

__all__ = ["repro_ex1", "repro_ex2", "repro_ex3", "REPRO_DRIVERS", "run_and_write",
           "write_snapshots"]

#: Width acceptance windows for ex3 at t = 0.0041, already widened by the
#: stated tolerances: CH [1,2]+-1, AC [16,18]+-2, local obstacle [18,20]+-2.
#: Compared against the central [p5, p95] of the direction-free normal
#: thickness (see metrics.InterfaceReport): raw line scans overestimate
#: where they cross the band obliquely near its four corners, and the
#: extreme corner neighborhoods genuinely thicken under curvature.
EX3_WIDTH_WINDOWS = {
    "nonlocal_CH": (0, 3),
    "nonlocal_AC": (14, 20),
    "local_obstacle": (16, 22),
}


def write_snapshots(result: RunResult, outdir: str) -> list:
    """Write theta/u (and w, lam when present) per snapshot; return manifest.

    Every field is a CSV file (write_field); on a 2D grid u and theta also
    go to one VTK file (write_vtk).  u and theta are formatted once per
    snapshot and that text serves both files; it is held for one snapshot
    at a time.  Each manifest entry also carries
    the interface metrics of the snapshot, including the counting
    convention, so saved widths stay comparable across runs.
    """
    os.makedirs(outdir, exist_ok=True)
    manifest = []
    for st in result.states:
        files = _write_snapshot(result, st, outdir)
        manifest.append({
            "k": st.k,
            "t": st.t,
            "files": files,
            "interface": interface_width(result.grid, st.u).as_dict(),
        })
    return manifest


def _write_snapshot(result: RunResult, st, outdir: str) -> dict:
    grid = result.grid
    u_region = "union" if grid.exterior_ids.size else "interior"
    theta, u = format_values(st.theta), format_values(st.u)
    files = {}
    for name, vals, region in (
        ("theta", theta, "interior"),
        ("u", u, u_region),
        ("w", st.w, "interior"),
        ("lambda", st.lam, "interior"),
    ):
        if vals is None:
            continue
        fname = f"{name}_{st.k:06d}.csv"
        write_field(os.path.join(outdir, fname), grid, vals, region=region)
        files[name] = fname
    if grid.dim == 2:
        fname = f"fields_{st.k:06d}.vtk"
        write_vtk(os.path.join(outdir, fname), grid, {"u": u, "theta": theta})
        files["vtk"] = fname
    return files


def run_and_write(cfg: RunConfig, outdir: str, C_I: float = 0.0) -> tuple[RunResult, dict]:
    """Run ``cfg``, write its snapshots and report.json into ``outdir``.

    Returns ``(result, report)``.  The report of a nonlocal config carries the
    advisory step-size check (``timestep_admissibility`` with ``C_I``) as
    ``admissibility``.  If the run or a write raises, report.json gets
    ``status: "error"`` and the exception propagates.
    """
    path = os.path.join(outdir, "report.json")
    try:
        result = run(cfg)
        manifest = write_snapshots(result, outdir)
        report = build_report(result=result, snapshots_manifest=manifest)
        if cfg.is_nonlocal:
            report["admissibility"] = asdict(timestep_admissibility(cfg, C_I=C_I))
        write_report(path, report)
    except Exception as exc:
        write_report(path, build_report(config=cfg, status="error", error=str(exc)))
        raise
    return result, report


def _silent(_msg: str) -> None:
    pass


def _run_all(runs, outdir: str, log) -> tuple:
    """``run_and_write`` each (key, config) into ``outdir/<label>``.

    Returns the results by key and one "report status ok" check per run.
    """
    results, checks = {}, []
    for key, cfg in runs:
        log(f"running {cfg.label} ({cfg.dim}D, h = {cfg.h:g}) ...")
        results[key], report = run_and_write(cfg, os.path.join(outdir, cfg.label))
        status = report["status"]
        checks.append((f"{cfg.label} report status ok", status == "ok",
                       f"status = {status}"))
    return results, checks


def _summary(checks: list, **outputs) -> dict:
    return {**outputs, "checks": checks, "ok": all(ok for _, ok, _ in checks)}


_WIDTH_COLUMNS = ["variant", "t", "width_min_cells", "width_max_cells",
                  "interior_nodes_min", "interior_nodes_max",
                  "normal_nodes_min", "normal_nodes_max"]


def _width_row(variant: str, t: float, rep) -> tuple:
    return (variant, t, rep.width_min, rep.width_max, rep.nodes_min, rep.nodes_max,
            round(rep.normal_min, 2), round(rep.normal_max, 2))


def repro_ex1(outdir: str, log=_silent) -> dict:
    """Run ex1 (constrained CH + local obstacle comparison) and check widths."""
    results, checks = _run_all(
        [(v, presets.example1_config(v)) for v in ("nonlocal_CH", "local_obstacle")],
        outdir, log)
    widths = {v: {st.t: interface_width(res.grid, st.u) for st in res.states}
              for v, res in results.items()}
    for t, rep in widths["nonlocal_CH"].items():
        checks.append(
            (f"ex1 CH interface <= 2 grid points at t={t:g}",
             rep.nodes_max <= 2,
             f"interior nodes = {rep.nodes_max} (run = {rep.width_max} cells)")
        )
    t_last = max(widths["local_obstacle"])
    rep_loc = widths["local_obstacle"][t_last]
    checks.append(
        (f"ex1 local-obstacle width at t={t_last:g} >= 5 cells",
         rep_loc.nodes_max >= 5,
         f"interior nodes = {rep_loc.nodes_max} (run = {rep_loc.width_max} cells)")
    )
    _write_csv(os.path.join(outdir, "interface_widths.csv"), _WIDTH_COLUMNS,
               [_width_row(v, t, rep) for v, per_t in widths.items()
                for t, rep in per_t.items()])
    return _summary(checks, results=results, widths=widths)


def repro_ex2(outdir: str, log=_silent) -> dict:
    """Run the delta sweep and check the distance to the local run decreases."""
    runs = [("local_obstacle", presets.example2_config(variant="local_obstacle"))]
    runs += [(f"delta={d:g}", presets.example2_config(delta=d)) for d in presets.EX2_DELTAS]
    results, checks = _run_all(runs, outdir, log)
    local = results["local_obstacle"]
    u_local = local.states[-1].u[local.grid.interior_ids]

    distances, rows = {}, []
    for d in presets.EX2_DELTAS:
        res = results[f"delta={d:g}"]
        distances[d] = field_distance(local.grid, res.states[-1].u[res.grid.interior_ids],
                                      u_local)
        xi = c_gamma_closed_form(res.config.kernel_spec()) - res.config.model.c_F
        rows.append([d, xi, distances[d]])
    ordered = [distances[d] for d in presets.EX2_DELTAS]
    checks.append((
        "ex2 distance to local decreases as delta shrinks",
        all(a > b for a, b in zip(ordered, ordered[1:])),
        ", ".join(f"d(delta={d:g}) = {distances[d]:.6g}" for d in presets.EX2_DELTAS),
    ))
    _write_csv(os.path.join(outdir, "distances.csv"),
               ["delta", "xi", "distance_to_local"], rows)
    return _summary(checks, results=results, distances=distances)


def repro_ex3(outdir: str, log=_silent) -> dict:
    """Run the 2D experiment (all four variants) and check width windows."""
    variants = ("nonlocal_CH", "nonlocal_AC", "local_obstacle", "local_regular")
    results, checks = _run_all([(v, presets.example3_config(v)) for v in variants],
                               outdir, log)
    t_check = 0.0041
    widths, rows = {}, []
    for variant, res in results.items():
        st = min(res.states, key=lambda s: abs(s.t - t_check))
        rep = interface_width(res.grid, st.u)
        widths[variant] = (rep.normal_p05, rep.normal_p95)
        rows.append(_width_row(variant, st.t, rep))
        log(f"ex3: {variant} interface at t={st.t:g}: normal thickness "
            f"[p5,p95] = {rep.normal_p05:.1f}-{rep.normal_p95:.1f} "
            f"(full range {rep.normal_min:.1f}-{rep.normal_max:.1f}, "
            f"raw runs {rep.nodes_min}-{rep.nodes_max} nodes)")

    for variant, (lo, hi) in EX3_WIDTH_WINDOWS.items():
        wmin, wmax = widths[variant]
        checks.append(
            (f"ex3 {variant} interface range within [{lo},{hi}] grid points "
             f"at t={t_check}", wmin >= lo and wmax <= hi,
             f"range = {wmin:.1f}-{wmax:.1f}")
        )
    _write_csv(os.path.join(outdir, "interface_widths.csv"), _WIDTH_COLUMNS, rows)
    return _summary(checks, results=results, widths=widths)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


REPRO_DRIVERS = {"ex1": repro_ex1, "ex2": repro_ex2, "ex3": repro_ex3}
