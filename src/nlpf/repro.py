"""Reproduction drivers for the reference experiments, with threshold checks."""

from __future__ import annotations

import csv
import os

from . import presets
from .fields_io import build_report, format_values, write_field, write_report, write_vtk
from .kernel import c_gamma_closed_form
from .metrics import field_distance, interface_width
from .stepper import RunResult, run

__all__ = ["repro_ex1", "repro_ex2", "repro_ex3", "REPRO_DRIVERS", "write_snapshots"]

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

    Every field is a CSV file (write_field); with ``vtk`` among the formats
    (2D runs only) u and theta also go to one VTK file (write_vtk).  u and
    theta are formatted once per snapshot and that text serves both files;
    it is held for one snapshot at a time.  Each manifest entry also carries
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
    if "vtk" in result.config.formats:
        fname = f"fields_{st.k:06d}.vtk"
        write_vtk(os.path.join(outdir, fname), grid, {"u": u, "theta": theta})
        files["vtk"] = fname
    return files


def _finish(result: RunResult, outdir: str) -> dict:
    manifest = write_snapshots(result, outdir)
    report = build_report(result=result, snapshots_manifest=manifest)
    write_report(os.path.join(outdir, "report.json"), report)
    return report


def _state_at(result: RunResult, t: float):
    best = min(result.states, key=lambda st: abs(st.t - t))
    return best


def repro_ex1(outdir: str, log=None) -> dict:
    """Run ex1 (constrained CH + local obstacle comparison) and check widths."""
    log = log or (lambda msg: None)
    os.makedirs(outdir, exist_ok=True)
    results = {}
    for variant in ("nonlocal_CH", "local_obstacle"):
        cfg = presets.example1_config(variant)
        log(f"ex1: running {variant} ...")
        res = run(cfg)
        results[variant] = res
        _finish(res, os.path.join(outdir, cfg.label))

    checks = []
    widths = {}
    rows = []
    for variant, res in results.items():
        per_t = {}
        for st in res.states:
            rep = interface_width(res.grid, st.u)
            per_t[st.t] = rep
            rows.append((variant, st.t, rep.width_min, rep.width_max,
                         rep.nodes_min, rep.nodes_max,
                         round(rep.normal_min, 2), round(rep.normal_max, 2)))
        widths[variant] = per_t
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
    _write_width_table(os.path.join(outdir, "interface_widths.csv"), rows)
    return {"results": results, "widths": widths, "checks": checks,
            "ok": all(ok for _, ok, _ in checks)}


def repro_ex2(outdir: str, log=None) -> dict:
    """Run the delta sweep and check the distance to the local run decreases."""
    log = log or (lambda msg: None)
    os.makedirs(outdir, exist_ok=True)
    log("ex2: running local reference ...")
    local_cfg = presets.example2_config(variant="local_obstacle")
    local_res = run(local_cfg)
    _finish(local_res, os.path.join(outdir, local_cfg.label))
    u_local = local_res.states[-1].u[local_res.grid.interior_ids]

    distances = {}
    results = {"local_obstacle": local_res}
    for delta in presets.EX2_DELTAS:
        cfg = presets.example2_config(delta=delta)
        log(f"ex2: running nonlocal delta={delta:g} ...")
        res = run(cfg)
        results[f"delta={delta:g}"] = res
        _finish(res, os.path.join(outdir, cfg.label))
        u_nl = res.states[-1].u[res.grid.interior_ids]
        distances[delta] = field_distance(local_res.grid, u_nl, u_local)

    ordered = [distances[d] for d in presets.EX2_DELTAS]
    strictly_decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    checks = [(
        "ex2 distance to local decreases as delta shrinks",
        strictly_decreasing,
        ", ".join(f"d(delta={d:g}) = {distances[d]:.6g}" for d in presets.EX2_DELTAS),
    )]
    with open(os.path.join(outdir, "distances.csv"), "w", newline="",
              encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["delta", "xi", "distance_to_local"])
        for d in presets.EX2_DELTAS:
            cfg = presets.example2_config(delta=d)
            xi_val = c_gamma_closed_form(cfg.kernel_spec()) - cfg.model.c_F
            wr.writerow([d, xi_val, distances[d]])
    return {"results": results, "distances": distances, "checks": checks,
            "ok": strictly_decreasing}


def repro_ex3(outdir: str, log=None) -> dict:
    """Run the 2D experiment (all four variants) and check width windows."""
    log = log or (lambda msg: None)
    os.makedirs(outdir, exist_ok=True)
    results = {}
    widths = {}
    rows = []
    t_check = 0.0041
    for variant in ("nonlocal_CH", "nonlocal_AC", "local_obstacle", "local_regular"):
        cfg = presets.example3_config(variant)
        log(f"ex3: running {variant} ({cfg.dim}D, ~{int(round(1 / cfg.h)) + 1}^2 nodes) ...")
        res = run(cfg)
        results[variant] = res
        _finish(res, os.path.join(outdir, cfg.label))
        st = _state_at(res, t_check)
        rep = interface_width(res.grid, st.u)
        widths[variant] = (rep.normal_p05, rep.normal_p95)
        rows.append((variant, st.t, rep.width_min, rep.width_max,
                     rep.nodes_min, rep.nodes_max,
                     round(rep.normal_min, 2), round(rep.normal_max, 2)))
        log(f"ex3: {variant} interface at t={st.t:g}: normal thickness "
            f"[p5,p95] = {rep.normal_p05:.1f}-{rep.normal_p95:.1f} "
            f"(full range {rep.normal_min:.1f}-{rep.normal_max:.1f}, "
            f"raw runs {rep.nodes_min}-{rep.nodes_max} nodes)")

    checks = []
    for variant, window in EX3_WIDTH_WINDOWS.items():
        wmin, wmax = widths[variant]
        lo, hi = window
        ok = (wmin >= lo) and (wmax <= hi)
        checks.append(
            (f"ex3 {variant} interface range within [{lo},{hi}] grid points "
             f"at t={t_check}", ok, f"range = {wmin:.1f}-{wmax:.1f}")
        )
    _write_width_table(os.path.join(outdir, "interface_widths.csv"), rows)
    return {"results": results, "widths": widths, "checks": checks,
            "ok": all(ok for _, ok, _ in checks)}


def _write_width_table(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["variant", "t", "width_min_cells", "width_max_cells",
                     "interior_nodes_min", "interior_nodes_max",
                     "normal_nodes_min", "normal_nodes_max"])
        for row in rows:
            wr.writerow(row)


REPRO_DRIVERS = {"ex1": repro_ex1, "ex2": repro_ex2, "ex3": repro_ex3}
