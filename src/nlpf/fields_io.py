"""Field CSV / legacy-VTK output and the JSON run report."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .config import RunConfig, config_as_dict
from .grid import Grid

__all__ = [
    "write_field",
    "read_field",
    "write_vtk",
    "build_report",
    "write_report",
]


def _restrict(grid: Grid, values, ids: np.ndarray, name: str) -> np.ndarray:
    """``values`` on the nodes ``ids``, given full-length or already restricted."""
    values = np.asarray(values, dtype=float)
    if values.shape == (grid.n_nodes,):
        values = values[ids]
    if values.shape != (ids.size,):
        raise ValueError(f"{name} has {values.size} values; the region has {ids.size} nodes")
    return values


def write_field(path: str, grid: Grid, values: np.ndarray, region: str = "interior") -> None:
    """Write one nodal field as CSV with header ``x[,y],value``.

    ``region`` is "interior" or "union" (interior plus interaction layer).
    Rows follow node ordering (row-major, x fastest).  Floats are written
    with ``repr`` so the round trip through read_field is bit-faithful.
    ``values`` may be full-length (restricted to the region) or already
    region-length.
    """
    if region not in ("interior", "union"):
        raise ValueError(f"unknown region {region!r}")
    ids = grid.interior_ids if region == "interior" else np.arange(grid.n_nodes)
    rows = np.column_stack([grid.coords()[ids], _restrict(grid, values, ids, "field")])
    header = "x,value" if grid.dim == 1 else "x,y,value"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))


def read_field(path: str):
    """Read a field CSV; returns (coords (n, dim), values (n,))."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        ncols = len(header.split(","))
        if ncols not in (2, 3):
            raise ValueError(f"unrecognized field header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != ncols:
        raise ValueError(
            f"row width {data.shape[1]} does not match header {header!r}"
        )
    return data[:, : ncols - 1], data[:, ncols - 1]


def write_vtk(path: str, grid: Grid, fields: dict) -> None:
    """Legacy-VTK STRUCTURED_POINTS export of the 2D interior, one SCALARS block per field."""
    if grid.dim != 2:
        raise ValueError("VTK export supports 2D grids only")
    n_ax = grid.n_axis_interior
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("nlpf field export\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {n_ax} {n_ax} 1\n")
        fh.write("ORIGIN 0.0 0.0 0.0\n")
        fh.write(f"SPACING {grid.h} {grid.h} 1.0\n")
        fh.write(f"POINT_DATA {n_ax * n_ax}\n")
        for name, values in fields.items():
            values = _restrict(grid, values, grid.interior_ids, f"field {name!r}")
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            fh.write("\n".join(map(repr, values.tolist())) + "\n")


def build_report(result=None, config: RunConfig | None = None, status: str = "ok",
                 error: str | None = None, snapshots_manifest: list | None = None) -> dict:
    """Assemble the JSON-serializable run report.

    Emitted even on failure paths: with ``result`` None only the config and
    error are reported.
    """
    report = {
        "status": status,
        "error": error,
        "resolved_config": None,
        "discretization": None,
        "diagnostics_summary": None,
        "invariants": None,
        "snapshots": snapshots_manifest or [],
    }
    cfg = config if config is not None else (result.config if result else None)
    if cfg is not None:
        report["resolved_config"] = config_as_dict(cfg)
    if result is None:
        return report

    grid = result.grid
    d = result.diagnostics
    report["discretization"] = {
        "h": grid.h,
        "h_requested": grid.h_requested,
        "n_cells": grid.n_cells,
        "layer": grid.layer,
        "n_interior": grid.n_interior,
        "n_exterior": int(grid.exterior_ids.size),
        "n_steps": result.n_steps,
        "T_mismatch": result.t_mismatch,
        "snapshot_levels": [int(k) for k in result.snapshot_levels],
    }

    # Only the diagnostics this variant records are summarized; np.max keeps
    # NaN, so a non-finite value fails its invariant instead of dropping it.
    obstacle = cfg.is_obstacle
    energy = cfg.records_energy
    bound_excess = np.maximum(np.maximum(-d["bound_min"], d["bound_max"] - 1.0), 0.0)
    summary = {
        "pdas_iters_max": int(d["pdas_iters"].max()),
        "pdas_iters_total": int(d["pdas_iters"].sum()),
        "pdas_restarts_total": int(d["pdas_restarts"].sum()),
        "non_converged_steps": result.non_converged_steps,
        "comp_residual_max": float(np.max(d["comp_residual"])) if obstacle else None,
        "bound_violation_max": float(np.max(bound_excess)) if obstacle else None,
        "enthalpy_drift_max": float(np.max(d["enthalpy_drift"])),
        "enthalpy_scale": d.get("enthalpy_scale"),
        "energy_descent_violation_max": (
            float(np.max(d["energy_J_new"] - d["energy_J_prev"])) if energy else None),
        "proj_residual_max": float(np.max(d["proj_residual"])) if energy else None,
        "runtime_seconds": result.runtime_seconds,
    }

    scale = d.get("enthalpy_scale") or 1.0
    inv = {}
    if obstacle:
        inv["bounds"] = bool(summary["bound_violation_max"] <= 1e-12)
        inv["complementarity"] = bool(summary["comp_residual_max"] <= 1e-10)
    inv["enthalpy"] = bool(summary["enthalpy_drift_max"] <= 1e-10 * scale)
    if energy:
        inv["energy_descent"] = bool(summary["energy_descent_violation_max"] <= 1e-12)
        inv["projection_consistency"] = bool(summary["proj_residual_max"] <= 1e-8)
    inv["pdas_converged"] = not result.non_converged_steps
    report["invariants"] = inv
    # strict JSON: a non-finite value, which has failed its invariant, is null
    report["diagnostics_summary"] = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in summary.items()
    }
    if status == "ok" and (not all(inv.values())):
        report["status"] = "invariant-failure"
    return report


def write_report(path: str, report: dict) -> None:
    """Write the report as strict JSON (a NaN or infinity raises, writing nothing)."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
