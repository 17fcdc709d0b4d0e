"""Field CSV / legacy-VTK output and the JSON run report."""

from __future__ import annotations

import json
import math
import os
from itertools import chain, repeat

import numpy as np

from .config import RunConfig, config_as_dict
from .grid import Grid

__all__ = [
    "format_values",
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


#: Values formatted per join in format_values.
_CHUNK = 4096


def format_values(values) -> str:
    """``repr`` of each float, one per line, each line ending in a newline.

    The one float formatter of the writers: write_field and write_vtk take
    its text in place of an array, so a field written to both a CSV and a
    VTK file is formatted once.
    """
    values = np.asarray(values, dtype=float).ravel()
    # a chunk at a time, so no list of per-value strings spans the field
    return "".join(["\n".join(map(repr, values[i:i + _CHUNK].tolist())) + "\n"
                    for i in range(0, values.size, _CHUNK)])


def _region_rows(grid: Grid, values, ids: np.ndarray, width: int, name: str):
    """The text of ``values`` on the nodes ``ids``, ``width`` lines at a time.

    ``values`` is an array or its format_values text, full-length or already
    restricted to ``ids``; its size is checked here, the rows are sliced
    lazily.  Each run of ``width`` ids must be consecutive nodes (a grid row
    of the region), so that its lines are one slice of the text.
    """
    if isinstance(values, str):
        text = values
    else:
        text = format_values(_restrict(grid, values, ids, name))
    newlines = np.flatnonzero(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == 10)
    starts = np.concatenate(([0], newlines + 1))  # line i is text[starts[i]:starts[i + 1]]
    n = newlines.size
    if n == grid.n_nodes:
        lines = ids
    elif n == ids.size:
        lines = np.arange(n)
    else:
        raise ValueError(f"{name} has {n} values; the region has {ids.size} nodes")
    return (text[starts[lines[a]]:starts[lines[a + width - 1] + 1]]
            for a in range(0, lines.size, width))


def write_field(path: str, grid: Grid, values, region: str = "interior") -> None:
    """Write one nodal field as CSV with header ``x[,y],value``.

    ``region`` is "interior" or "union" (interior plus interaction layer).
    Rows follow node ordering (row-major, x fastest).  Floats are written
    with ``repr`` so the round trip through read_field is bit-faithful.
    ``values`` may be full-length (restricted to the region) or already
    region-length, as an array or as its format_values text.  The
    coordinates are formatted once per axis, and a 2D file is written one
    grid row at a time.
    """
    if region not in ("interior", "union"):
        raise ValueError(f"unknown region {region!r}")
    ids = grid.interior_ids if region == "interior" else np.arange(grid.n_nodes)
    axis = grid.axis_coords()
    if region == "interior":
        axis = axis[grid.layer:grid.layer + grid.n_axis_interior]
    xs = [x + "," for x in format_values(axis).splitlines()]
    ys = xs if grid.dim == 2 else [""]  # the text between x and value, per row
    rows = _region_rows(grid, values, ids, len(xs), "field")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,value\n" if grid.dim == 1 else "x,y,value\n")
        for y, row in zip(ys, rows):
            fh.write("".join(chain.from_iterable(
                zip(xs, repeat(y), row.splitlines(keepends=True)))))


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
    """Legacy-VTK STRUCTURED_POINTS export of the 2D interior, one SCALARS block per field.

    Each field is an array or its format_values text, full-length (the
    interior is taken) or interior-length.
    """
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
            rows = _region_rows(grid, values, grid.interior_ids, n_ax, f"field {name!r}")
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            fh.writelines(rows)


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
    active_set = cfg.variant in ("nonlocal_CH", "local_obstacle")
    energy = cfg.records_energy
    bound_excess = np.maximum(np.maximum(-d["bound_min"], d["bound_max"] - 1.0), 0.0)
    summary = {
        "pdas_iters_max": int(d["pdas_iters"].max()),
        "pdas_iters_total": int(d["pdas_iters"].sum()),
        "cg_iters_total": int(d["cg_iters"].sum()),
        "interface_nodes_max": int(d["interface_nodes"].max()),
        "kkt_residual_max": float(np.max(d["kkt_residual"])) if active_set else None,
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
    if active_set:
        inv["kkt_residual"] = bool(summary["kkt_residual_max"] <= 1e-9)
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
