"""Post-processing: interface widths in grid cells, field distances, fractions.

A node is LOW when u <= tol, HIGH when u >= 1 - tol and MID otherwise.  A
cell of a grid line is an interface cell unless both endpoints are LOW or
both are HIGH; a connected interface is a maximal run of interface cells.

Two width measures are reported per interface, because published interface
widths are frequently point counts even when labeled in cells:

  * cells          -- the run length: an exact 0/1 step has width 1 (the
                      single transition cell), a linear ramp over n cells has
                      width n;
  * interior nodes -- the number of MID nodes inside the run, i.e. the grid
                      points strictly between the pure phases (an exact step
                      has 0, the ramp over n cells has n - 1).

The runs are collected along every grid line (x-lines, then in 2D the
y-lines) that crosses the interface (contains both a HIGH and a LOW node;
if no line does, lines containing MID nodes are used) and min/max over all
runs are reported.  Line scans overestimate the thickness of a band they cross
obliquely (near corners of a closed interface) by the secant of the
incidence angle, so the report also carries a direction-free normal
thickness: per MID node, the Euclidean distance to the nearest LOW node
plus the distance to the nearest HIGH node, minus one (in interior-node
units a transverse band of n MID nodes measures exactly n).  Its min/max
are the numbers comparable with published band widths.  The convention
string is carried in the report so saved numbers stay comparable across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

__all__ = ["InterfaceReport", "interface_width", "field_distance"]

DEFAULT_TOL = 1e-3

_CONVENTION = (
    "runs of cells not joining two equal pure phases; node classes: "
    "low u<=tol, high u>=1-tol; widths in cells = run lengths, "
    "interior_nodes = mid nodes per run; normal_nodes = per-MID-node "
    "dist(nearest low) + dist(nearest high) - 1 (Euclidean, cell units)"
)


@dataclass
class InterfaceReport:
    """Interface widths and pure-phase fractions for one field."""

    tol: float
    widths: list
    interior_nodes: list
    width_min: int
    width_max: int
    nodes_min: int
    nodes_max: int
    normal_min: float
    normal_max: float
    normal_p05: float
    normal_p95: float
    fraction_low: float
    fraction_high: float
    convention: str = field(default=_CONVENTION)

    def as_dict(self) -> dict:
        return {
            "tol": self.tol,
            "widths_cells": [int(w) for w in self.widths],
            "interior_nodes": [int(w) for w in self.interior_nodes],
            "width_min": int(self.width_min),
            "width_max": int(self.width_max),
            "nodes_min": int(self.nodes_min),
            "nodes_max": int(self.nodes_max),
            "normal_nodes_min": self.normal_min,
            "normal_nodes_max": self.normal_max,
            "normal_nodes_p05": self.normal_p05,
            "normal_nodes_p95": self.normal_p95,
            "fraction_low": self.fraction_low,
            "fraction_high": self.fraction_high,
            "convention": self.convention,
        }


def _line_runs(classes: np.ndarray) -> list:
    """(cells, mid nodes) of each maximal interface run along one line."""
    a = classes[:-1]
    b = classes[1:]
    is_iface = ~(((a == 0) & (b == 0)) | ((a == 2) & (b == 2)))
    runs = []
    start = None
    for i, flag in enumerate(is_iface):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((i - start, int((classes[start : i + 1] == 1).sum())))
            start = None
    if start is not None:
        n = len(is_iface)
        runs.append((n - start, int((classes[start:] == 1).sum())))
    return runs


def _classify(u: np.ndarray, tol: float) -> np.ndarray:
    cls = np.ones(u.shape, dtype=np.int8)  # 1 = mid
    cls[u <= tol] = 0
    cls[u >= 1.0 - tol] = 2
    return cls


def _normal_thickness(arr):
    """(min, max, p05, p95) direction-free node thickness over MID nodes.

    ``arr`` holds the node classes on the interior grid shape.  The
    percentiles trim the corner neighborhoods of a closed interface, where
    curvature genuinely thickens/thins the band relative to its
    characteristic transverse width.
    """
    from scipy.ndimage import distance_transform_edt

    mid = arr == 1
    if not mid.any() or not (arr == 0).any() or not (arr == 2).any():
        return 0.0, 0.0, 0.0, 0.0
    d_low = distance_transform_edt(arr != 0)
    d_high = distance_transform_edt(arr != 2)
    t = d_low[mid] + d_high[mid] - 1.0
    return (float(t.min()), float(t.max()),
            float(np.percentile(t, 5)), float(np.percentile(t, 95)))


def interface_width(grid: Grid, u: np.ndarray, tol: float = DEFAULT_TOL) -> InterfaceReport:
    """Interface widths of an interior nodal field.

    Accepts an interior-length or full-length field (restricted to interior).
    ``tol`` must satisfy 0 <= tol < 0.5, so that no node is both LOW and HIGH.
    """
    if not 0.0 <= tol < 0.5:
        raise ValueError(f"tol must satisfy 0 <= tol < 0.5, got {tol}")
    u = grid.interior(u, "field")

    mI = grid.mass_interior
    vol = float(mI.sum())
    frac_low = float(mI[u <= tol].sum()) / vol
    frac_high = float(mI[u >= 1.0 - tol].sum()) / vol

    cls = _classify(u, tol).reshape(grid.interior_shape)
    # every grid line along x, then every line along y (x is the last axis)
    lines = [ln for axis in reversed(range(grid.dim))
             for ln in np.moveaxis(cls, axis, -1).reshape(-1, cls.shape[axis])]
    crossing = [ln for ln in lines if (ln == 0).any() and (ln == 2).any()]
    if not crossing:
        crossing = [ln for ln in lines if (ln == 1).any()]
    runs = [run for ln in crossing for run in _line_runs(ln)]
    if not runs:
        runs = [(0, 0)]
    widths = [r[0] for r in runs]
    nodes = [r[1] for r in runs]
    normal_min, normal_max, normal_p05, normal_p95 = _normal_thickness(cls)
    return InterfaceReport(
        tol=tol,
        widths=widths,
        interior_nodes=nodes,
        width_min=min(widths),
        width_max=max(widths),
        nodes_min=min(nodes),
        nodes_max=max(nodes),
        normal_min=normal_min,
        normal_max=normal_max,
        normal_p05=normal_p05,
        normal_p95=normal_p95,
        fraction_low=frac_low,
        fraction_high=frac_high,
    )


def field_distance(grid: Grid, u_a: np.ndarray, u_b: np.ndarray) -> float:
    """Lumped L2 distance of two fields over the interior nodes.

    Fields may be interior-length or full-length on this grid; the weights
    are the supplied grid's interior trapezoidal masses.
    """
    d = grid.interior(u_a, "first field") - grid.interior(u_b, "second field")
    return float(np.sqrt(np.dot(grid.mass_interior * d, d)))
