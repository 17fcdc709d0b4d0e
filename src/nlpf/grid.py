"""Uniform tensor grids over the unit domain plus its interaction layer.

The computational domain is (0,1)^n extended on every side by a layer of
``ceil(delta/h)`` nodes so that every interior node sees its full interaction
ball.  Nodes are classified as interior (closure of the unit domain) or
exterior (the layer).  All nodal quadrature uses the tensor trapezoidal rule
of the extended domain: weight ``h^n``, halved per axis at the extreme nodes
of the extended domain.  Using one quadrature rule everywhere keeps the
discrete phase system exactly the KKT system of a discrete objective, which
the solver's energy-descent and projection diagnostics rely on.  For
``delta = 0`` (local models) the layer is empty and the rule reduces to the
standard lumped mass of the unit domain.

Node ordering is lexicographic with x fastest: flat index = iy * nx + ix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.sparse as sp

__all__ = ["Grid", "build_grid", "assemble_stiffness", "trapezoid_weights"]

#: Refuse to allocate grids above this node count (guards against typos in h).
MAX_NODES = 20_000_000


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid over the extended domain with node classification.

    h is the (snapped) mesh size, n_cells the cell count per axis of the unit
    domain, layer the interaction-layer width in nodes per side.  Frozen:
    operators built on a grid belong to the caller, not to the grid.  Fields
    given on every node or on the interior are restricted by ``interior``.
    """

    dim: int
    h: float
    n_cells: int
    layer: int
    h_requested: float
    interior_ids: np.ndarray = field(repr=False)
    exterior_ids: np.ndarray = field(repr=False)
    lumped_mass: np.ndarray = field(repr=False)

    @property
    def n_axis(self) -> int:
        """Nodes per axis of the extended domain."""
        return self.n_cells + 1 + 2 * self.layer

    @property
    def n_axis_interior(self) -> int:
        return self.n_cells + 1

    @property
    def shape(self) -> tuple:
        """Array shape of a full nodal field ((ny, nx) in 2D, x fastest)."""
        return (self.n_axis,) * self.dim

    @property
    def interior_shape(self) -> tuple:
        return (self.n_axis_interior,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.n_axis**self.dim

    @property
    def n_interior(self) -> int:
        return self.n_axis_interior**self.dim

    @property
    def mass_interior(self) -> np.ndarray:
        return self.lumped_mass[self.interior_ids]

    def interior(self, values, what: str) -> np.ndarray:
        """The field ``what`` on the interior nodes, given on them or on every node."""
        v = np.asarray(values, dtype=float)
        if v.shape == (self.n_nodes,):
            v = v[self.interior_ids]
        if v.shape != (self.n_interior,):
            raise ValueError(f"{what} has shape {v.shape}; expected ({self.n_interior},) "
                             f"(interior) or ({self.n_nodes},) (all nodes)")
        return v

    def axis_coords(self) -> np.ndarray:
        """Coordinates along one axis of the extended domain."""
        return (np.arange(self.n_axis) - self.layer) * self.h

    def coords(self) -> np.ndarray:
        """(n_nodes, dim) coordinates in node ordering, columns (x, y)."""
        axes = np.meshgrid(*(self.axis_coords(),) * self.dim, indexing="ij")
        return np.column_stack([a.ravel() for a in axes[::-1]])


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """1D trapezoidal weights of n nodes spaced h: h, halved at both ends."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def build_grid(dim: int, h: float, delta: float = 0.0) -> Grid:
    """Build the uniform grid; h is snapped to an exact divisor of 1.

    The layer is the minimal one covering the interaction radius,
    ``ceil(delta/h)`` nodes per side (empty for delta = 0).
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if not (0 < h <= 1):
        raise ValueError(f"mesh size must satisfy 0 < h <= 1, got {h}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    n_cells = int(round(1.0 / h))
    h_snapped = 1.0 / n_cells
    layer = 0 if delta == 0 else int(math.ceil(delta / h_snapped - 1e-12))

    n_axis = n_cells + 1 + 2 * layer
    if n_axis**dim > MAX_NODES:
        raise ValueError(
            f"grid would have {n_axis**dim} nodes (> {MAX_NODES}); refusing"
        )

    on_axis_interior = np.zeros(n_axis, dtype=bool)
    on_axis_interior[layer : layer + n_cells + 1] = True
    interior_mask = reduce(np.logical_and.outer, (on_axis_interior,) * dim).ravel()
    # Tensor trapezoidal weights of the extended domain.
    mass = reduce(np.multiply.outer, (trapezoid_weights(n_axis, h_snapped),) * dim).ravel()

    ids = np.arange(n_axis**dim)
    return Grid(
        dim=dim,
        h=h_snapped,
        n_cells=n_cells,
        layer=layer,
        h_requested=h,
        interior_ids=ids[interior_mask],
        exterior_ids=ids[~interior_mask],
        lumped_mass=mass,
    )


def assemble_stiffness(grid: Grid) -> sp.dia_array:
    """Stiffness matrix of the unit domain (interior nodes, natural BCs), in DIA form.

    1D: the tridiagonal P1 Laplacian (1/h) tridiag(-1, 2, -1) with boundary
    rows (1/h)[1, -1].  2D: the tensor-product 5-point stencil
    kron(M1, K1) + kron(K1, M1), with M1 the 1D trapezoidal mass and K1 the
    1D stiffness, written diagonal by diagonal from their factors: with w
    the trapezoid weights and k_s K1's diagonal at offset s, the offset-0
    row is w (x) k_0 + k_0 (x) w, the x-couplings (offsets -1, 1) are
    w (x) k_s and the y-couplings (offsets -n, n) k_s (x) w, where k_s is 0
    at the end that has no neighbour, so no x-coupling crosses a grid row.
    Symmetric positive semidefinite with constants in the null space.
    """
    n = grid.n_axis_interior
    # K1's diagonals at offsets -1, 0, 1 in DIA layout: entry [s, j] is K1[j - s, j]
    k = np.zeros((3, n))
    k[0, :-1] = k[2, 1:] = -1.0
    k[1] = 2.0
    k[1, [0, -1]] = 1.0
    k *= 1.0 / grid.h
    if grid.dim == 1:
        return sp.dia_array((k, [-1, 0, 1]), shape=(n, n))
    w = trapezoid_weights(n, grid.h)
    data = np.empty((5, n, n))  # row s: the diagonal at offsets -n, -1, 0, 1, n
    for row, factors in zip(data, [(k[0], w), (w, k[0]), (w, k[1]), (w, k[2]), (k[2], w)]):
        np.multiply.outer(*factors, out=row)
    data[2] += np.multiply.outer(k[1], w)
    return sp.dia_array((data.reshape(5, n * n), [-n, -1, 0, 1, n]), shape=(n * n, n * n))
