"""Uniform tensor grids over the unit domain plus its interaction layer, and the
fixed matrices a M + b K on them.

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

The scheme's fixed matrices (heat, w-equation, local-obstacle, local_regular
and Green's) are a M + b K on the interior nodes, with M the lumped interior
mass and K the stiffness of the unit domain.  This module builds them
(``mass_plus_stiffness``) and solves them exactly (``exact_solver``).  It is
also the one home of banded Cholesky, in double or float32 (``upper_bands``,
``factorized``): every 1D direct solve and the coarsest multigrid level of
the 2D w-solve go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp
from scipy.fft import dct, dctn, irfft, rfft
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs

__all__ = ["Grid", "build_grid", "trapezoid_weights", "mass_plus_stiffness", "upper_bands",
           "factorized", "exact_solver"]

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

    @cached_property
    def mass_interior(self) -> np.ndarray:
        """The lumped mass of the interior nodes: gathered once, on first use, read-only."""
        mass = self.lumped_mass[self.interior_ids]
        mass.flags.writeable = False
        return mass

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


def mass_plus_stiffness(grid: Grid, a: float, b: float) -> sp.dia_array:
    """a M + b K on the interior nodes, in DIA form.

    K is the stiffness of the unit domain (natural BCs).  1D: the
    tridiagonal P1 Laplacian (1/h) tridiag(-1, 2, -1) with boundary rows
    (1/h)[1, -1].  2D: the 5-point stencil kron(M1, K1) + kron(K1, M1), with
    M1 the 1D trapezoidal mass and K1 the 1D stiffness, written diagonal by
    diagonal from their factors: with w the trapezoid weights and k_s K1's
    diagonal at offset s, the offset-0 row is w (x) k_0 + k_0 (x) w, the
    x-couplings (offsets -1, 1) are w (x) k_s and the y-couplings (offsets
    -n, n) k_s (x) w, where k_s is 0 at the end that has no neighbour.  K is
    symmetric positive semidefinite with constants in its null space.  Its
    diagonals are scaled by b in place, and a M is added to the offset-0 row.
    """
    n = grid.n_axis_interior
    # K1's diagonals at offsets -1, 0, 1 in DIA layout: entry [s, j] is K1[j - s, j]
    k = np.zeros((3, n))
    k[0, :-1] = k[2, 1:] = -1.0
    k[1] = 2.0
    k[1, [0, -1]] = 1.0
    k *= 1.0 / grid.h
    if grid.dim == 1:
        data, offsets = k, [-1, 0, 1]
    else:
        w = trapezoid_weights(n, grid.h)
        data = np.empty((5, n, n))  # row s: the diagonal at offsets -n, -1, 0, 1, n
        for row, factors in zip(data, [(k[0], w), (w, k[0]), (w, k[1]), (w, k[2]), (k[2], w)]):
            np.multiply.outer(*factors, out=row)
        data[2] += np.multiply.outer(k[1], w)
        data, offsets = data.reshape(5, n * n), [-n, -1, 0, 1, n]
    data *= b
    data[len(offsets) // 2] += a * grid.mass_interior
    return sp.dia_array((data, offsets), shape=(grid.n_interior, grid.n_interior))


def upper_bands(A: sp.dia_array) -> np.ndarray:
    """LAPACK's upper band storage of a symmetric banded DIA matrix A, in A's dtype.

    DIA data is indexed by column, as the band storage is, so the diagonal at
    offset k >= 0 is copied whole into band row kd - k, with kd the largest
    offset (A's offsets ascend); the entries that fall outside the matrix
    are never read.
    """
    kd = int(A.offsets[-1])
    bands = np.zeros((kd + 1, A.shape[1]), dtype=A.dtype)
    for k, row in zip(A.offsets.tolist(), A.data):
        if k >= 0:
            bands[kd - k] = row
    return bands


def factorized(bands: np.ndarray):
    """The solve b -> A^{-1} b of an SPD banded A by banded Cholesky, in the bands' precision.

    ``bands`` is A's upper band storage (``upper_bands``), float64 or
    float32: LAPACK ``?pbtrf`` of that precision factors it once, and each
    solve is one ``?pbtrs``, which returns the bands' dtype.  A non-finite
    band raises ``ValueError`` and an A that is not positive definite
    ``LinAlgError``: there is no fallback.
    """
    if not np.isfinite(bands).all():
        raise ValueError("factorized: the bands hold a non-finite value")
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (bands,))
    c, info = pbtrf(bands)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"factorized: leading minor {info} is not positive definite")
    return lambda b: pbtrs(c, b)[0]


def exact_solver(grid: Grid, a: float, b: float):
    """Solve of (a M + b K) x = r on the interior nodes, for a > 0, b >= 0.

    In 1D the matrix (``mass_plus_stiffness``) is tridiagonal and factored
    once by banded Cholesky (``factorized``).  In 2D it is never formed.
    With M0 the tensor trapezoid with half ends and K the Neumann 5-point
    stencil, DCT-I diagonalizes M0^{-1} K exactly with eigenvalues
    (2/h^2)(2 - cos(pi k / (n - 1)) - cos(pi l / (n - 1))) over the n nodes
    per axis; a solve of A0 = a M0 + b K is two ``dctn`` and a division
    (DCT-I is its own inverse up to the factor 2(n - 1) per axis).  On a
    grid without interaction layer M = M0.  With a layer the interior mass
    is not halved at the unit-domain boundary, so M - M0 is a positive
    diagonal on the boundary ring, and a capacitance (Woodbury) correction
    on the ring makes the two-``dctn`` solve exact (``_RingCorrection``).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b >= 0):
        raise ValueError(f"exact_solver needs finite a > 0 and b >= 0, got a={a}, b={b}")
    if grid.dim == 1:
        return factorized(upper_bands(mass_plus_stiffness(grid, a, b)))
    n, shape = grid.n_axis_interior, grid.interior_shape
    lam = (2.0 / grid.h**2) * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
    scale = (a + b * np.add.outer(lam, lam)) * (2 * (n - 1))**2
    weights = trapezoid_weights(n, grid.h)
    m0 = np.multiply.outer(weights, weights)
    ring = _RingCorrection(grid, a, weights, scale) if grid.layer else None

    def solve(r: np.ndarray) -> np.ndarray:
        y = dctn(r.reshape(shape) / m0, type=1)
        y /= scale
        if ring is not None:
            ring.correct(y)
        return dctn(y, type=1, overwrite_x=True).ravel()
    return solve


class _RingCorrection:
    """Woodbury correction of the 2D DCT-I solve for a mass that differs on the ring.

    A = A0 + P diag(c) P^T with P the injection of the boundary ring and
    c = a (m - m0) > 0 there, so A^{-1} = A0^{-1} - A0^{-1} P C^{-1} P^T A0^{-1}
    with the SPD capacitance C = diag(1/c) + P^T A0^{-1} P.  In 2D arrays
    A0^{-1} R = G ((F R F^T) / S) G^T, with G the DCT-I matrix, F = G
    diag(1/m1) and S the ``scale`` of ``exact_solver``.

    The ring is read as a cycle of four sides of n - 1 nodes: side s starts
    at corner s and runs along line s (row 0, column n-1, row n-1, column 0),
    and the quarter turn (i, j) -> (j, n-1-i) maps side s onto side s + 1
    node for node.  A0 and c are invariant under that turn, so C is block
    circulant over the sides, with blocks B0..B3 (B3 = B1^T) of side 0
    against side d, assembled by separability from n x n products.  A
    length-4 DFT over the sides splits it into three (n-1)-blocks, each
    Cholesky-factored once: B0 + B1 + B2 + B3 and B0 - B1 + B2 - B3 (real) and
    (B0 - B2) + i (B1 - B3) (Hermitian), with diag(1/c) on each.  ``correct``
    takes the spectral coefficients Y = (F R F^T) / S and subtracts those of
    A0^{-1} P C^{-1} P^T A0^{-1} R in place: the four lines, to and from the
    spectrum, are 1D DCT-I transforms, so a correction costs O(n^2) on top
    of the two 2D transforms, and G and F are not kept.
    """

    def __init__(self, grid: Grid, a: float, weights: np.ndarray, scale: np.ndarray):
        n = grid.n_axis_interior
        G = dct(np.eye(n), type=1, axis=0)
        F = G / weights
        ends = [0, n - 1, n - 1, 0]  # the row or column index of line s
        self.weights, self.scale = weights, scale
        self.g_ends, self.f_ends = G[ends], F[:, ends]
        # block d of side 0 (row 0, columns 0..n-2) against side d: against a
        # row, G diag(S^{-1} (g * f)) F; against a column, G diag(f)
        # S^{-1} diag(g) F; with g = G[0] and f the column of F at the other
        # side's line.  Sides 2 and 3 run backward.
        Sinv, g, side0 = 1.0 / scale, G[0], G[:n - 1]
        B0 = (side0 * (Sinv @ (g * F[:, 0]))) @ F[:, :n - 1]
        B2 = (side0 * (Sinv @ (g * F[:, -1]))) @ F[:, :0:-1]
        B1 = (side0 * F[:, -1]) @ ((Sinv * g) @ F[:, :n - 1])
        B13 = B1 + B1.T
        # 1/c on side 0 (row 0 leads the interior order); every side has the same
        inv_c = 1.0 / (a * (grid.mass_interior[:n - 1] - weights[0] * weights[:n - 1]))
        blocks = [B0 + B2 + B13, (B0 - B2) + 1j * (B1 - B1.T), B0 + B2 - B13]
        for block in blocks:
            block[np.diag_indices(n - 1)] += inv_c
        self.caps = [cho_factor(block, overwrite_a=True) for block in blocks]

    def correct(self, Y: np.ndarray) -> None:
        n = len(Y)
        # lines of A0^{-1} R = G Y G^T: rows G (g_e Y)^T, columns G (g_e Y^T)^T
        lines = np.empty((4, n))
        lines[0::2] = self.g_ends[0::2] @ Y
        lines[1::2] = self.g_ends[1::2] @ Y.T
        lines = dct(lines, type=1, axis=1, overwrite_x=True)
        sides = np.concatenate([lines[:2, :-1], lines[2:, :0:-1]])
        spec = rfft(sides, axis=0)
        for k, cap in enumerate(self.caps):  # blocks k = 0 and 2 are real
            rhs = spec[k] if k == 1 else spec[k].real
            spec[k] = cho_solve(cap, rhs, check_finite=False)
        s = irfft(spec, n=4, axis=0)
        # F (P s) F^T: the rows and the columns of P s give two outer products
        # each, with F l = G (l / m1) one 1D transform per line
        lines = np.zeros((4, n))
        lines[:2, :-1], lines[2:, :0:-1] = s[:2], s[2:]
        Fl = dct(lines / self.weights, type=1, axis=1, overwrite_x=True)
        Y -= (self.f_ends[:, 0::2] @ Fl[0::2] + Fl[1::2].T @ self.f_ends[:, 1::2].T) / self.scale
