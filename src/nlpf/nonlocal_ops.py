"""Discrete nonlocal operators on uniform grids.

On a uniform grid the nodal-quadrature convolution

    (gamma (*) u)(x_j) = sum_k gamma(|x_j - x_k|) * m_k * u_k

has translation-invariant kernel values, so one stencil of weights
``gamma(|offset| * h) * h^n`` is shared by every node; the trapezoidal
boundary halving of the quadrature masses ``m_k`` is folded in at application
time by scaling the source field.  Application cost is O(N log N),
independent of delta/h, via a real FFT on a zero-padded grid (the kernel's
spectrum is computed once per stencil); no N x N matrix is ever materialized
for production runs (a sparse matrix restricted to requested rows exists for
implicit solves and small verification problems).

The per-node constant ``c_gamma_h(x_j) = sum_k gamma(|x_j - x_k|) m_k`` over
in-domain nodes closes the operator consistently: applying the stencil to the
constant field 1 reproduces c_gamma_h exactly, so the discrete operator
``B_h u = c_gamma_h u - gamma (*) u`` annihilates constants and the quadratic
form sum_j m_j u_j (B_h u)_j is positive semidefinite.  The FFT keeps the
first property exact, not only to round-off: it is applied to u - u[0], and
the constant part u[0] c_gamma_h is added back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sp

from .grid import Grid
from .kernel import KernelSpec, kernel_eval

__all__ = [
    "ConvolutionStencil",
    "build_stencil",
    "convolve",
    "conv_rows",
    "exterior_closure",
]

#: Hard cap on nnz when materializing convolution rows as a sparse matrix.
_MAX_SPARSE_NNZ = 60_000_000


@dataclass(eq=False)
class ConvolutionStencil:
    """Precomputed translation-invariant convolution weights for one grid.

    offsets       : (m, dim) integer offsets with nonzero weight
    weights       : (m,) weights matching ``offsets``: gamma values times h^dim
    mass_ratio    : m_k / h^dim per node (1 except at the outermost nodes)
    fft_shape     : zero-padded grid shape of the FFT, at least
                    n_axis + R per axis so that no output wraps around
    spectrum      : real FFT of the weights placed on ``fft_shape`` with
                    wrap-around offsets; real because the kernel is even
    c_gamma_h     : per-node in-domain weight sum (flux-consistent closure);
                    at least gamma(0) m_j > 0 on every node, since each node
                    sees itself
    c_gamma_h_interior : the shared interior value (full-stencil sum)
    """

    grid: Grid
    offsets: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    mass_ratio: np.ndarray = field(repr=False)
    fft_shape: tuple
    spectrum: np.ndarray = field(repr=False)
    c_gamma_h: np.ndarray = field(repr=False)
    c_gamma_h_interior: float


def build_stencil(grid: Grid, kernel: KernelSpec) -> ConvolutionStencil:
    """Build the shared stencil and the per-node closure constants."""
    if kernel.dim != grid.dim:
        raise ValueError(f"kernel dim {kernel.dim} != grid dim {grid.dim}")
    if kernel.delta < grid.h:
        raise ValueError(
            f"delta = {kernel.delta} < h = {grid.h}: stencil would be empty"
        )
    # Largest offset with a nonzero kernel value (gamma vanishes at delta).
    R = int(math.floor((kernel.delta / grid.h) * (1.0 - 1e-12)))
    # The stencil of every interior node must stay off the outermost
    # (half-mass) nodes; build_grid's ceil(delta/h) layer always does.
    if grid.layer <= R:
        raise ValueError("grid interaction layer does not cover delta")
    k = np.arange(-R, R + 1)
    # hypot from 0.0 keeps the 1D distances |k| and the 2D ones hypot(kx, ky)
    dist = np.hypot.reduce(np.meshgrid(*(k,) * grid.dim, indexing="ij"), initial=0.0)
    footprint = kernel_eval(kernel, dist * grid.h) * grid.h**grid.dim

    # footprint axes are (y, x) like the node ordering; offsets are (x, y)
    nz = np.nonzero(footprint > 0.0)
    offsets = np.column_stack([k[i] for i in nz[::-1]])
    weights = footprint[nz]

    mass_ratio = grid.lumped_mass / grid.h**grid.dim
    fft_shape = (sfft.next_fast_len(grid.n_axis + R, real=True),) * grid.dim
    padded = np.zeros(fft_shape)
    padded[np.ix_(*(k % fft_shape[0],) * grid.dim)] = footprint
    spectrum = sfft.rfftn(padded).real.copy()  # not a view that holds the complex output
    c_gamma_h = _fft_correlate(grid, fft_shape, spectrum, mass_ratio)
    # every interior node's stencil lies where mass_ratio == 1 (R < layer)
    c_gamma_h_interior = float(footprint.sum())
    c_gamma_h[grid.interior_ids] = c_gamma_h_interior
    return ConvolutionStencil(
        grid=grid,
        offsets=offsets,
        weights=weights,
        mass_ratio=mass_ratio,
        fft_shape=fft_shape,
        spectrum=spectrum,
        c_gamma_h=c_gamma_h,
        c_gamma_h_interior=c_gamma_h_interior,
    )


def _fft_correlate(grid: Grid, fft_shape: tuple, spectrum: np.ndarray,
                   src: np.ndarray) -> np.ndarray:
    """Footprint correlation of a full nodal field, zero outside the grid."""
    out = sfft.irfftn(sfft.rfftn(src.reshape(grid.shape), s=fft_shape) * spectrum,
                      s=fft_shape)
    return out[(slice(0, grid.n_axis),) * grid.dim].ravel()


def convolve(stencil: ConvolutionStencil, u: np.ndarray) -> np.ndarray:
    """Apply gamma (*) to a full nodal field; returns a full nodal field.

    Computed as u[0] c_gamma_h plus the FFT correlation of
    (u - u[0]) m / h^dim, so a constant field gives exactly c * c_gamma_h.
    Pure data-parallel map over output nodes (no shared mutable state).
    """
    grid = stencil.grid
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_nodes,):
        raise ValueError(f"field must have {grid.n_nodes} entries, got {u.shape}")
    c = u[0]
    return c * stencil.c_gamma_h + _fft_correlate(
        grid, stencil.fft_shape, stencil.spectrum, (u - c) * stencil.mass_ratio)


def conv_rows(stencil: ConvolutionStencil, rows: np.ndarray) -> sp.csr_matrix:
    """Sparse matrix of the convolution restricted to the given target rows.

    Entry (j, k) = gamma(|x_j - x_k|) * m_k for j in ``rows``; other rows are
    zero.  Intended for implicit solves and small verification problems; the
    nnz guard keeps production-size explicit runs off this path.
    """
    grid = stencil.grid
    nnz_bound = len(rows) * len(stencil.weights)
    if nnz_bound > _MAX_SPARSE_NNZ:
        raise MemoryError(
            f"convolution matrix would need ~{nnz_bound} entries; "
            "use the stencil application instead"
        )
    # node multi-indices in (x, y) order, matching the offsets
    index = np.unravel_index(rows, grid.shape)[::-1]
    row_list, col_list, dat_list = [], [], []
    for off, w in zip(stencil.offsets, stencil.weights):
        target = [i + o for i, o in zip(index, off)]
        ok = np.logical_and.reduce([(t >= 0) & (t < grid.n_axis) for t in target])
        cols = np.ravel_multi_index([t[ok] for t in target[::-1]], grid.shape)
        row_list.append(rows[ok])
        col_list.append(cols)
        dat_list.append(w * stencil.mass_ratio[cols])
    return sp.coo_matrix(
        (np.concatenate(dat_list), (np.concatenate(row_list), np.concatenate(col_list))),
        shape=(grid.n_nodes, grid.n_nodes),
    ).tocsr()


def exterior_closure(stencil: ConvolutionStencil, conv: np.ndarray) -> np.ndarray:
    """Exterior-layer values closing the zero nonlocal-flux condition.

    ``conv`` is gamma (*) u on all nodes, already computed by the caller;
    returns u_j = conv_j / c_gamma_h_j on the exterior nodes, in
    ``grid.exterior_ids`` order.
    """
    ext = stencil.grid.exterior_ids
    return conv[ext] / stencil.c_gamma_h[ext]
