import numpy as np
import pytest
import scipy.sparse as sp

from nlpf.grid import build_grid, factorized, mass_plus_stiffness, upper_bands
from oracles import assert_same_entries, kron_stiffness


def test_example1_layer_width():
    g = build_grid(1, 0.0024, 0.1540)
    assert g.n_cells == 417  # h snapped to 1/417
    assert g.layer == 65
    assert g.n_interior == 418
    assert g.n_nodes == 418 + 2 * 65


def test_example3_dimensions():
    g = build_grid(2, 0.0048, 0.0826)
    assert g.n_cells == 208  # h snapped to 1/208
    assert g.n_axis_interior == 209
    assert g.layer == 18


def test_small_grid_counting():
    g = build_grid(1, 0.25, 0.5)
    assert g.n_interior == 5  # nodes {0, .25, .5, .75, 1}
    assert g.layer == 2
    assert g.exterior_ids.size == 4


def test_local_grid_has_no_layer():
    g = build_grid(1, 0.1, 0.0)
    assert g.layer == 0
    assert g.exterior_ids.size == 0
    assert g.n_nodes == g.n_interior


def test_classification_partition():
    g = build_grid(2, 0.2, 0.35)
    ids = np.concatenate([g.interior_ids, g.exterior_ids])
    assert np.array_equal(np.sort(ids), np.arange(g.n_nodes))
    coords = g.coords()
    inside = np.all((coords >= -1e-12) & (coords <= 1 + 1e-12), axis=1)
    assert np.array_equal(np.flatnonzero(inside), g.interior_ids)


def test_layer_covers_delta():
    for h, delta in ((0.1, 0.25), (0.0024, 0.1540), (1 / 208, 0.0826)):
        g = build_grid(1, h, delta)
        assert g.layer * g.h >= delta - 1e-12


def test_build_grid_errors():
    with pytest.raises(ValueError):
        build_grid(1, 0.0, 0.1)
    with pytest.raises(ValueError):
        build_grid(3, 0.1, 0.1)
    with pytest.raises(ValueError):
        build_grid(2, 1e-5, 0.0)  # would exceed the node budget


def test_one_cell_grid():
    g = build_grid(2, 1.0, 0.0)
    assert (g.n_cells, g.n_nodes, g.h) == (1, 4, 1.0)
    assert np.array_equal(g.mass_interior, np.full(4, 0.25))
    with pytest.raises(ValueError, match="h <= 1"):
        build_grid(1, 1.5, 0.0)


def test_stiffness_three_nodes():
    g = build_grid(1, 0.5, 0.0)
    K = mass_plus_stiffness(g, 0.0, 1.0).toarray()
    expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
    assert np.array_equal(K, expected)


@pytest.mark.parametrize("dim,h", [(1, 0.05), (2, 0.125)])
def test_stiffness_symmetric_psd_annihilates_constants(dim, h):
    g = build_grid(dim, h, 0.0)
    K = mass_plus_stiffness(g, 0.0, 1.0)
    diff = (K - K.T).toarray()
    assert np.abs(diff).max() == 0.0
    assert np.abs(K @ np.ones(g.n_interior)).max() <= 1e-13
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(g.n_interior)
        assert x @ (K @ x) >= -1e-10 * (x @ x)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_cells", [1, 2, 7, 30])
def test_stiffness_is_the_kronecker_sum_entry_for_entry(dim, n_cells):
    # written diagonal by diagonal from the 1D factors, K equals the sparse
    # Kronecker sum exactly, and its DIA data is what converting that sum
    # gives (zeros where an x-coupling would cross a grid row)
    for delta in (0.0, 0.1):
        g = build_grid(dim, 1.0 / n_cells, delta)
        K, ref = mass_plus_stiffness(g, 0.0, 1.0), kron_stiffness(g)
        n = g.n_axis_interior
        assert K.format == "dia"
        assert list(K.offsets) == ([-1, 0, 1] if dim == 1 else [-n, -1, 0, 1, n])
        assert np.array_equal(K.toarray(), ref.toarray())
        assert_same_entries(K.tocsr(), ref)
        converted = sp.dia_array(K.tocsr())
        assert np.array_equal(K.offsets, converted.offsets)
        assert np.array_equal(K.data, converted.data)


def test_lumped_mass_interior_unity_without_layer():
    # trapezoidal rule of the unit domain telescopes to exactly 1
    for dim, h in ((1, 0.01), (2, 0.05)):
        g = build_grid(dim, h, 0.0)
        assert g.mass_interior.sum() == pytest.approx(1.0, abs=1e-14)


def test_lumped_mass_interior_near_unity_with_layer():
    g = build_grid(1, 0.01, 0.05)
    total = g.mass_interior.sum()
    assert abs(total - 1.0) <= 2 * g.h  # O(h)
    assert np.all(g.lumped_mass > 0)


@pytest.mark.parametrize("dim, delta", [(1, 0.0), (1, 0.1), (2, 0.0), (2, 0.1)])
def test_mass_interior_is_one_array_per_grid(dim, delta):
    # gathered once, on first use, and read-only, since every caller shares it
    g = build_grid(dim, 1 / 20, delta)
    m = g.mass_interior
    assert g.mass_interior is m and not m.flags.writeable
    assert np.array_equal(m, g.lumped_mass[g.interior_ids])


def test_h_snapping_reported():
    g = build_grid(1, 0.3, 0.0)
    assert g.h == pytest.approx(1.0 / 3.0)
    assert g.h_requested == 0.3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kd", [1, 15])
def test_upper_bands_and_factorized_keep_the_matrix_precision(kd, dtype):
    # a symmetric banded DIA matrix with the offsets of a 9-point stencil on
    # a 14-node axis (a tridiagonal one for kd = 1): its upper band storage
    # is read off the dense matrix, row kd - k holding the offset-k diagonal
    # by column, and its banded Cholesky solve stays in the matrix's dtype
    n = 60
    rng = np.random.default_rng(kd)
    dense = np.zeros((n, n))
    for k in {k for k in (1, kd - 2, kd - 1, kd) if k > 0}:
        v = rng.uniform(-1.0, 1.0, n - k)
        dense += np.diag(v, k) + np.diag(v, -k)
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    A = sp.dia_array(dense).astype(dtype)
    rounded = A.toarray()
    ref = np.zeros((kd + 1, n), dtype=dtype)
    for j in range(n):
        for i in range(max(0, j - kd), j + 1):
            ref[kd + i - j, j] = rounded[i, j]
    bands = upper_bands(A)
    assert bands.dtype == dtype and np.array_equal(bands, ref)
    b = rng.standard_normal(n).astype(dtype)
    x = factorized(bands)(b)
    assert x.dtype == dtype
    residual = np.linalg.norm(rounded.astype(np.float64) @ x - b) / np.linalg.norm(b)
    assert residual <= (1e-5 if dtype == np.float32 else 1e-12)
