import numpy as np
import pytest

from nlpf.grid import build_grid
from nlpf.kernel import KernelSpec, c_gamma_closed_form
from nlpf.nonlocal_ops import (
    apply_Bh,
    build_stencil,
    conv_rows,
    convolve,
    exterior_closure,
)
from nlpf.pdas import PdasConfig, WSolver, coupled_matrix, pdas_step_CH, w_matrix
from nlpf.physics import ModelParams
from oracles import dense_conv_matrix, trapezoid_masses


def _dense_W(grid, spec):
    return dense_conv_matrix(
        grid.coords(), grid.lumped_mass, spec.epsilon, spec.delta, spec.dim
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_offsets_and_center_weight(dim):
    g = build_grid(dim, 0.1, 0.25)
    spec = KernelSpec(1.0, 0.25, dim)
    st = build_stencil(g, spec)
    # (x, y) offsets inside the radius 2.5 cells, x varying fastest
    k = range(-2, 3)
    box = [(ox, oy) for oy in k for ox in k] if dim == 2 else [(o,) for o in k]
    assert st.offsets.tolist() == [list(o) for o in box if np.dot(o, o) < 2.5**2]
    # node c + offset sits at coords[c] + offset * h, and its weight is the
    # dense matrix entry (interior masses are h^dim)
    coords = g.coords()
    c = g.interior_ids[g.n_interior // 2]
    cols = c + st.offsets @ (g.n_axis ** np.arange(dim))
    assert np.allclose(coords[cols] - coords[c], st.offsets * g.h, rtol=0, atol=1e-12)
    W = _dense_W(g, spec)
    assert np.allclose(W[c, cols], st.weights, rtol=1e-13, atol=0)
    assert np.count_nonzero(W[c]) == len(st.weights)
    gamma0 = spec.epsilon**2 * spec.scaling
    center = st.weights[~st.offsets.any(axis=1)].item()
    assert center == pytest.approx(gamma0 * g.h**dim, rel=1e-14)


def test_stencil_requires_layer_and_resolution():
    spec = KernelSpec(1.0, 0.25, 1)
    with pytest.raises(ValueError, match="dim"):
        build_stencil(build_grid(2, 0.1, 0.25), spec)
    with pytest.raises(ValueError, match="empty"):
        build_stencil(build_grid(1, 0.3, 0.25), KernelSpec(1.0, 0.25, 1))
    g = build_grid(1, 0.1, 0.0)
    with pytest.raises(ValueError, match="layer"):
        build_stencil(g, spec)


def test_convolve_constant_reproduces_c_gamma_h():
    for dim, h in ((1, 1 / 20), (2, 1 / 8)):
        g = build_grid(dim, h, 2.7 * h)
        st = build_stencil(g, KernelSpec(0.6, 2.7 * h, dim))
        ones = np.ones(g.n_nodes)
        assert np.array_equal(convolve(st, ones), st.c_gamma_h)
        assert np.abs(convolve(st, np.zeros(g.n_nodes))).max() == 0.0


def test_c_gamma_h_constant_on_interior():
    g = build_grid(1, 0.0024, 0.1540)
    st = build_stencil(g, KernelSpec(0.02, 0.1540, 1))
    interior_vals = st.c_gamma_h[g.interior_ids]
    assert np.ptp(interior_vals) == 0.0
    assert interior_vals[0] == pytest.approx(st.c_gamma_h_interior, rel=1e-14)


def test_c_gamma_h_second_order_convergence():
    # Richardson study against the closed form at a fixed interaction radius
    spec = lambda: KernelSpec(1.0, 0.25, 1)
    errs = []
    for h in (1 / 40, 1 / 80):
        g = build_grid(1, h, 0.25)
        st = build_stencil(g, spec())
        center = g.interior_ids[g.n_interior // 2]
        errs.append(abs(st.c_gamma_h[center] - c_gamma_closed_form(spec())))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_c_gamma_h_2d_close_to_closed_form():
    h = 1 / 24
    spec = KernelSpec(0.5, 8 * h, 2)
    g = build_grid(2, h, spec.delta)
    st = build_stencil(g, spec)
    center = g.interior_ids[g.n_interior // 2]
    rel = abs(st.c_gamma_h[center] - c_gamma_closed_form(spec)) / c_gamma_closed_form(spec)
    assert rel <= 2e-3


@pytest.mark.parametrize(
    "dim,h,delta_cells",
    [(1, 1 / 150, 3.3), (2, 1 / 7, 2.6)],
    ids=["1d-n159", "2d-n196"],
)
def test_convolve_matches_dense_oracle(dim, h, delta_cells):
    g = build_grid(dim, h, delta_cells * h)
    assert g.n_nodes <= 200
    # epsilon chosen so c_gamma = O(1) and the absolute tolerance is meaningful
    eps = delta_cells * h / (10 if dim == 1 else 12) ** 0.5
    spec = KernelSpec(eps, delta_cells * h, dim)
    st = build_stencil(g, spec)
    W = _dense_W(g, spec)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.standard_normal(g.n_nodes)
        assert np.abs(convolve(st, u) - W @ u).max() <= 1e-12


@pytest.mark.parametrize("dim,h,delta", [(1, 1 / 30, 0.12), (2, 1 / 7, 2.6 / 7)],
                         ids=["1d", "2d"])
def test_conv_rows_matches_dense(dim, h, delta):
    g = build_grid(dim, h, delta)
    spec = KernelSpec(0.3, delta, dim)
    st = build_stencil(g, spec)
    W = _dense_W(g, spec)
    rows = g.exterior_ids
    M = conv_rows(st, rows).toarray()
    scale = np.abs(W).max()
    assert np.abs(M[rows] - W[rows]).max() <= 1e-14 * scale
    other = np.setdiff1d(np.arange(g.n_nodes), rows)
    assert np.abs(M[other]).max() == 0.0


def test_apply_Bh_annihilates_constants_and_is_linear():
    g = build_grid(1, 1 / 25, 0.1)
    st = build_stencil(g, KernelSpec(0.4, 0.1, 1))
    ones = np.ones(g.n_nodes)
    assert np.abs(apply_Bh(st, ones)).max() <= 1e-15
    rng = np.random.default_rng(11)
    u, v = rng.random(g.n_nodes), rng.random(g.n_nodes)
    a, b = 0.73, -1.9
    lhs = apply_Bh(st, a * u + b * v)
    rhs = a * apply_Bh(st, u) + b * apply_Bh(st, v)
    assert np.abs(lhs - rhs).max() <= 1e-13


@pytest.mark.parametrize("dim,h", [(1, 1 / 40), (2, 1 / 12)])
def test_apply_Bh_exactly_zero_on_constants(dim, h):
    # the FFT convolution splits off u[0] c_gamma_h, so no round-off survives
    g = build_grid(dim, h, 3.3 * h)
    st = build_stencil(g, KernelSpec(0.4, 3.3 * h, dim))
    rng = np.random.default_rng(21)
    for c in rng.standard_normal(5) * 10.0 ** rng.integers(-6, 6, 5):
        assert np.abs(apply_Bh(st, np.full(g.n_nodes, c))).max() == 0.0


def test_apply_Bh_half_indicator_matches_dense():
    g = build_grid(1, 1 / 40, 2.5 / 40)
    spec = KernelSpec(0.02, 2.5 / 40, 1)  # c_gamma ~ 1
    st = build_stencil(g, spec)
    u = (g.coords()[:, 0] <= 0.5).astype(float)
    W = _dense_W(g, spec)
    c_h = W @ np.ones(g.n_nodes)
    assert np.abs(apply_Bh(st, u) - (c_h * u - W @ u)).max() <= 1e-13


def test_convolve_symmetric_bilinear_form():
    g = build_grid(1, 1 / 18, 0.17)
    st = build_stencil(g, KernelSpec(0.9, 0.17, 1))
    rng = np.random.default_rng(2)
    u, v = rng.random(g.n_nodes), rng.random(g.n_nodes)
    lhs = float(np.dot(g.lumped_mass * convolve(st, u), v))
    rhs = float(np.dot(g.lumped_mass * u, convolve(st, v)))
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


def test_nonlocal_form_positive_semidefinite():
    g = build_grid(2, 1 / 10, 0.22)
    st = build_stencil(g, KernelSpec(0.8, 0.22, 2))
    rng = np.random.default_rng(4)
    for _ in range(100):
        u = rng.standard_normal(g.n_nodes)
        val = float(np.dot(g.lumped_mass * u, apply_Bh(st, u)))
        assert val >= -1e-10 * float(np.dot(u, u))


def test_exterior_flux_constant_and_range():
    g = build_grid(1, 1 / 16, 0.2)
    st = build_stencil(g, KernelSpec(0.8, 0.2, 1))
    u = np.ones(g.n_nodes)
    ext = exterior_closure(st, convolve(st, u))
    assert np.abs(ext - 1.0).max() <= 1e-12
    rng = np.random.default_rng(9)
    u[g.interior_ids] = rng.random(g.n_interior)
    vals = exterior_closure(st, convolve(st, u))
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12


def test_exterior_flux_explicit_matches_dense_formula():
    g = build_grid(1, 1 / 10, 0.22)
    spec = KernelSpec(0.15, 0.22, 1)
    st = build_stencil(g, spec)
    rng = np.random.default_rng(41)
    u = rng.random(g.n_nodes)
    got = exterior_closure(st, convolve(st, u))
    W = _dense_W(g, spec)
    c_h = W @ np.ones(g.n_nodes)
    ref = (W @ u)[g.exterior_ids] / c_h[g.exterior_ids]
    assert np.abs(got - ref).max() <= 1e-13


def test_exterior_flux_implicit_matches_dense_solve():
    # implicit convolution closes the layer inside the coupled CH solve:
    # its exterior values solve the dense flux rows for its interior values
    g = build_grid(1, 1 / 7, 2.2 / 7)  # 8 interior + 2x3 exterior nodes
    spec = KernelSpec(0.9, 2.2 / 7, 1)
    st = build_stencil(g, spec)
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02)
    rng = np.random.default_rng(14)
    u_prev = rng.random(g.n_nodes)
    w_solver = WSolver(g, w_matrix(g, params.beta, 3e-4))
    res = pdas_step_CH(g, st, params, 3e-4, u_prev, np.zeros(g.n_interior),
                       PdasConfig(convolution_mode="implicit"), w_solver,
                       coupled_matrix(g, st, params, w_solver))
    W = _dense_W(g, spec)
    c_h = W @ np.ones(g.n_nodes)
    ext, ids = g.exterior_ids, g.interior_ids
    S = np.diag(c_h[ext]) - W[np.ix_(ext, ext)]
    ref = np.linalg.solve(S, W[np.ix_(ext, ids)] @ res.u[ids])
    assert np.abs(res.u[ext] - ref).max() <= 1e-12


def test_conv_rows_refuses_production_sizes(monkeypatch):
    import nlpf.nonlocal_ops as ops

    g = build_grid(1, 1 / 30, 0.12)
    st = build_stencil(g, KernelSpec(0.3, 0.12, 1))
    monkeypatch.setattr(ops, "_MAX_SPARSE_NNZ", 10)
    with pytest.raises(MemoryError, match="stencil"):
        conv_rows(st, g.interior_ids)


def test_trapezoid_masses_oracle_agrees_with_grid():
    g = build_grid(2, 1 / 9, 0.25)
    ref = trapezoid_masses(g.n_axis, g.h, 2)
    assert np.abs(ref - g.lumped_mass).max() <= 1e-16
