import gc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import factorized, spsolve

import nlpf.pdas as pdas

from nlpf.grid import assemble_stiffness, build_grid
from nlpf.kernel import KernelSpec
from nlpf.nonlocal_ops import build_stencil, conv_rows, convolve
from nlpf.pdas import (
    ActiveSets,
    PdasConfig,
    WSolver,
    local_obstacle_matrix,
    pdas_step_CH,
    pdas_step_local_obstacle,
    sets_from_bounds,
    verify_complementarity,
    w_matrix,
)
from nlpf.physics import ModelParams, coupling_m
from nlpf.verify import (
    dense_conv_matrix,
    dense_stiffness_1d,
    enumerate_CH_explicit,
    enumerate_CH_implicit,
    enumerate_local_obstacle,
    pdas_step_AC_nonlocal,
)

CH_PARAMS = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02)
TAU = 3e-4


def _ch(g, stn, params, tau, u_prev, m_prev, cfg, **kw):
    """pdas_step_CH with its operators built as the time loop builds them."""
    W = (conv_rows(stn, np.arange(g.n_nodes))
         if cfg.convolution_mode == "implicit" else None)
    w_solver = WSolver(g, w_matrix(g, assemble_stiffness(g), params.beta, tau))
    return pdas_step_CH(g, stn, params, tau, u_prev, m_prev, cfg, w_solver, W, **kw)


def _lo(g, params, tau, eps, u_prev, m_prev, cfg):
    """pdas_step_local_obstacle with its matrix built as the time loop builds it."""
    A = local_obstacle_matrix(g, assemble_stiffness(g), params, tau, eps)
    return pdas_step_local_obstacle(g, params, tau, A, u_prev, m_prev, cfg)


def _setup(n_cells=9, delta_cells=2.6, dim=1, eps=0.35):
    g = build_grid(dim, 1.0 / n_cells, delta_cells / n_cells)
    spec = KernelSpec(eps, delta_cells / n_cells, dim)
    return g, spec, build_stencil(g, spec)


def test_ch_step_pure_solid_stationary():
    g, spec, stn = _setup()
    u_prev = np.ones(g.n_nodes)
    res = _ch(g, stn, CH_PARAMS, TAU, u_prev, np.zeros(g.n_interior), PdasConfig())
    assert res.converged and res.iters <= 2
    assert np.array_equal(res.u, np.ones(g.n_nodes))
    assert np.abs(res.w).max() <= 1e-13
    # lambda = c_F/2 at the stationary solid state
    assert np.abs(res.lam - CH_PARAMS.c_F / 2).max() <= 1e-13


def test_ch_step_requires_positive_beta_and_xi():
    g, spec, stn = _setup()
    with pytest.raises(ValueError, match="beta"):
        _ch(g, stn, ModelParams(mu=1.0, L=0.0, D=1.0, beta=0.0), TAU,
            np.ones(g.n_nodes), np.zeros(g.n_interior), PdasConfig())
    for bad in (2.0, np.nan):  # NaN fails every comparison: must still raise
        with pytest.raises(ValueError, match="infeasible"):
            _ch(g, stn, CH_PARAMS, TAU, np.full(g.n_nodes, bad),
                np.zeros(g.n_interior), PdasConfig())
    # c_gamma below c_F puts the step outside the xi > 0 regime
    weak = build_stencil(g, KernelSpec(0.01, spec.delta, 1))
    with pytest.raises(ValueError, match="xi"):
        _ch(g, weak, CH_PARAMS, TAU, np.ones(g.n_nodes),
            np.zeros(g.n_interior), PdasConfig())


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
def test_ch_step_matches_exhaustive_enumeration(mode):
    n = 6 if mode == "implicit" else 8
    g, spec, stn = _setup(n_cells=n - 1)
    W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 1)
    K = dense_stiffness_1d(g.n_interior, g.h)
    rng = np.random.default_rng(42)
    cfg = PdasConfig(convolution_mode=mode)
    for trial in range(4):
        u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
        m_prev = rng.uniform(-0.45, 0.45, g.n_interior)
        res = _ch(g, stn, CH_PARAMS, TAU, u_prev, m_prev, cfg)
        assert res.converged
        if mode == "explicit":
            u_ref, w_ref, lam_ref = enumerate_CH_explicit(
                g, W, CH_PARAMS, TAU, u_prev, m_prev, K
            )
        else:
            u_ref, u_e_ref, w_ref, lam_ref = enumerate_CH_implicit(
                g, W, CH_PARAMS, TAU, u_prev, m_prev, K
            )
            assert np.abs(res.u[g.exterior_ids] - u_e_ref).max() <= 1e-9
        assert np.abs(res.u[g.interior_ids] - u_ref).max() <= 1e-9
        assert np.abs(res.w - w_ref).max() <= 1e-9
        assert np.abs(res.lam - lam_ref).max() <= 1e-9


def test_ch_step_implicit_2d_matches_enumeration():
    # 3x3 interior nodes; checks the 2D offset indexing of the coupled solve
    g = build_grid(2, 1 / 2, 0.7)
    spec = KernelSpec(0.15, 0.7, 2)
    stn = build_stencil(g, spec)
    W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 2)
    K = assemble_stiffness(g).toarray()
    rng = np.random.default_rng(77)
    u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
    m_prev = rng.uniform(-0.45, 0.45, g.n_interior)
    res = _ch(g, stn, CH_PARAMS, TAU, u_prev, m_prev,
              PdasConfig(convolution_mode="implicit"))
    assert res.converged
    u_ref, u_e_ref, w_ref, lam_ref = enumerate_CH_implicit(
        g, W, CH_PARAMS, TAU, u_prev, m_prev, K
    )
    assert np.abs(res.u[g.interior_ids] - u_ref).max() <= 1e-9
    assert np.abs(res.u[g.exterior_ids] - u_e_ref).max() <= 1e-9
    assert np.abs(res.w - w_ref).max() <= 1e-9
    assert np.abs(res.lam - lam_ref).max() <= 1e-9


def test_ch_step_warm_start_reaches_same_fixed_point():
    g, spec, stn = _setup(n_cells=19)
    rng = np.random.default_rng(3)
    u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
    m_prev = rng.uniform(-0.3, 0.3, g.n_interior)
    cfg = PdasConfig()
    res_a = _ch(g, stn, CH_PARAMS, TAU, u_prev, m_prev, cfg,
                init_sets=sets_from_bounds(u_prev[g.interior_ids]))
    all_inactive = ActiveSets(
        upper=np.zeros(g.n_interior, dtype=bool),
        lower=np.zeros(g.n_interior, dtype=bool),
    )
    res_b = _ch(g, stn, CH_PARAMS, TAU, u_prev, m_prev, cfg, init_sets=all_inactive)
    assert res_a.converged and res_b.converged
    assert np.abs(res_a.u - res_b.u).max() <= 1e-10
    assert np.abs(res_a.lam - res_b.lam).max() <= 1e-10


def test_ch_step_complementarity_and_bounds_on_random_steps():
    g, spec, stn = _setup(n_cells=24)
    rng = np.random.default_rng(7)
    cfg = PdasConfig()
    for _ in range(5):
        u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
        m_prev = rng.uniform(-0.45, 0.45, g.n_interior)
        res = _ch(g, stn, CH_PARAMS, TAU, u_prev, m_prev, cfg)
        assert res.converged
        uI = res.u[g.interior_ids]
        assert uI.min() >= -1e-12 and uI.max() <= 1 + 1e-12
        assert verify_complementarity(uI, res.lam) <= 1e-10


def test_ch_projection_consistency_implicit():
    g, spec, stn = _setup(n_cells=30, delta_cells=3.4)
    rng = np.random.default_rng(12)
    u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
    m_prev = rng.uniform(-0.4, 0.4, g.n_interior)
    res = _ch(g, stn, CH_PARAMS, TAU, u_prev, m_prev,
              PdasConfig(convolution_mode="implicit"))
    assert res.converged
    ids = g.interior_ids
    xi_vec = stn.c_gamma_h[ids] - CH_PARAMS.c_F
    c_F = CH_PARAMS.c_F
    gly = res.w + convolve(stn, res.u)[ids] + c_F * m_prev - 0.5 * c_F
    proj = np.clip(gly / xi_vec, 0.0, 1.0)
    assert np.abs(res.u[ids] - proj).max() <= 1e-8


def test_ac_nonlocal_pdas_stationary_phases():
    g, spec, stn = _setup()
    p0 = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    for val in (0.0, 1.0):
        u_prev = np.full(g.n_nodes, val)
        res = pdas_step_AC_nonlocal(g, stn, p0, TAU, u_prev,
                                    np.zeros(g.n_interior), PdasConfig())
        assert res.converged
        assert np.abs(res.u - val).max() == 0.0


def test_local_obstacle_stationary_and_melting():
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    g = build_grid(1, 1 / 40, 0.0)
    cfg = PdasConfig()
    u0 = np.zeros(g.n_nodes)
    res = _lo(g, params, TAU, 0.02, u0, np.zeros(g.n_interior), cfg)
    assert np.array_equal(res.u, u0)
    # theta above equilibrium melts: lumped mass of u non-increasing
    u_prev = (g.coords()[:, 0] <= 0.5).astype(float)
    theta_hot = np.full(g.n_interior, params.theta_e + 2.0)
    m_prev = coupling_m(params, theta_hot)
    assert m_prev.max() < 0
    res = _lo(g, params, TAU, 0.02, u_prev, m_prev, cfg)
    assert res.converged
    m = g.mass_interior
    assert (m * res.u).sum() <= (m * u_prev[g.interior_ids]).sum() + 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_cells=st.integers(2, 7), eps=st.floats(0.01, 0.5),
       excess=st.floats(0.1, 20.0))
def test_local_obstacle_matches_enumeration(data, n_cells, eps, excess):
    # 3 to 8 interior nodes; any tau with mu/tau = (1 + excess) c_F > c_F
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    tau = params.mu / ((1.0 + excess) * params.c_F)
    g = build_grid(1, 1 / n_cells, 0.0)
    n = g.n_interior

    def field(lo, hi, **kw):
        return np.array(data.draw(st.lists(st.floats(lo, hi, **kw), min_size=n, max_size=n)))

    u_prev = field(0.0, 1.0)
    m_prev = field(-0.45, 0.45, exclude_min=True, exclude_max=True)
    res = _lo(g, params, tau, eps, u_prev, m_prev, PdasConfig())
    u_ref, lam_ref = enumerate_local_obstacle(g, params, tau, eps, u_prev, m_prev,
                                              dense_stiffness_1d(n, g.h))
    assert res.converged
    assert np.abs(res.u - u_ref).max() <= 1e-9
    assert np.abs(res.lam - lam_ref).max() <= 1e-9


def _floats(data, size, lo, hi):
    return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))


def _tiny_2d_ch():
    """3x3 interior nodes with an interaction layer (every node sees the layer)."""
    g = build_grid(2, 1 / 2, 0.7)
    spec = KernelSpec(0.15, 0.7, 2)
    return g, spec, build_stencil(g, spec)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n_cells=st.integers(2, 5), beta=st.floats(0.005, 0.1),
       mode=st.sampled_from(["explicit", "implicit"]))
def test_ch_step_1d_matches_enumeration(data, n_cells, beta, mode):
    # 3 to 6 interior nodes; the direct 1D routes, both convolution modes
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=beta)
    g, spec, stn = _setup(n_cells=n_cells)
    u_prev = _floats(data, g.n_nodes, 0.0, 1.0)
    m_prev = _floats(data, g.n_interior, -0.45, 0.45)
    res = _ch(g, stn, params, TAU, u_prev, m_prev, PdasConfig(convolution_mode=mode))
    W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 1)
    K = dense_stiffness_1d(g.n_interior, g.h)
    oracle = enumerate_CH_explicit if mode == "explicit" else enumerate_CH_implicit
    ref = oracle(g, W, params, TAU, u_prev, m_prev, K)
    u_ref, w_ref, lam_ref = ref[0], ref[-2], ref[-1]
    assert res.converged and res.cg_iters == 0
    assert np.abs(res.u[g.interior_ids] - u_ref).max() <= 1e-9
    assert np.abs(res.w - w_ref).max() <= 1e-9
    assert np.abs(res.lam - lam_ref).max() <= 1e-9
    assert res.kkt_residual <= 1e-9


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_ch_step_2d_loose_sweeps_match_enumeration(data):
    # a two-level V-cycle on the tiny grid, so the loose CG sweeps stop short
    # of the refined solve
    g, spec, stn = _tiny_2d_ch()
    u_prev = _floats(data, g.n_nodes, 0.0, 1.0)
    m_prev = _floats(data, g.n_interior, -0.45, 0.45)
    calls = []
    cfg = PdasConfig()
    with mock.patch.object(pdas, "_COARSEST_NODES", 4), \
            mock.patch.object(pdas, "cg", _recording_cg(calls)):
        res = _ch(g, stn, CH_PARAMS, TAU, u_prev, m_prev, cfg)
    assert {rtol for *_, rtol in calls} == {pdas._SWEEP_RTOL, cfg.lin_tol}
    assert calls[-1][-1] == cfg.lin_tol
    W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 2)
    u_ref, w_ref, lam_ref = enumerate_CH_explicit(
        g, W, CH_PARAMS, TAU, u_prev, m_prev, assemble_stiffness(g).toarray())
    assert res.converged
    assert np.abs(res.u[g.interior_ids] - u_ref).max() <= 1e-9
    assert np.abs(res.w - w_ref).max() <= 1e-9
    assert np.abs(res.lam - lam_ref).max() <= 1e-9
    assert res.kkt_residual <= 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2]),
       target=st.sampled_from(["u_prev", "m_prev", "w0"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_ch_step_on_nonfinite_input_fails_or_stays_sound(data, dim, target, bad):
    # a NaN or infinity in any input either raises or is not accepted (not
    # converged, or a KKT residual that fails the report's gate), unless the
    # accepted u and w are finite and feasible
    g, spec, stn = _setup(n_cells=5) if dim == 1 else _tiny_2d_ch()
    inputs = {"u_prev": _floats(data, g.n_nodes, 0.0, 1.0),
              "m_prev": _floats(data, g.n_interior, -0.45, 0.45),
              "w0": _floats(data, g.n_interior, -1.0, 1.0)}
    inputs[target][data.draw(st.integers(0, inputs[target].size - 1))] = bad
    try:
        res = _ch(g, stn, CH_PARAMS, TAU, inputs["u_prev"], inputs["m_prev"],
                  PdasConfig(), w0=inputs["w0"])
    except (ValueError, RuntimeError):
        return
    accepted = res.converged and res.kkt_residual <= 1e-9
    u_I = res.u[g.interior_ids]
    sound = (np.isfinite(res.u).all() and np.isfinite(res.w).all()
             and u_I.min() >= -1e-12 and u_I.max() <= 1.0 + 1e-12)
    assert not accepted or sound


def _recording_cg(calls):
    """pdas.cg wrapped to record (A, b, x, info, rtol) per call."""
    cg = pdas.cg

    def counted(A, b, *args, **kwargs):
        x, info = cg(A, b, *args, **kwargs)
        calls.append((A, b, x, info, kwargs["rtol"]))
        return x, info
    return counted


def _counting_cg(monkeypatch, calls):
    monkeypatch.setattr(pdas, "cg", _recording_cg(calls))


def test_local_obstacle_2d_matches_enumeration(monkeypatch):
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    g = build_grid(2, 0.5, 0.0)  # 3x3 nodes
    K = assemble_stiffness(g).toarray()
    calls = []
    _counting_cg(monkeypatch, calls)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
        m_prev = rng.uniform(-0.45, 0.45, g.n_interior)
        res = _lo(g, params, TAU, 0.3, u_prev, m_prev, PdasConfig())
        u_ref, lam_ref = enumerate_local_obstacle(g, params, TAU, 0.3, u_prev,
                                                  m_prev, K)
        assert res.converged
        assert np.abs(res.u - u_ref).max() <= 1e-9
        assert np.abs(res.lam - lam_ref).max() <= 1e-9
    assert calls  # the 2D sweeps went through CG


def _band_step_2d():
    """ex3-like local obstacle step on 33x33 nodes with an inactive ring."""
    params = ModelParams(mu=0.0003, L=0.5, D=1.0, beta=0.0, alpha=0.9, rho=10.0)
    g = build_grid(2, 1.0 / 32, 0.0)
    r = np.hypot(*(g.coords() - 0.5).T)
    u_prev = np.clip((r - 0.3) / (4 * g.h) + 0.5, 0.0, 1.0)
    m_prev = coupling_m(params, np.full(g.n_interior, 0.5))
    return g, params, u_prev, m_prev


def test_local_obstacle_2d_cg_sweeps_match_direct_solve(monkeypatch):
    # a loose sweep only chooses the next sets; the refinement of the sets
    # that repeat is held to the direct solve
    g, params, u_prev, m_prev = _band_step_2d()
    calls = []
    _counting_cg(monkeypatch, calls)
    cfg = PdasConfig()
    res = _lo(g, params, 1e-4, 0.01, u_prev, m_prev, cfg)
    assert res.converged and len(calls) == res.iters
    assert res.cg_iters > 0
    assert min(b.size for _, b, _, _, _ in calls) >= 100
    assert all(info == 0 for *_, info, _ in calls)
    assert {rtol for *_, rtol in calls} == {pdas._SWEEP_RTOL, cfg.lin_tol}
    refined = [call for call in calls if call[-1] == cfg.lin_tol]
    assert refined and calls[-1] is refined[-1]
    for A, b, x, _, _ in refined:
        x_ref = factorized(A.tocsc())(b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _exact_sweeps():
    """Every sweep solved to lin_tol: the exact-sweep reference."""
    return mock.patch.object(pdas, "_SWEEP_RTOL", 0.0)


def _band_step_CH_2d():
    """ex3-like CH step (small xi) on 33x33 interior nodes with an inactive ring."""
    params = ModelParams(mu=0.0003, L=0.5, D=1.0, beta=0.002, alpha=0.9, rho=10.0)
    h = 1.0 / 32
    g = build_grid(2, h, 3 * h)
    stn = build_stencil(g, KernelSpec(0.012, 3 * h, 2))
    r = np.hypot(*(g.coords() - 0.5).T)
    u_prev = np.clip((r - 0.3) / (4 * h) + 0.5, 0.0, 1.0)
    m_prev = coupling_m(params, np.full(g.n_interior, 0.5))
    return g, stn, params, u_prev, m_prev


def test_ch_2d_loose_sweeps_accept_the_exact_sets_at_lin_tol():
    g, stn, params, u_prev, m_prev = _band_step_CH_2d()
    cfg = PdasConfig()
    w_solver = WSolver(g, w_matrix(g, assemble_stiffness(g), params.beta, 1e-4))
    assert w_solver.prolongations  # a multigrid V-cycle, not one direct solve
    res = pdas_step_CH(g, stn, params, 1e-4, u_prev, m_prev, cfg, w_solver)
    with _exact_sweeps():
        exact = pdas_step_CH(g, stn, params, 1e-4, u_prev, m_prev, cfg, w_solver)
    assert res.converged and exact.converged
    assert res.sets.same_as(exact.sets) and res.sets.inactive.sum() >= 100
    assert res.cg_iters < exact.cg_iters
    # the accepted w solves the w-system of the final sets to lin_tol
    ids, mI, mu = g.interior_ids, g.mass_interior, params.mu
    inactive = res.sets.inactive
    xi = stn.c_gamma_h_interior - params.c_F
    q = convolve(stn, u_prev)[ids] + params.c_F * m_prev - 0.5 * params.c_F
    A = w_solver.A + sp.diags_array(np.where(inactive, mu * mI / xi, 0.0))
    b = mu * mI * (u_prev[ids] - np.where(inactive, q / xi, res.sets.upper))
    assert np.linalg.norm(A @ res.w - b) <= cfg.lin_tol * np.linalg.norm(b)
    assert res.kkt_residual <= 1e-9
    assert np.abs(res.u - exact.u).max() <= 1e-10


def test_local_obstacle_2d_loose_sweeps_accept_the_exact_sets_at_lin_tol():
    g, params, u_prev, m_prev = _band_step_2d()
    cfg = PdasConfig()
    res = _lo(g, params, 1e-4, 0.01, u_prev, m_prev, cfg)
    with _exact_sweeps():
        exact = _lo(g, params, 1e-4, 0.01, u_prev, m_prev, cfg)
    assert res.converged and exact.converged
    assert res.sets.same_as(exact.sets) and res.sets.inactive.sum() >= 100
    assert res.cg_iters < exact.cg_iters
    # the accepted u solves the reduced system of the final sets to lin_tol
    A = local_obstacle_matrix(g, assemble_stiffness(g), params, 1e-4, 0.01)
    b = g.mass_interior * (params.mu / 1e-4 * u_prev - 0.5 * params.c_F
                           + params.c_F * m_prev)
    idx = np.flatnonzero(res.sets.inactive)
    rhs = (b - A @ res.sets.upper.astype(float))[idx]
    assert np.linalg.norm((b - A @ res.u)[idx]) <= cfg.lin_tol * np.linalg.norm(rhs)
    assert res.kkt_residual <= 1e-9
    assert np.abs(res.u - exact.u).max() <= 1e-10


def test_local_obstacle_2d_cg_failure_raises(monkeypatch):
    # no fallback: a CG that stops short is an error, not a direct solve
    def failed_cg(A, b, *args, **kwargs):
        return np.zeros_like(b), 1

    def no_factorized(*args, **kwargs):
        raise AssertionError("no fallback to a direct solve")

    g, params, u_prev, m_prev = _band_step_2d()
    monkeypatch.setattr(pdas, "cg", failed_cg)
    monkeypatch.setattr(pdas, "factorized", no_factorized)
    with pytest.raises(RuntimeError, match="did not reach"):
        _lo(g, params, 1e-4, 0.01, u_prev, m_prev, PdasConfig())


def test_local_obstacle_1d_is_a_direct_solve(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("1D reduced systems must not reach CG")

    monkeypatch.setattr(pdas, "cg", no_cg)
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    g = build_grid(1, 1 / 400, 0.0)
    u_prev = (g.coords()[:, 0] <= 0.5).astype(float)
    m_prev = coupling_m(params, np.full(g.n_interior, params.theta_e + 2.0))
    res = _lo(g, params, TAU, 0.02, u_prev, m_prev, PdasConfig())
    assert res.converged
    assert np.count_nonzero((res.u > 0.0) & (res.u < 1.0)) > 10  # reduced solves ran


def test_local_obstacle_rejects_large_tau():
    params = ModelParams(mu=1e-4, L=0.0, D=1.0, beta=0.0)
    g = build_grid(1, 1 / 10, 0.0)
    with pytest.raises(ValueError, match="mu/tau"):
        local_obstacle_matrix(g, assemble_stiffness(g), params, 1e-2, 0.1)


def test_local_obstacle_matrix_is_beta_zero_only():
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.05)
    g = build_grid(1, 1 / 12, 0.0)
    with pytest.raises(ValueError, match="beta = 0"):
        local_obstacle_matrix(g, assemble_stiffness(g), params, TAU, 0.1)


def test_verify_complementarity_cases():
    n = 4
    assert verify_complementarity(np.ones(n), np.full(n, 0.3)) == 0.0
    assert verify_complementarity(np.full(n, 0.5), np.zeros(n)) == 0.0
    # hand-computed infeasible pair
    u = np.array([0.5, 1.2, -0.1])
    lam = np.array([0.2, 0.0, 0.0])
    # min(lam+, 1-u) at node 0: min(0.2, 0.5) = 0.2; bound violations 0.2/0.1
    assert verify_complementarity(u, lam) == pytest.approx(0.2)


def _w_system(n_axis, inactive, dim=2, seed=0):
    """The ex3-scale w-equation on a local grid with n_axis nodes per axis."""
    g = build_grid(dim, 1.0 / (n_axis - 1), 0.0)
    solver = WSolver(g, w_matrix(g, assemble_stiffness(g), CH_PARAMS.beta, TAU))
    xi = 0.0093  # discrete xi of the ex3 kernel
    d = np.where(inactive(g), CH_PARAMS.mu * g.mass_interior / xi, 0.0)
    rng = np.random.default_rng(seed)
    b = g.mass_interior * rng.standard_normal(g.n_interior)
    x_ref = spsolve((solver.A + sp.diags_array(d)).tocsc(), b)
    return g, solver, d, b, x_ref


_INACTIVE_SETS = {
    "all-inactive": lambda g: np.ones(g.n_interior, dtype=bool),
    "all-active": lambda g: np.zeros(g.n_interior, dtype=bool),
    "band": lambda g: np.abs(np.hypot(*(g.coords()[g.interior_ids] - 0.5).T) - 0.3)
    <= 1.5 * g.h,
}


@pytest.mark.parametrize("inactive", sorted(_INACTIVE_SETS))
@pytest.mark.parametrize("n_axis", [9, 10, 17, 28, 33])
def test_w_solver_2d_matches_spsolve(n_axis, inactive):
    g, solver, d, b, x_ref = _w_system(n_axis, _INACTIVE_SETS[inactive])
    assert len(solver.prolongations) == {9: 0, 10: 0, 17: 1, 28: 1, 33: 2}[n_axis]
    for x0 in (np.zeros(g.n_interior), x_ref + 1e-3):
        x = solver.system(d)(b, x0, 1e-12)[0]
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("n", [9, 10, 14, 27])
def test_prolongation_interpolates_linear_functions(n):
    P = pdas._prolongation_1d(n)
    nc = (n + 1) // 2
    assert P.shape == (n, nc)
    assert np.abs(P @ np.ones(nc) - 1.0).max() == 0.0
    fine = P @ (2.0 * np.arange(nc))
    # exact except the last node of an even axis, which copies its neighbour
    exact = n if n % 2 else n - 1
    assert np.abs(fine[:exact] - np.arange(exact)).max() == 0.0
    assert n % 2 or fine[-1] == n - 2


def test_w_solver_1d_is_a_direct_solve(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("1D w-systems must not reach CG")

    monkeypatch.setattr(pdas, "cg", no_cg)
    g, solver, d, b, x_ref = _w_system(
        834, lambda g: np.abs(g.coords()[g.interior_ids, 0] - 0.5) <= 0.1, dim=1)
    assert solver.prolongations == ()
    x, cg_iters = solver.system(d)(b, np.zeros(g.n_interior), 1e-12)
    assert cg_iters == 0
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


def _random_band(g):
    lo, width = np.random.default_rng(g.n_interior).integers(0, g.n_interior, 2)
    return (np.arange(g.n_interior) >= lo) & (np.arange(g.n_interior) <= lo + width)


@pytest.mark.parametrize("inactive", [lambda g: np.zeros(g.n_interior, dtype=bool),
                                      lambda g: np.ones(g.n_interior, dtype=bool),
                                      _random_band],
                         ids=["d=0", "d>0", "random-band"])
@pytest.mark.parametrize("n_axis", [2, 3, 8, 31, 834])
def test_w_solver_1d_banded_matches_spsolve(n_axis, inactive):
    g, solver, d, b, x_ref = _w_system(n_axis, inactive, dim=1, seed=n_axis)
    x, cg_iters = solver.system(d)(b, np.zeros(g.n_interior), 1e-12)
    assert cg_iters == 0
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


def test_w_solver_cg_failure_raises(monkeypatch):
    # no silent fallback: a CG that stops short is an error, not a direct solve
    def failed_cg(A, b, *args, **kwargs):
        return np.zeros_like(b), 7

    def no_spsolve(*args, **kwargs):
        raise AssertionError("no fallback to a direct solve")

    g, solver, d, b, _ = _w_system(17, _INACTIVE_SETS["band"])
    monkeypatch.setattr(pdas, "cg", failed_cg)
    monkeypatch.setattr(pdas, "spsolve", no_spsolve)
    with pytest.raises(RuntimeError, match="did not reach"):
        solver.system(d)(b, np.zeros(g.n_interior), 1e-12)


def test_w_solver_frees_its_hierarchy_without_the_cyclic_gc(monkeypatch):
    # a hierarchy kept alive by a reference cycle would survive every sweep
    # until the cyclic collector runs, multiplying the peak memory
    built = []

    class Recorded(pdas._VCycle):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(pdas, "_VCycle", Recorded)
    g, solver, d, b, _ = _w_system(33, _INACTIVE_SETS["band"])
    gc.disable()
    try:
        solve = solver.system(d)
        x, _ = solve(b, np.zeros(g.n_interior), 1e-4)  # a loose sweep, then
        solve(b, x, 1e-12)  # its refinement, on the same hierarchy
        assert len(built) == 1 and built[0]() is not None
        del solve
        assert built[0]() is None
    finally:
        gc.enable()
