import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import LinearOperator, cg as scipy_cg, factorized, spsolve

import nlpf.pdas as pdas

from nlpf.grid import build_grid, exact_solver, mass_plus_stiffness, upper_bands
from nlpf.kernel import KernelSpec
from nlpf.nonlocal_ops import build_stencil, convolve, exterior_closure
from nlpf.pdas import (
    ActiveSets,
    PdasConfig,
    WSolver,
    coupled_matrix,
    local_obstacle_matrix,
    pdas_step_CH,
    pdas_step_local_obstacle,
    verify_complementarity,
    w_matrix,
)
from nlpf.physics import ModelParams, coupling_m
from oracles import (
    assert_same_entries,
    certify_box_qp,
    ch_explicit_qp,
    dense_conv_matrix,
    dense_stiffness_1d,
    enumerate_CH_explicit,
    enumerate_CH_implicit,
    enumerate_local_obstacle,
    pdas_step_AC_nonlocal,
    phase_rows_by_products,
    sets_from_bounds,
    sum_local_obstacle_matrix,
    sum_w_matrix,
)

CH_PARAMS = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02)
TAU = 3e-4


def _ch(g, stn, params, tau, u_prev, m_prev, cfg, **kw):
    """pdas_step_CH with its operators built as the time loop builds them."""
    w_solver = WSolver(g, w_matrix(g, params.beta, tau))
    B = (coupled_matrix(g, stn, params, w_solver)
         if cfg.convolution_mode == "implicit" else None)
    return pdas_step_CH(g, stn, params, tau, u_prev, m_prev, cfg, w_solver, B, **kw)


def _lo(g, params, tau, eps, u_prev, m_prev, cfg, **kw):
    """pdas_step_local_obstacle with its matrix built as the time loop builds it."""
    A = local_obstacle_matrix(g, params, tau, eps)
    return pdas_step_local_obstacle(g, params, tau, A, u_prev, m_prev, cfg, **kw)


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
    K = mass_plus_stiffness(g, 0.0, 1.0).toarray()
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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       n_cells=st.integers(3, 8), eps=st.floats(0.005, 0.05))
def test_local_obstacle_start_reaches_same_fixed_point(seed, dim, n_cells, eps):
    # from the all-inactive estimate (None), from the bound pattern and from
    # the converged sets: the same sets and u; 1D solves exactly, 2D by CG
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    g = build_grid(dim, 1 / (n_cells * (6 if dim == 1 else 1)), 0.0)
    rng = np.random.default_rng(seed)
    u_prev = np.where(rng.random(g.n_nodes) < 0.7, rng.random(g.n_nodes) < 0.5,
                      rng.random(g.n_nodes))
    m_prev = rng.uniform(-0.45, 0.45, g.n_interior)
    cfg = PdasConfig()
    cold = _lo(g, params, TAU, eps, u_prev, m_prev, cfg)
    assert cold.converged
    for init in (sets_from_bounds(u_prev[g.interior_ids]), cold.sets):
        res = _lo(g, params, TAU, eps, u_prev, m_prev, cfg, init_sets=init)
        assert res.converged and res.sets.same_as(cold.sets)
        assert np.abs(res.u - cold.u).max() <= 1e-10
        assert np.abs(res.lam - cold.lam).max() <= 1e-10 * np.abs(cold.lam).max(initial=1.0)
    if dim == 1:
        assert res.iters == 1  # the converged sets repeat at once


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


#: The solution's sets of ``_cycling_ch_step`` from ``enumerate_CH_explicit``
#: (which takes ~6 s on its 11 nodes), per node: u pinned at 1, l pinned at
#: 0, . free.
_CYCLING_STEP_SETS = "uuuu.llllll"


def _cycling_ch_step():
    """A cold explicit CH first step whose active sets cycle: 11 interior nodes.

    Small xi (c_F 5e-4 below the discrete c_gamma), and u_prev a step over
    every node, its layer then replaced by the flux closure; closed as
    ``initial_state`` closes it (from a zero layer), the same step converges.
    """
    d, eps = 3.4197439636142772, 0.11402537682767543
    g = build_grid(1, 1 / 10, d / 10)
    spec = KernelSpec(eps, d / 10, 1)
    stn = build_stencil(g, spec)
    params = ModelParams(mu=0.0005545964016606477, L=0.5, D=1.0, beta=0.2376220058774777,
                         c_F=stn.c_gamma_h_interior - 0.0004962850654879928)
    u_prev = (g.coords()[:, 0] <= 0.45).astype(float)
    u_prev[g.exterior_ids] = exterior_closure(stn, convolve(stn, u_prev))
    m_prev = np.full(g.n_interior, -0.3755105985332587)
    return g, spec, stn, params, 8.963873418637847e-05, u_prev, m_prev


def test_ch_step_on_a_cycling_instance_is_certified_or_ends_in_its_cycle():
    # the step is a strictly convex QP, so a dense KKT certificate stands in
    # for the 3^n enumeration; the stored sets pass it and their neighbours
    # fail it.  A cold step either converges to certified sets or ends with
    # a cycle as its cause (today: 4 sets after 5 sweeps); warm-started from
    # the certified sets it accepts them at once
    g, spec, stn, params, tau, u_prev, m_prev = _cycling_ch_step()
    W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 1)
    H, b = ch_explicit_qp(g, W, params, tau, u_prev, m_prev,
                          dense_stiffness_1d(g.n_interior, g.h))

    def sets(pattern):
        return np.array([c == "u" for c in pattern]), np.array([c == "l" for c in pattern])

    u_ref, violation = certify_box_qp(H, b, *sets(_CYCLING_STEP_SETS))
    assert violation <= 1e-12
    for wrong in ("uuu..llllll", "uuuuu.lllll", "uuuu.lllll."):
        assert certify_box_qp(H, b, *sets(wrong))[1] > 0.1, wrong
    cold = _ch(g, stn, params, tau, u_prev, m_prev, PdasConfig())
    if cold.converged:
        assert certify_box_qp(H, b, cold.sets.upper, cold.sets.lower)[1] <= 1e-12
        assert np.abs(cold.u[g.interior_ids] - u_ref).max() <= 1e-12
    else:
        assert cold.cycle > 1 and cold.cause == f"the active sets cycle through {cold.cycle} sets"
    warm = _ch(g, stn, params, tau, u_prev, m_prev, PdasConfig(),
               init_sets=ActiveSets(*sets(_CYCLING_STEP_SETS)))
    assert warm.converged and warm.iters == 1 and warm.kkt_residual <= 1e-12
    assert np.abs(warm.u[g.interior_ids] - u_ref).max() <= 1e-12


def _log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


@st.composite
def _small_xi_ch_steps(draw):
    """Cold explicit CH first steps in ``_cycling_ch_step``'s regime, 11-21 interior nodes.

    u_prev is a step over every node, its layer then replaced by the flux
    closure; c_F lies xi in [1e-6, 3e-3] below the discrete c_gamma.  The
    ranges of mu, beta and tau contain the cycling instance's values.
    """
    n_cells = draw(st.integers(10, 20))
    delta = draw(st.floats(2.0, 5.0)) / n_cells
    g = build_grid(1, 1 / n_cells, delta)
    spec = KernelSpec(draw(st.floats(0.05, 0.3)), delta, 1)
    stn = build_stencil(g, spec)
    params = ModelParams(mu=draw(_log_uniform(1e-4, 1e-2)), L=0.5, D=1.0,
                         beta=draw(_log_uniform(1e-2, 1.0)),
                         c_F=stn.c_gamma_h_interior - draw(_log_uniform(1e-6, 3e-3)))
    u_prev = (g.coords()[:, 0] <= draw(st.floats(0.2, 0.8))).astype(float)
    u_prev[g.exterior_ids] = exterior_closure(stn, convolve(stn, u_prev))
    m_prev = np.full(g.n_interior, draw(st.floats(-0.45, 0.45)))
    return g, spec, stn, params, draw(_log_uniform(1e-5, 1e-3)), u_prev, m_prev


@settings(max_examples=30, deadline=None)
@given(step=_small_xi_ch_steps())
def test_ch_step_at_small_xi_is_certified_or_names_its_cause(step):
    # beyond the reach of the 3^n enumeration; the QP certificate checks a
    # converged step, and a step that does not converge says why.  The
    # explicit route sets a free u to (w + q) / xi, where w + q ~ xi and
    # q ~ c_gamma: its u carries a round-off of order eps c_gamma / xi (up to
    # 0.89 times that in 11,000 draws, 8.7e-10 at worst), not the QP's
    g, spec, stn, params, tau, u_prev, m_prev = step
    res = _ch(g, stn, params, tau, u_prev, m_prev, PdasConfig())
    if res.converged:
        W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 1)
        H, b = ch_explicit_qp(g, W, params, tau, u_prev, m_prev,
                              dense_stiffness_1d(g.n_interior, g.h))
        u_ref, violation = certify_box_qp(H, b, res.sets.upper, res.sets.lower)
        assert violation <= 1e-12
        xi = stn.c_gamma_h_interior - params.c_F
        rounding = 4 * np.finfo(float).eps * stn.c_gamma_h_interior / xi
        assert np.abs(res.u[g.interior_ids] - u_ref).max() <= max(1e-12, rounding)
    elif res.cycle:
        assert res.cycle > 1 and res.cause == f"the active sets cycle through {res.cycle} sets"
    else:
        assert res.cause == f"the active sets did not repeat within {PdasConfig.max_iters} sweeps"


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
    assert {rtol for *_, rtol in calls} == {pdas._SWEEP_RTOL, pdas._LIN_TOL}
    assert calls[-1][-1] == pdas._LIN_TOL
    W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 2)
    u_ref, w_ref, lam_ref = enumerate_CH_explicit(
        g, W, CH_PARAMS, TAU, u_prev, m_prev, mass_plus_stiffness(g, 0.0, 1.0).toarray())
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
    K = mass_plus_stiffness(g, 0.0, 1.0).toarray()
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
    assert {rtol for *_, rtol in calls} == {pdas._SWEEP_RTOL, pdas._LIN_TOL}
    refined = [call for call in calls if call[-1] == pdas._LIN_TOL]
    assert refined and calls[-1] is refined[-1]
    for A, b, x, _, _ in refined:
        x_ref = factorized(A.tocsc())(b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _exact_sweeps():
    """Every sweep solved to _LIN_TOL: the exact-sweep reference."""
    return mock.patch.object(pdas, "_SWEEP_RTOL", pdas._LIN_TOL)


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
    w_solver = WSolver(g, w_matrix(g, params.beta, 1e-4))
    assert w_solver.transfers  # a multigrid V-cycle, not one direct solve
    res = pdas_step_CH(g, stn, params, 1e-4, u_prev, m_prev, cfg, w_solver)
    with _exact_sweeps():
        exact = pdas_step_CH(g, stn, params, 1e-4, u_prev, m_prev, cfg, w_solver)
    assert res.converged and exact.converged
    assert res.sets.same_as(exact.sets) and res.sets.inactive.sum() >= 100
    assert res.cg_iters < exact.cg_iters
    # the accepted w solves the w-system of the final sets to _LIN_TOL
    ids, mI, mu = g.interior_ids, g.mass_interior, params.mu
    inactive = res.sets.inactive
    xi = stn.c_gamma_h_interior - params.c_F
    q = convolve(stn, u_prev)[ids] + params.c_F * m_prev - 0.5 * params.c_F
    A = w_solver.A + sp.diags_array(np.where(inactive, mu * mI / xi, 0.0))
    b = mu * mI * (u_prev[ids] - np.where(inactive, q / xi, res.sets.upper))
    assert np.linalg.norm(A @ res.w - b) <= pdas._LIN_TOL * np.linalg.norm(b)
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
    # the accepted u solves the reduced system of the final sets to _LIN_TOL
    A = local_obstacle_matrix(g, params, 1e-4, 0.01)
    b = g.mass_interior * (params.mu / 1e-4 * u_prev - 0.5 * params.c_F
                           + params.c_F * m_prev)
    idx = np.flatnonzero(res.sets.inactive)
    rhs = (b - A @ res.sets.upper.astype(float))[idx]
    assert np.linalg.norm((b - A @ res.u)[idx]) <= pdas._LIN_TOL * np.linalg.norm(rhs)
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


def _local_obstacle_route_1d(monkeypatch, n_cells):
    """``system(sets)`` of a 1D local-obstacle step, with its A (dense) and b."""
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    g = build_grid(1, 1 / n_cells, 0.0)
    A = local_obstacle_matrix(g, params, TAU, 0.3)
    rng = np.random.default_rng(n_cells)
    u_prev, m_prev = rng.random(g.n_interior), rng.uniform(-0.45, 0.45, g.n_interior)
    routes = []
    monkeypatch.setattr(pdas, "_pdas_iterate",
                        lambda grid, u_I, system, *args, **kwargs: routes.append(system))
    pdas_step_local_obstacle(g, params, TAU, A, u_prev, m_prev, PdasConfig())
    b = g.mass_interior * (params.mu / TAU * u_prev - 0.5 * params.c_F
                           + params.c_F * m_prev)
    return routes[0], A.toarray(), b, g.mass_interior


@pytest.mark.parametrize("pattern", ["..uu.l...ul..", "u...........l", "uuuuuu.llllll",
                                     "." * 13, "uuulllluuullu"],
                         ids=["gaps", "ends-pinned", "one-inactive", "all-inactive",
                              "none-inactive"])
def test_local_obstacle_1d_sweep_matches_dense_principal_solve(pattern, monkeypatch):
    # the banded sweep against a dense solve of A[idx][:, idx], on sets given
    # as u (pinned at 1), l (pinned at 0) and . (inactive) per node
    system, A, b, mI = _local_obstacle_route_1d(monkeypatch, len(pattern) - 1)
    factored = []
    factorize = pdas.factorized
    monkeypatch.setattr(pdas, "factorized", lambda bands: factored.append(bands) or
                        factorize(bands))
    upper = np.array([c == "u" for c in pattern])
    lower = np.array([c == "l" for c in pattern])
    sweep = system(ActiveSets(upper, lower))(pdas._LIN_TOL, None)
    idx = np.flatnonzero(~(upper | lower))
    u_ref = upper.astype(float)
    if idx.size:
        u_ref[idx] = np.linalg.solve(A[np.ix_(idx, idx)], (b - A @ u_ref)[idx])
    assert len(factored) == (1 if idx.size else 0) and sweep.cg_iters == 0
    assert np.array_equal(sweep.u_I[upper | lower], upper[upper | lower])
    assert np.abs(sweep.u_I - u_ref).max() <= 1e-13 * np.abs(u_ref).max()
    assert np.abs(sweep.g - (b - A @ sweep.u_I) / mI).max() <= 1e-13 * np.abs(b / mI).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_factorized_rejects_a_band_that_is_not_positive_definite(dtype):
    # [[1, 2], [2, 1]] has the eigenvalue -1: an error, with no fallback
    with pytest.raises(np.linalg.LinAlgError):
        pdas.factorized(np.array([[0.0, 2.0], [1.0, 1.0]], dtype=dtype))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_factorized_rejects_a_nonfinite_band(dtype, bad):
    # LAPACK factors a NaN band without a complaint; factorized must not
    bands = np.array([[0.0, -1.0, -1.0], [3.0, 3.0, 3.0]], dtype=dtype)
    bands[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        pdas.factorized(bands)


def _scripted_system(n, script):
    """A route whose sweep of sets S yields the sets ``script[S.key()]``."""
    def system(sets):
        target = script[sets.key()]
        u_I = np.where(target.upper, 2.0, np.where(target.lower, -1.0, 0.5))
        return lambda rtol, last: pdas._Sweep(u_I, None, None, np.zeros(n), 0)
    return system


def _no_residual(u_I, w, g, inactive):
    return None


def _sets(n, upper=(), lower=()):
    sets = ActiveSets(np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    sets.upper[list(upper)], sets.lower[list(lower)] = True, True
    return sets


@pytest.mark.parametrize("loose", [False, True], ids=["exact", "loose"])
def test_pdas_iterate_ends_an_exact_attempt_that_revisits_a_set(loose):
    # free -> S1 -> S2 -> S1: a cycle of two sets.  An exact sweep's new sets
    # are a function of its sets, so the attempt ends at the revisit; a loose
    # sweep's depend on its warm start too, and only the sweep limit ends it
    n = 3
    free, S1, S2 = _sets(n), _sets(n, upper=[0]), _sets(n, lower=[1])
    script = {free.key(): S1, S1.key(): S2, S2.key(): S1}
    out = pdas._pdas_iterate(None, np.full(n, 0.5), _scripted_system(n, script), free,
                             1.0, PdasConfig(), _no_residual, loose=loose)
    assert not out.converged
    if loose:
        assert out.iters == PdasConfig.max_iters and out.cycle == 0
        assert out.cause == f"the active sets did not repeat within {out.iters} sweeps"
    else:
        assert out.iters == 3 and out.cycle == 2
        assert out.cause == "the active sets cycle through 2 sets"
        assert out.sets.same_as(S2)
    # a set that repeats at once is the fixed point, not a cycle
    script[S2.key()] = S2
    out = pdas._pdas_iterate(None, np.full(n, 0.5), _scripted_system(n, script), free,
                             1.0, PdasConfig(), _no_residual, loose=loose)
    assert out.converged and out.cause is None and out.cycle == 0
    assert out.iters == 3 + loose and out.sets.same_as(S2)


def test_local_obstacle_rejects_large_tau():
    params = ModelParams(mu=1e-4, L=0.0, D=1.0, beta=0.0)
    g = build_grid(1, 1 / 10, 0.0)
    with pytest.raises(ValueError, match="mu/tau"):
        local_obstacle_matrix(g, params, 1e-2, 0.1)


def test_local_obstacle_matrix_is_beta_zero_only():
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.05)
    g = build_grid(1, 1 / 12, 0.0)
    with pytest.raises(ValueError, match="beta = 0"):
        local_obstacle_matrix(g, params, TAU, 0.1)


def test_verify_complementarity_cases():
    n = 4
    assert verify_complementarity(np.ones(n), np.full(n, 0.3)) == 0.0
    assert verify_complementarity(np.full(n, 0.5), np.zeros(n)) == 0.0
    # hand-computed infeasible pair
    u = np.array([0.5, 1.2, -0.1])
    lam = np.array([0.2, 0.0, 0.0])
    # min(lam+, 1-u) at node 0: min(0.2, 0.5) = 0.2; bound violations 0.2/0.1
    assert verify_complementarity(u, lam) == pytest.approx(0.2)
    # an infinite multiplier at a node on its bound is not complementary
    assert verify_complementarity([1.0, 0.5], [np.inf, 0.0]) == np.inf
    assert verify_complementarity([0.5, 0.0], [0.0, -np.inf]) == np.inf


def test_infinite_multiplier_fails_complementarity():
    # m_prev = inf at a pinned corner node gives lambda = inf there; the
    # step starts from the bound pattern, which pins that node (from the
    # all-inactive estimate the infinite right-hand side reaches CG, which
    # raises)
    g, params, u_prev, m_prev = _band_step_2d()
    m_prev = m_prev.copy()
    m_prev[0] = np.inf
    res = _lo(g, params, 1e-4, 0.01, u_prev, m_prev, PdasConfig(),
              init_sets=sets_from_bounds(u_prev[g.interior_ids]))
    assert res.sets.upper[0] and res.u[0] == 1.0
    assert not verify_complementarity(res.u, res.lam) <= 1e-10


def _w_system(n_axis, inactive, dim=2, seed=0):
    """The ex3-scale w-equation on a local grid with n_axis nodes per axis."""
    g = build_grid(dim, 1.0 / (n_axis - 1), 0.0)
    solver = WSolver(g, w_matrix(g, CH_PARAMS.beta, TAU))
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
    assert len(solver.transfers) == {9: 0, 10: 0, 17: 1, 28: 1, 33: 2}[n_axis]
    for x0 in (np.zeros(g.n_interior), x_ref + 1e-3):
        x = solver.system(d)(b, x0, 1e-12)[0]
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _kron_transfers(n):
    """The 2D CSR transfers of the w-solve levels of n x n nodes: the
    prolongations P = P1 kron P1 and the restrictions R = P^T, coarsened as
    WSolver coarsens, from pdas._prolongation_1d alone."""
    P = []
    while n * n > pdas._COARSEST_NODES:
        P1 = pdas._prolongation_1d(n)
        P.append(sp.kron(P1, P1).tocsr())
        n = P1.shape[1]
    return P, [P_l.T.tocsr() for P_l in P]


def _csr_hierarchy(P, R, A_w, d):
    """The CSR oracle of the w-solve hierarchy: A_0 = A_w + diag(d) and each
    coarse level the Galerkin product R A_{l-1} P of the CSR level above."""
    A = [(A_w + sp.diags_array(d)).tocsr()]
    for P_l, R_l in zip(P, R):
        A.append((R_l @ A[-1] @ P_l).tocsr())
    return A


def _csr_vcycle(P, R, A):
    """pdas._VCycle's cycle on the CSR levels A: the reference preconditioner."""
    smooth = [pdas._JACOBI_DAMPING / A_l.diagonal() for A_l in A[:-1]]
    coarsest = cho_factor(A[-1].toarray())

    def apply(r):
        rhs, pre = [r], []
        for A_l, S, R_l in zip(A, smooth, R):
            x = S * rhs[-1]
            pre.append(x)
            rhs.append(R_l @ (rhs[-1] - A_l @ x))
        x = cho_solve(coarsest, rhs[-1])
        for l in reversed(range(len(P))):
            x = pre[l] + P[l] @ x
            x += smooth[l] * (rhs[l] - A[l] @ x)
        return x
    return apply


def _system_and_vcycle(monkeypatch, solver, d):
    """solver.system(d) and the _VCycle it built."""
    built = []

    class Recorded(pdas._VCycle):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(pdas, "_VCycle", Recorded)
    solve = solver.system(d)
    return solve, built[0]


@pytest.mark.parametrize("inactive", sorted(_INACTIVE_SETS))
@pytest.mark.parametrize("n_axis", [17, 28, 33])
def test_w_solver_2d_stencil_hierarchy_matches_csr_galerkin(n_axis, inactive, monkeypatch):
    # every level is a float32 DIA stencil: 5 diagonals on the fine level, 9
    # below, offsets ascending; the fine level is the double system rounded
    # once, and a coarse level the double Galerkin level (the CSR oracle)
    # within one float32 rounding
    g, solver, d, b, _ = _w_system(n_axis, _INACTIVE_SETS[inactive])
    A_w = sum_w_matrix(g, CH_PARAMS.beta, TAU)
    assert solver.A.format == "dia" and abs(solver.A - A_w).max() == 0.0
    _, vcycle = _system_and_vcycle(monkeypatch, solver, d)
    P, R = _kron_transfers(n_axis)
    galerkin = _csr_hierarchy(P, R, A_w, d)
    assert len(vcycle.A) == len(galerkin)
    for l, A_l in enumerate(vcycle.A):
        assert A_l.format == "dia" and A_l.dtype == np.float32
        assert A_l.offsets.size == (5 if l == 0 else 9) and np.all(np.diff(A_l.offsets) > 0)
    fine = (A_w + sp.diags_array(d)).astype(np.float32)
    assert abs(vcycle.A[0] - fine).max() == 0.0
    for A_l, ref in zip(vcycle.A[1:], galerkin[1:]):
        ref = ref.toarray()
        assert np.all(np.abs(A_l.toarray() - ref) <= 2.0**-23 * np.abs(ref))


@pytest.mark.parametrize("inactive", sorted(_INACTIVE_SETS))
@pytest.mark.parametrize("n_axis", [17, 28, 33])
def test_w_solver_2d_stencil_vcycle_matches_csr_vcycle(n_axis, inactive, monkeypatch):
    # the float32 cycle is the double CSR cycle to a few float32 roundings
    g, solver, d, b, _ = _w_system(n_axis, _INACTIVE_SETS[inactive])
    solve, vcycle = _system_and_vcycle(monkeypatch, solver, d)
    P, R = _kron_transfers(n_axis)
    A = _csr_hierarchy(P, R, w_matrix(g, CH_PARAMS.beta, TAU), d)
    reference = _csr_vcycle(P, R, A)
    r = np.random.default_rng(n_axis).standard_normal(g.n_interior)
    assert np.linalg.norm(vcycle(r) - reference(r)) <= 1e-6 * np.linalg.norm(reference(r))
    # CG takes the same iterations under either preconditioner
    for rtol in (pdas._SWEEP_RTOL, pdas._LIN_TOL):
        x0 = np.zeros(g.n_interior)
        _, iters = solve(b, x0, rtol)
        _, iters_csr = pdas._cg(A[0], b, x0, rtol, "CSR-preconditioned CG", M=reference)
        assert iters == iters_csr


@pytest.mark.parametrize("n_axis", [10, 33])
def test_w_solver_2d_hierarchy_is_single_and_its_solve_double(n_axis, monkeypatch):
    # the hierarchy is held and applied in float32; CG, its operator and
    # every vector they return are double, as is what the solver forms once
    # per run
    g, solver, d, b, _ = _w_system(n_axis, _INACTIVE_SETS["band"])
    solve, vcycle = _system_and_vcycle(monkeypatch, solver, d)
    assert len(vcycle.transfers) == {10: 0, 33: 2}[n_axis]
    single = [*vcycle.A, *vcycle.smooth, *(F for pair in vcycle.transfers for F in pair)]
    assert all(x.dtype == np.float32 for x in single)
    assert vcycle.coarsest(np.ones(vcycle.A[-1].shape[0], np.float32)).dtype == np.float32
    double = [solver.A, *solver.set_weights, *solver.coarse_A_w]
    assert all(x.dtype == np.float64 for x in double)
    r = np.random.default_rng(n_axis).standard_normal(g.n_interior)
    assert vcycle(r).dtype == np.float64
    calls = []
    _counting_cg(monkeypatch, calls)
    w, _ = solve(b, np.zeros(g.n_interior), pdas._LIN_TOL)
    assert w.dtype == np.float64 and (calls[0][0] @ r).dtype == np.float64


def test_w_solver_2d_system_keeps_no_copy_of_the_w_matrix(monkeypatch):
    # at the ex3 grid (209 nodes per axis) a held system keeps its float32
    # hierarchy and at most a few length-n double vectors: CG applies A_w +
    # diag(d) through A_w and d, without a double copy of A_w's diagonals;
    # building it sums each coarse level straight into its float32 array, so
    # its transient stays below one double coarse level
    g, solver, d, b, _ = _w_system(209, _INACTIVE_SETS["band"])
    built = []

    class Recorded(pdas._VCycle):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(pdas, "_VCycle", Recorded)
    tracemalloc.start()
    try:
        solve = solver.system(d)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (vcycle,) = built
    hierarchy = (sum(A_l.data.nbytes + A_l.offsets.nbytes for A_l in vcycle.A)
                 + sum(S.nbytes for S in vcycle.smooth) + upper_bands(vcycle.A[-1]).nbytes)
    assert callable(solve)
    assert kept <= hierarchy + 2 * d.nbytes < hierarchy + solver.A.data.nbytes
    assert peak - kept < solver.coarse_A_w[0].data.nbytes


def test_w_solver_2d_single_vcycle_keeps_cg_iterations_at_ex3_size(monkeypatch):
    # at the ex3 grid (209 nodes per axis) CG meets both sweep tolerances in
    # as many iterations under the float32 cycle as under the double CSR one,
    # from zero and, refined, from the loose iterate
    g, solver, d, b, _ = _w_system(209, _INACTIVE_SETS["band"])
    solve = solver.system(d)
    P, R = _kron_transfers(209)
    A = _csr_hierarchy(P, R, w_matrix(g, CH_PARAMS.beta, TAU), d)
    reference = _csr_vcycle(P, R, A)
    zero = np.zeros(g.n_interior)
    loose, _ = solve(b, zero, pdas._SWEEP_RTOL)
    for x0, rtol in ((zero, pdas._SWEEP_RTOL), (zero, pdas._LIN_TOL), (loose, pdas._LIN_TOL)):
        _, iters = solve(b, x0, rtol)
        _, iters_csr = pdas._cg(A[0], b, x0, rtol, "CSR-preconditioned CG", M=reference)
        assert iters == iters_csr


def test_w_solver_2d_indefinite_coarsest_level_raises():
    # the coarsest band factor has no fallback
    g, solver, d, b, _ = _w_system(17, _INACTIVE_SETS["all-inactive"])
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        solver.system(-d)


def test_w_solver_2d_nonfinite_diagonal_raises_when_the_system_is_built():
    # a NaN in d reaches the coarsest level, whose band factor refuses it,
    # before any CG iteration is spent on the system
    g, solver, d, b, _ = _w_system(17, _INACTIVE_SETS["band"])
    d[np.flatnonzero(d)[0]] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solver.system(d)


@pytest.mark.parametrize("n_axis", [17, 28, 33, 209])
def test_w_solver_2d_composite_prolongations_are_exact(n_axis):
    # Q_l = P1_0 ... P1_{l-1} has dyadic entries, at most two adjacent ones
    # per row, so the set weights W_s[i, I] = Q_l[i, I] Q_l[i, I + s] that
    # the solver holds are exact
    g = build_grid(2, 1.0 / (n_axis - 1), 0.0)
    solver = WSolver(g, w_matrix(g, CH_PARAMS.beta, TAU))
    assert len(solver.set_weights) == len(solver.transfers) > 0
    Q = np.eye(n_axis)
    odd = n_axis % 2 == 1  # every axis above this level odd: no copy rule
    for l, ((P1, P1T), S) in enumerate(zip(solver.transfers, solver.set_weights), 1):
        assert abs(P1T - P1.T).max() == 0.0
        Q = Q @ P1.toarray()
        assert np.array_equal(Q, np.linalg.multi_dot([np.eye(n_axis)] + [
            P.toarray() for P, _ in solver.transfers[:l]]))
        for row in Q:
            cols = np.flatnonzero(row)
            assert 1 <= cols.size <= 2 and cols[-1] - cols[0] == cols.size - 1
        m = Q.shape[1]
        if odd:  # linear functions are interpolated exactly
            assert np.array_equal(Q @ (2.0**l * np.arange(m)), np.arange(n_axis))
        odd = odd and m % 2 == 1
        W = np.vstack([(Q * Q).T, (Q[:, :-1] * Q[:, 1:]).T])
        assert S.shape == (2 * m - 1, n_axis) and np.array_equal(S.toarray(), W)


@pytest.mark.parametrize("n_axis", [17, 28, 33])
def test_w_solver_2d_per_axis_transfers_match_kronecker(n_axis):
    g = build_grid(2, 1.0 / (n_axis - 1), 0.0)
    solver = WSolver(g, w_matrix(g, CH_PARAMS.beta, TAU))
    P, R = _kron_transfers(n_axis)
    assert len(solver.transfers) == len(P)
    rng = np.random.default_rng(n_axis)
    for (P1, P1T), P_l, R_l in zip(solver.transfers, P, R):
        x, r = rng.standard_normal(P_l.shape[1]), rng.standard_normal(P_l.shape[0])
        for F, v, kron in ((P1, x, P_l), (P1T, r, R_l)):
            ref = kron @ v
            assert np.abs(pdas._tensor_apply(F, v) - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("n_axis", [17, 28, 33, 209])
def test_w_solver_2d_holds_no_kronecker_transfer(n_axis):
    # the operators are DIA stencils (5 diagonals, 9 on the coarse levels);
    # every other sparse matrix the solver keeps is per axis
    g = build_grid(2, 1.0 / (n_axis - 1), 0.0)
    solver = WSolver(g, w_matrix(g, CH_PARAMS.beta, TAU))

    def leaves(value):
        if isinstance(value, (tuple, list)):
            for v in value:
                yield from leaves(v)
        else:
            yield value

    held = [v for v in leaves(list(vars(solver).values())) if sp.issparse(v)]
    stencils = [solver.A, *solver.coarse_A_w]
    assert len(held) == len(stencils) + 3 * len(solver.transfers)
    for M in held:
        if any(M is A for A in stencils):
            assert M.format == "dia" and M.offsets.size == (5 if M is solver.A else 9)
        else:
            assert M.shape[0] <= n_axis, M.shape


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
    assert solver.transfers == ()
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


def test_ch_2d_step_builds_one_hierarchy_per_set_and_frees_each(monkeypatch):
    # the driver builds a sweep's system once per new set of active sets,
    # after dropping the previous one, and a refinement reuses it: one
    # hierarchy is alive at a time, and none outlives the step
    built, alive_at_build, calls = [], [], []

    class Recorded(pdas._VCycle):
        def __init__(self, *args):
            alive_at_build.append(sum(ref() is not None for ref in built))
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(pdas, "_VCycle", Recorded)
    _counting_cg(monkeypatch, calls)
    g, stn, params, u_prev, m_prev = _band_step_CH_2d()
    w_solver = WSolver(g, w_matrix(g, params.beta, 1e-4))
    gc.disable()
    try:
        res = pdas_step_CH(g, stn, params, 1e-4, u_prev, m_prev, PdasConfig(), w_solver)
        refinements = sum(rtol == pdas._LIN_TOL for *_, rtol in calls)
        assert res.converged and refinements >= 1 and len(built) >= 2
        assert len(built) == res.iters - refinements
        assert alive_at_build == [0] * len(built)
        assert all(ref() is None for ref in built)
    finally:
        gc.enable()


def test_local_obstacle_2d_refinement_reuses_its_sweep_matrix(monkeypatch):
    g, params, u_prev, m_prev = _band_step_2d()
    calls = []
    _counting_cg(monkeypatch, calls)
    res = _lo(g, params, 1e-4, 0.01, u_prev, m_prev, PdasConfig())
    refined = [i for i, (*_, rtol) in enumerate(calls) if rtol == pdas._LIN_TOL]
    assert res.converged and refined and refined[0] > 0
    for i in refined:
        assert calls[i - 1][-1] == pdas._SWEEP_RTOL
        assert calls[i][0] is calls[i - 1][0]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_cells", [1, 2, 7, 30])
def test_fixed_matrices_are_the_sparse_sums_entry_for_entry(dim, n_cells):
    # scaled on the stiffness's diagonals, the w-equation matrix (DIA) and
    # the local obstacle matrix (CSR) hold the entries of the sparse sums
    # over the Kronecker-sum stiffness, bit for bit
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    for delta in (0.0, 0.1):
        g = build_grid(dim, 1.0 / n_cells, delta)
        K = mass_plus_stiffness(g, 0.0, 1.0)
        A_w, ref = w_matrix(g, CH_PARAMS.beta, TAU), sum_w_matrix(g, CH_PARAMS.beta, TAU)
        assert A_w.format == "dia" and np.array_equal(A_w.offsets, K.offsets)
        assert np.array_equal(A_w.toarray(), ref.toarray())
        assert_same_entries(A_w.tocsr(), ref)
        A = local_obstacle_matrix(g, params, TAU, 0.3)
        ref = sum_local_obstacle_matrix(g, params, TAU, 0.3)
        assert A.format == "csr" and np.array_equal(A.toarray(), ref.toarray())
        assert_same_entries(A, ref)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_cells", [1, 2, 7, 30])
def test_exact_solver_inverts_the_w_matrix(dim, n_cells):
    # the fixed w-equation matrix tau (M + beta K), solved exactly: the
    # product with the Hessian of a projected-Newton line search, reachable
    # from pdas (delta = 0.1: a grid with a layer)
    g = build_grid(dim, 1.0 / n_cells, 0.1)
    A_w = w_matrix(g, CH_PARAMS.beta, TAU)
    solve = exact_solver(g, TAU, TAU * CH_PARAMS.beta)
    r = np.random.default_rng(10 * n_cells + dim).standard_normal(g.n_interior)
    ref = np.linalg.solve(A_w.toarray(), r)
    assert np.abs(solve(r) - ref).max() <= 1e-13 * np.abs(ref).max()


def _spd_system(n, seed):
    rng = np.random.default_rng(seed)
    B = sp.random_array((n, n), density=0.2, rng=rng, format="csr")
    A = (B @ B.T + sp.diags_array(rng.uniform(0.5, 2.0, n))).tocsr()
    return A, rng.standard_normal(n), rng


@pytest.mark.parametrize("precondition", [False, True], ids=["M=None", "M=Jacobi"])
@pytest.mark.parametrize("start", ["none", "zero", "nonzero"])
@pytest.mark.parametrize("n", [1, 6, 40])
def test_cg_is_scipys_iteration_bit_for_bit(n, start, precondition):
    # the same iterates, iteration count and info as scipy.sparse.linalg.cg,
    # to convergence and stopped at maxiter
    A, b, rng = _spd_system(n, 100 * n + len(start))
    x0 = {"none": None, "zero": np.zeros(n), "nonzero": rng.standard_normal(n)}[start]
    x0_before = None if x0 is None else x0.copy()
    diagonal = A.diagonal()

    def jacobi(r):
        return r / diagonal

    M_ours = jacobi if precondition else None
    M_scipy = LinearOperator(A.shape, matvec=jacobi, dtype=float) if precondition else None
    stops = set()
    for rtol, maxiter in ((1e-10, None), (1e-15, 3)):
        ours, theirs = [], []
        x, info = pdas.cg(A, b, x0, rtol=rtol, maxiter=maxiter, M=M_ours,
                          callback=lambda xk: ours.append(xk.copy()))
        x_ref, info_ref = scipy_cg(A, b, x0, rtol=rtol, maxiter=maxiter, M=M_scipy,
                                   callback=lambda xk: theirs.append(xk.copy()))
        assert np.array_equal(x, x_ref) and info == info_ref
        assert len(ours) == len(theirs) and all(map(np.array_equal, ours, theirs))
        stops.add(info)
    assert x0 is None or np.array_equal(x0, x0_before)
    if n == 40:
        assert stops == {0, 3}  # converged, and stopped at maxiter
    # b = 0: the zero solution at once, as scipy returns it
    x, info = pdas.cg(A, np.zeros(n), x0, rtol=1e-10, M=M_ours)
    assert info == 0 and not x.any()


def test_cg_is_scipys_iteration_on_the_multigrid_w_system(monkeypatch):
    # the operator and V-cycle that the 2D w-solve hands to CG, through both
    # iterations
    g, solver, d, b, _ = _w_system(17, _INACTIVE_SETS["band"])
    solve, vcycle = _system_and_vcycle(monkeypatch, solver, d)
    cg, calls = pdas.cg, []
    _counting_cg(monkeypatch, calls)
    solve(b, np.zeros(g.n_interior), pdas._LIN_TOL)
    A = calls[0][0]
    shape = (g.n_interior,) * 2
    for x0 in (np.zeros(g.n_interior), np.full(g.n_interior, 0.1)):
        x, info = cg(A, b, x0, rtol=1e-12, maxiter=500, M=vcycle)
        x_ref, info_ref = scipy_cg(LinearOperator(shape, matvec=A.__matmul__, dtype=float),
                                   b, x0, rtol=1e-12, maxiter=500,
                                   M=LinearOperator(shape, matvec=vcycle, dtype=float))
        assert info == info_ref == 0 and np.array_equal(x, x_ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_implicit_sweep_matrix_is_the_product_form_entry_for_entry(dim):
    # the active phase rows replaced by scaling B's data per row equal
    # diag(keep) B + diag(1 - keep) E: the same sparsity, no explicit zeros
    g, spec, stn = _setup(n_cells=9 if dim == 1 else 6, dim=dim)
    w_solver = WSolver(g, w_matrix(g, CH_PARAMS.beta, TAU))
    B = coupled_matrix(g, stn, CH_PARAMS, w_solver)
    with_zero = B.copy()
    with_zero.data[np.flatnonzero(with_zero.data)[[0, -1]]] = 0.0  # explicit zeros
    rng = np.random.default_rng(dim)
    for inactive in (np.ones(g.n_interior, dtype=bool), np.zeros(g.n_interior, dtype=bool),
                     rng.random(g.n_interior) < 0.5):
        for matrix in (B, with_zero):
            A = pdas._select_phase_rows(matrix, inactive)
            ref = phase_rows_by_products(matrix, inactive)
            assert A.has_canonical_format and np.all(A.data != 0.0)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(A, name), getattr(ref, name)), name
