import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpf.grid import build_grid
from nlpf.kernel import KernelSpec
from nlpf.nonlocal_ops import build_stencil
from nlpf.physics import (
    ModelParams,
    coupling_m,
    greens_dual_norm,
    objective_Jk,
    regular_potential_dF,
)
from nlpf.stepper import exact_solver
from oracles import dense_conv_matrix

PARAMS = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0, alpha=0.9, rho=20.0,
                     theta_e=1.0)


def test_coupling_zero_at_equilibrium():
    assert coupling_m(PARAMS, PARAMS.theta_e) == 0.0


def test_coupling_supremum():
    assert coupling_m(PARAMS, -1e12) == pytest.approx(0.45, rel=1e-6)
    assert coupling_m(PARAMS, 1e12) == pytest.approx(-0.45, rel=1e-6)


def test_coupling_reference_value():
    # (0.9/pi) * arctan(20) at theta = 0, theta_e = 1
    expected = (0.9 / math.pi) * math.atan(20.0)
    assert coupling_m(PARAMS, 0.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.43569, abs=1e-5)


@settings(max_examples=80, deadline=None)
@given(theta=st.floats(-1e6, 1e6), alpha=st.floats(0.05, 0.99))
def test_coupling_bounded_below_half(theta, alpha):
    p = ModelParams(mu=1.0, L=0.0, D=1.0, alpha=alpha)
    assert abs(coupling_m(p, theta)) <= alpha / 2 < 0.5


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-50, 50), b=st.floats(-50, 50))
def test_coupling_lipschitz_bound(a, b):
    lip = PARAMS.alpha * PARAMS.rho / math.pi
    assert abs(coupling_m(PARAMS, a) - coupling_m(PARAMS, b)) <= lip * abs(a - b) + 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mu=0.0, L=0.0, D=1.0)
    with pytest.raises(ValueError):
        ModelParams(mu=1.0, L=0.0, D=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        ModelParams(mu=1.0, L=0.0, D=1.0, beta=-0.1)
    with pytest.raises(ValueError):
        ModelParams(mu=1.0, L=0.0, D=1.0, c_F=0.0)


def test_regular_potential_critical_points():
    for m in (-0.4, 0.0, 0.4):
        assert regular_potential_dF(0.0, m) == 0.0
        assert regular_potential_dF(1.0, m) == 0.0
    assert regular_potential_dF(0.5, 0.0) == 0.0


def test_regular_potential_matches_finite_differences():
    def F(u, m):
        return 0.25 * u**2 * (1 - u) ** 2 + m * (u**3 / 3.0 - u**2 / 2.0)

    step = 1e-6
    for u, m in ((0.3, 0.2), (0.8, -0.35), (-0.2, 0.1), (1.4, 0.05)):
        fd = (F(u + step, m) - F(u - step, m)) / (2 * step)
        assert regular_potential_dF(u, m) == pytest.approx(fd, abs=1e-9)


def test_greens_dual_norm_basics():
    g = build_grid(1, 1 / 32, 0.0)
    solve = exact_solver(g, 1.0, 0.37)
    assert greens_dual_norm(g, np.zeros(g.n_interior), solve) == 0.0
    ones = np.ones(g.n_interior)
    lumped = np.dot(g.mass_interior * ones, ones)
    assert lumped == pytest.approx(1.0)
    # constants are in the stiffness null space: beta > 0 gives the lumped L2 value
    assert greens_dual_norm(g, ones, solve) == pytest.approx(lumped, rel=1e-12)


def test_greens_dual_norm_contraction():
    g = build_grid(1, 1 / 24, 0.0)
    solve = exact_solver(g, 1.0, 0.5)
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.standard_normal(g.n_interior)
        assert greens_dual_norm(g, v, solve) <= np.dot(g.mass_interior * v, v) + 1e-12


def _dense_objective(grid, W, params, tau, u, u_prev, m_prev):
    """Hand computation of the per-step objective on a small grid."""
    ids = grid.interior_ids
    m = grid.lumped_mass
    c_h = W @ np.ones(grid.n_nodes)
    e_nl = 0.5 * float(m @ (u * (c_h * u - W @ u)))
    uI = u[ids]
    c_F = params.c_F
    e_pot = float(
        (m[ids] * (-0.5 * c_F * uI**2 + (0.5 * c_F - c_F * m_prev) * uI)).sum()
    )
    d = uI - u_prev[ids]
    e_t = params.mu / (2 * tau) * float((m[ids] * d) @ d)  # beta = 0
    return e_nl + e_pot + e_t


def test_objective_vanishes_at_rest():
    g = build_grid(1, 1 / 5, 0.45)
    spec = KernelSpec(0.8, 0.45, 1)
    stn = build_stencil(g, spec)
    zero = np.zeros(g.n_nodes)
    green = exact_solver(g, 1.0, PARAMS.beta)
    val = objective_Jk(g, stn, PARAMS, 1e-3, zero, zero, np.zeros(g.n_interior), green)
    assert val == 0.0


def test_objective_difference_matches_dense_hand_computation():
    g = build_grid(1, 1 / 5, 0.45)  # 6 interior nodes
    spec = KernelSpec(0.8, 0.45, 1)
    stn = build_stencil(g, spec)
    W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon, spec.delta, 1)
    rng = np.random.default_rng(21)
    u_prev = rng.random(g.n_nodes)
    u1 = rng.random(g.n_nodes)
    u2 = rng.random(g.n_nodes)
    m_prev = rng.uniform(-0.4, 0.4, g.n_interior)
    tau = 2e-3
    green = exact_solver(g, 1.0, PARAMS.beta)  # beta = 0: M^-1
    got = objective_Jk(g, stn, PARAMS, tau, u1, u_prev, m_prev, green) - objective_Jk(
        g, stn, PARAMS, tau, u2, u_prev, m_prev, green
    )
    ref = _dense_objective(g, W, PARAMS, tau, u1, u_prev, m_prev) - _dense_objective(
        g, W, PARAMS, tau, u2, u_prev, m_prev
    )
    assert got == pytest.approx(ref, abs=1e-12)
