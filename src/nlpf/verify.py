"""Oracles and desk-scale self-verification.

The oracles recompute what the solvers compute through independent routes:
the kernel written out as a polynomial, dense matrices built from
coordinates instead of stencils, exhaustive 3^N active-set enumeration
instead of the active-set iteration, and the nonlocal AC projection iterated
as an active-set loop instead of evaluated in closed form.  Sizes are
deliberately tiny.  ``run_all_checks`` (the ``verify`` CLI command) and the
test suite both use them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .grid import assemble_stiffness, build_grid
from .kernel import (KernelSpec, c_gamma_closed_form, c_gamma_quadrature,
                     second_moment_check, xi)
from .nonlocal_ops import apply_Bh, build_stencil, conv_rows, convolve, exterior_closure
from .pdas import (PdasConfig, StepOut, WSolver, _pdas_iterate, local_obstacle_matrix,
                   pdas_step_CH, pdas_step_local_obstacle, sets_from_bounds, w_matrix)
from .physics import ModelParams, coupling_m
from .stepper import NonlocalACStep

__all__ = [
    "Check", "run_all_checks", "gamma_poly", "trapezoid_masses",
    "dense_conv_matrix", "dense_stiffness_1d", "enumerate_CH_explicit",
    "enumerate_CH_implicit", "enumerate_local_obstacle", "pdas_step_AC_nonlocal",
]

EX1_KERNEL = KernelSpec(epsilon=0.02, delta=0.1540, dim=1)
EX3_KERNEL = KernelSpec(epsilon=0.01, delta=0.0826, dim=2)


def gamma_poly(r, eps, delta, dim):
    """The polynomial kernel written out directly."""
    if dim == 1:
        C = 15.0 / (2.0 * delta**3)
    elif dim == 2:
        C = 24.0 / (math.pi * delta**4)
    else:
        raise ValueError(dim)
    return eps**2 * C * np.maximum(0.0, 1.0 - (np.asarray(r) / delta) ** 2)


def trapezoid_masses(n_axis, h, dim):
    """Tensor trapezoidal weights of the extended domain, from scratch."""
    w = np.full(n_axis, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    if dim == 1:
        return w
    return np.outer(w, w).ravel()


def dense_conv_matrix(coords, masses, eps, delta, dim):
    """Dense matrix of gamma(|x_i - x_j|) * m_j."""
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return gamma_poly(dist, eps, delta, dim) * masses[None, :]


def dense_stiffness_1d(n, h):
    K = np.zeros((n, n))
    for e in range(n - 1):
        K[e, e] += 1.0 / h
        K[e + 1, e + 1] += 1.0 / h
        K[e, e + 1] -= 1.0 / h
        K[e + 1, e] -= 1.0 / h
    return K


def _first_feasible(n, solve):
    """Exhaustive KKT search: the first feasible of all 3^n active-set guesses.

    ``solve(lower, inact, upper)`` solves the dense linear system of one
    {lower, inactive, upper} assignment and returns (u, lam, result);
    feasible means u in [0, 1] where inactive, lam >= 0 on the upper and
    lam <= 0 on the lower set (to 1e-9).
    """
    tol = 1e-9
    for assign in itertools.product((0, 1, 2), repeat=n):
        assign = np.array(assign)
        lower, inact, upper = assign == 0, assign == 1, assign == 2
        try:
            u, lam, result = solve(lower, inact, upper)
        except np.linalg.LinAlgError:
            continue
        lam[inact] = 0.0
        if (np.all(u[inact] >= -tol) and np.all(u[inact] <= 1.0 + tol)
                and np.all(lam[upper] >= -tol) and np.all(lam[lower] <= tol)):
            return result
    raise RuntimeError("no feasible assignment")


def enumerate_CH_explicit(grid, W, params, tau, u_prev, m_prev, K_dense):
    """All 3^N active-set assignments of the explicit-convolution CH step.

    Unknowns [u_int, w]; returns the feasible (u_int, w, lam).
    """
    ids = grid.interior_ids
    n = grid.n_interior
    mI = grid.lumped_mass[ids]
    c_F = params.c_F
    c_h = (W @ np.ones(grid.n_nodes))[ids]
    xi_vec = c_h - c_F
    q = (W @ u_prev)[ids] + c_F * m_prev - 0.5 * c_F
    Aw = tau * (np.diag(mI) + params.beta * K_dense)

    def solve(lower, inact, upper):
        A = np.zeros((2 * n, 2 * n))
        b = np.zeros(2 * n)
        for j in range(n):
            if inact[j]:
                A[j, j] = xi_vec[j]
                A[j, n + j] = -1.0
                b[j] = q[j]
            else:
                A[j, j] = 1.0
                b[j] = 1.0 if upper[j] else 0.0
        A[n:, :n] = params.mu * np.diag(mI)
        A[n:, n:] = Aw
        b[n:] = params.mu * mI * u_prev[ids]
        x = np.linalg.solve(A, b)
        u, w = x[:n], x[n:]
        lam = q + w - xi_vec * u
        return u, lam, (u, w, lam)

    return _first_feasible(n, solve)


def enumerate_CH_implicit(grid, W, params, tau, u_prev, m_prev, K_dense):
    """Exhaustive solve of the fully coupled CH step (implicit convolution).

    Unknowns [u_int, u_ext, w] with the exterior flux rows included; returns
    the feasible (u_int, u_ext, w, lam).
    """
    ids = grid.interior_ids
    ext = grid.exterior_ids
    n, ne = grid.n_interior, ext.size
    mI = grid.lumped_mass[ids]
    c_F = params.c_F
    c_h = W @ np.ones(grid.n_nodes)
    xi_vec = c_h[ids] - c_F
    W_II = W[np.ix_(ids, ids)]
    W_IE = W[np.ix_(ids, ext)]
    W_EI = W[np.ix_(ext, ids)]
    W_EE = W[np.ix_(ext, ext)]
    Aw = tau * (np.diag(mI) + params.beta * K_dense)
    N = 2 * n + ne

    def solve(lower, inact, upper):
        A = np.zeros((N, N))
        b = np.zeros(N)
        # w rows
        A[:n, :n] = params.mu * np.diag(mI)
        A[:n, n + ne :] = Aw
        b[:n] = params.mu * mI * u_prev[ids]
        # phase rows
        for j in range(n):
            r = n + j
            if inact[j]:
                A[r, :n] = -W_II[j]
                A[r, j] += xi_vec[j]
                A[r, n : n + ne] = -W_IE[j]
                A[r, n + ne + j] = -1.0
                b[r] = c_F * m_prev[j] - 0.5 * c_F
            else:
                A[r, j] = 1.0
                b[r] = 1.0 if upper[j] else 0.0
        # exterior flux rows
        for j in range(ne):
            r = 2 * n + j
            A[r, :n] = -W_EI[j]
            A[r, n : n + ne] = -W_EE[j]
            A[r, n + j] += c_h[ext[j]]
        x = np.linalg.solve(A, b)
        u, u_e, w = x[:n], x[n : n + ne], x[n + ne :]
        lam = W_II @ u + W_IE @ u_e + w + c_F * m_prev - 0.5 * c_F - xi_vec * u
        return u, lam, (u, u_e, w, lam)

    return _first_feasible(n, solve)


def enumerate_local_obstacle(grid, params, tau, eps, u_prev, m_prev, K_dense):
    """All 3^N assignments of the beta = 0 local obstacle step; returns (u, lam)."""
    ids = grid.interior_ids
    mI = grid.lumped_mass[ids]
    c_F = params.c_F
    r_t = params.mu / tau
    A0 = np.diag((r_t - c_F) * mI) + eps**2 * K_dense
    b0 = mI * (r_t * u_prev[ids] - 0.5 * c_F + c_F * m_prev)

    def solve(lower, inact, upper):
        A = A0.copy()
        b = b0.copy()
        for j in np.flatnonzero(~inact):
            A[j, :] = 0.0
            A[j, j] = 1.0
            b[j] = 1.0 if upper[j] else 0.0
        u = np.linalg.solve(A, b)
        lam = (b0 - A0 @ u) / mI
        return u, lam, (u, lam)

    return _first_feasible(grid.n_interior, solve)


def pdas_step_AC_nonlocal(grid, stencil, params, tau, u_prev, m_prev, config,
                          init_sets=None) -> StepOut:
    """beta = 0 nonlocal step via the active-set loop (explicit convolution).

    The rows are diagonal in u, so this is equivalent to the closed-form
    projection of ``stepper.NonlocalACStep``; it is the independently
    iterated route that the projection is checked against.
    """
    ids = grid.interior_ids
    c_F = params.c_F
    r = params.mu / tau
    denom = r + (stencil.c_gamma_h[ids] - c_F)
    u_prev = np.asarray(u_prev, dtype=float)
    conv_prev = convolve(stencil, u_prev)
    u_E = exterior_closure(stencil, conv_prev)
    g = r * u_prev[ids] + conv_prev[ids] + c_F * np.asarray(m_prev) - 0.5 * c_F
    if init_sets is None:
        init_sets = sets_from_bounds(u_prev[ids])
    c_eff = config.c_penalty * (float(denom.max()) + 1.0)

    def solve_for_sets(upper, lower):
        inactive = ~(upper | lower)
        u_I = np.where(inactive, g / denom, upper.astype(float))
        lam = np.where(inactive, 0.0, g - denom * u_I)
        return u_I, u_E, None, lam

    return _pdas_iterate(grid, solve_for_sets, init_sets, c_eff, config.max_iters)


# --------------------------------------------------------------------------
# desk-scale checks


@dataclass
class Check:
    name: str
    value: float
    tol: float
    ok: bool
    detail: str = ""


def _check(name, value, tol, detail="") -> Check:
    return Check(name=name, value=float(value), tol=tol, ok=bool(value <= tol),
                 detail=detail)


def _dense_W(grid, spec):
    return dense_conv_matrix(grid.coords(), grid.lumped_mass, spec.epsilon,
                             spec.delta, spec.dim)


def run_all_checks() -> list:
    checks = []
    specs = [
        EX1_KERNEL,
        EX3_KERNEL,
        KernelSpec(epsilon=1.0, delta=1.0, dim=1),
        KernelSpec(epsilon=0.31, delta=0.07, dim=2),
    ]

    for spec in specs:
        closed = c_gamma_closed_form(spec)
        quad = c_gamma_quadrature(spec)
        rel = abs(closed - quad) / closed
        checks.append(_check(
            f"c_gamma closed-form vs quadrature (eps={spec.epsilon:g}, "
            f"delta={spec.delta:g}, n={spec.dim})", rel, 1e-8,
            f"closed = {closed:.10g}, quadrature = {quad:.10g}"))
        checks.append(_check(
            f"second moment = 2n eps^2 (eps={spec.epsilon:g}, "
            f"delta={spec.delta:g}, n={spec.dim})",
            second_moment_check(spec), 1e-8))

    xi1 = xi(EX1_KERNEL, 1.0 / 6.0)
    checks.append(_check("xi(ex1 kernel) = 0.002 +- 5e-5", abs(xi1 - 0.002), 5e-5,
                         f"xi = {xi1:.6g}"))
    xi3 = xi(EX3_KERNEL, 1.0 / 6.0)
    checks.append(_check("xi(ex3 kernel) = 0.0093 +- 2e-4", abs(xi3 - 0.0093), 2e-4,
                         f"xi = {xi3:.6g}"))

    # Stencil consistency and dense-oracle agreement, 1D and 2D.
    rng = np.random.default_rng(7)
    for dim, h in ((1, 1.0 / 48), (2, 1.0 / 9)):
        spec = KernelSpec(epsilon=0.5, delta=3.4 * h, dim=dim)
        grid = build_grid(dim, h, spec.delta)
        stencil = build_stencil(grid, spec)
        cons = max(float(np.abs(apply_Bh(stencil, np.full(grid.n_nodes, c))).max())
                   for c in (1.0, -0.37, 2.9e3, 1e-7))
        checks.append(_check(f"FFT convolution exact on constants: B_h c == 0 ({dim}D)",
                             cons, 0.0, "c = 1, -0.37, 2.9e3, 1e-7"))
        u = rng.random(grid.n_nodes)
        err = np.abs(convolve(stencil, u) - _dense_W(grid, spec) @ u).max()
        checks.append(_check(f"stencil convolution vs dense matrix ({dim}D)",
                             err, 1e-12))

    # Multigrid-preconditioned CG w-solve vs a sparse direct solve (2D).
    params = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02)
    tau = 3e-4
    grid = build_grid(2, 1.0 / 32, 0.0)
    solver = WSolver(grid, w_matrix(grid, assemble_stiffness(grid), params.beta, tau))
    r = np.hypot(*(grid.coords() - 0.5).T)
    d = np.where(np.abs(r - 0.3) <= 1.5 * grid.h, params.mu * grid.mass_interior / 0.0093,
                 0.0)
    b = grid.mass_interior * np.random.default_rng(11).standard_normal(grid.n_interior)
    ref = spsolve((solver.A + sp.diags_array(d)).tocsc(), b)
    got = solver.solve(d, b, np.zeros(grid.n_interior), PdasConfig().lin_tol)
    checks.append(_check(
        f"2D multigrid-CG w-solve vs sparse direct solve ({grid.n_interior} nodes, "
        f"{len(solver.prolongations) + 1} levels)",
        np.linalg.norm(got - ref) / np.linalg.norm(ref), 1e-10, "relative error"))

    # 2D local-obstacle step: its CG sweeps vs the last sweep solved directly.
    lo = ModelParams(mu=0.0003, L=0.5, D=1.0, beta=0.0, alpha=0.9, rho=10.0)
    lo_tau, lo_eps = 1e-4, 0.01
    A = local_obstacle_matrix(grid, assemble_stiffness(grid), lo, lo_tau, lo_eps)
    u_prev = np.clip((r - 0.3) / (4 * grid.h) + 0.5, 0.0, 1.0)
    m_prev = coupling_m(lo, np.full(grid.n_interior, 0.5))
    res = pdas_step_local_obstacle(grid, lo, lo_tau, A, u_prev, m_prev, PdasConfig())
    b = grid.mass_interior * (lo.mu / lo_tau * u_prev - 0.5 * lo.c_F + lo.c_F * m_prev)
    idx = np.flatnonzero(~(res.sets.upper | res.sets.lower))
    ref = spsolve(A[idx][:, idx].tocsc(),
                  (b - A @ res.sets.upper.astype(float))[idx])
    checks.append(_check(
        f"2D local-obstacle CG sweep vs sparse direct solve ({idx.size} of "
        f"{grid.n_interior} nodes inactive)",
        np.linalg.norm(res.u[idx] - ref) / np.linalg.norm(ref), 1e-10, "relative error"))

    # Fast projection path vs active-set route (beta = 0).
    params0 = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    h = 1.0 / 24
    spec = KernelSpec(epsilon=0.05, delta=3.2 * h, dim=1)
    grid = build_grid(1, h, spec.delta)
    stencil = build_stencil(grid, spec)
    ac = NonlocalACStep(grid, stencil, params0, 3e-4)
    cfg = PdasConfig()
    worst = 0.0
    for _ in range(20):
        u_prev = np.clip(rng.random(grid.n_nodes), 0.0, 1.0)
        theta_prev = rng.normal(scale=0.5, size=grid.n_interior) + 1.0
        res = pdas_step_AC_nonlocal(
            grid, stencil, params0, 3e-4, u_prev,
            coupling_m(params0, theta_prev), cfg)
        worst = max(worst, float(np.abs(ac.step(u_prev, theta_prev).u - res.u).max()))
    checks.append(_check("AC projection fast path vs active-set route", worst,
                         1e-10, "20 random steps"))

    # Constrained CH step, both convolution modes, vs exhaustive enumeration.
    for mode, h in (("explicit", 1.0 / 5), ("implicit", 1.0 / 4)):
        spec = KernelSpec(epsilon=0.35, delta=2.6 * h, dim=1)
        grid = build_grid(1, h, spec.delta)
        stencil = build_stencil(grid, spec)
        u_prev = np.clip(rng.random(grid.n_nodes), 0.0, 1.0)
        m_prev = rng.uniform(-0.4, 0.4, grid.n_interior)
        W = conv_rows(stencil, np.arange(grid.n_nodes)) if mode == "implicit" else None
        w_solver = WSolver(grid, w_matrix(grid, assemble_stiffness(grid), params.beta, tau))
        res = pdas_step_CH(grid, stencil, params, tau, u_prev, m_prev,
                           PdasConfig(convolution_mode=mode), w_solver, W)
        oracle = enumerate_CH_explicit if mode == "explicit" else enumerate_CH_implicit
        u_ref = oracle(grid, _dense_W(grid, spec), params, tau, u_prev, m_prev,
                       dense_stiffness_1d(grid.n_interior, grid.h))[0]
        err = np.abs(res.u[grid.interior_ids] - u_ref).max()
        checks.append(_check(
            f"CH active-set solve ({mode} convolution) vs exhaustive enumeration "
            f"({grid.n_interior} nodes)", err, 1e-9))
    return checks
