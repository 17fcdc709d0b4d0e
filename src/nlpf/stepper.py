"""IMEX time loop: one phase step, then one backward-Euler temperature solve.

Per step k the phase field is advanced first using the previous temperature
through the explicitly-lagged coupling m(theta^{k-1}) (the system is
triangular: u^k depends on theta^{k-1} only, theta^k on u^k), then the
temperature solves

    (M + tau D K) theta^k = M theta^{k-1} + L M (u^k - u^{k-1}),

which conserves the discrete enthalpy sum m_j (theta_j - L u_j) exactly.

Each variant's phase update is a step object with one interface,
``step(u, theta) -> StepOut``.  ``run`` builds it once per run, together with
the operators, solvers and active-set warm start it owns; the time
loop does not branch on the variant.

  NonlocalCHStep     nonlocal_CH: active-set solve of the coupled (u, w)
                     system (beta > 0)
  NonlocalACStep     nonlocal_AC: direct nodal projection, no solve
  LocalObstacleStep  local_obstacle: active-set solve with eps^2 K stiffness
                     (beta = 0)
  LocalRegularStep   local_regular: one semi-implicit solve with a fixed
                     matrix, nonlinearity explicit, no constraints

The fixed matrices a M + b K (the heat matrix, the local_regular matrix, and
M + beta K of the energy diagnostics) are solved exactly by ``exact_solver``:
in 1D by banded Cholesky (``pdas.factorized``), and in 2D by two DCT-I
transforms, with a capacitance correction on the boundary ring of a grid with
an interaction layer.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import dct, dctn
from scipy.linalg import cho_factor, cho_solve

from .config import RunConfig
from .fields_io import field_on_grid, read_field
from .grid import Grid, assemble_stiffness, build_grid, trapezoid_weights
from .kernel import c_gamma_closed_form
from .nonlocal_ops import ConvolutionStencil, build_stencil, convolve, exterior_closure
from .pdas import (PdasConfig, StepOut, WSolver, coupled_matrix, factorized,
                   local_obstacle_matrix, pdas_step_CH, pdas_step_local_obstacle,
                   verify_complementarity, w_matrix)
from .physics import ModelParams, coupling_m, objective_Jk, regular_potential_dF

__all__ = [
    "State", "RunResult", "NonlocalCHStep", "NonlocalACStep",
    "LocalObstacleStep", "LocalRegularStep", "phase_step", "exact_solver",
    "step_temperature", "step_phase_local_regular", "initial_state", "run",
    "AdmissibilityReport", "timestep_admissibility",
]


@dataclass
class State:
    """Immutable snapshot of the fields at one time level.

    theta, w, lam live on interior nodes; u on all nodes (interior +
    exterior layer).  w/lam are None on paths that do not produce them.
    """

    k: int
    t: float
    theta: np.ndarray
    u: np.ndarray
    w: np.ndarray | None = None
    lam: np.ndarray | None = None


@dataclass
class RunResult:
    """Trajectory snapshots plus per-step diagnostics of one simulation."""

    config: RunConfig
    grid: Grid
    states: list
    diagnostics: dict
    n_steps: int
    t_mismatch: float
    snapshot_levels: list
    runtime_seconds: float = 0.0

    @property
    def non_converged_steps(self) -> list:
        return [int(k) + 1 for k in np.flatnonzero(~self.diagnostics["pdas_converged"])]


def exact_solver(grid: Grid, K: sp.csr_matrix, a: float, b: float):
    """Solve of (a M + b K) x = r on the interior nodes, for a > 0, b >= 0.

    K is ``assemble_stiffness(grid)`` and M the lumped interior mass.  In 1D
    the matrix is tridiagonal and factored once by banded Cholesky.  In 2D,
    with M0 the tensor trapezoid with half ends and K the Neumann 5-point
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
        return factorized(np.vstack([np.r_[0.0, b * K.diagonal(1)],
                                     a * grid.mass_interior + b * K.diagonal()]))
    n, shape = grid.n_axis_interior, grid.interior_shape
    lam = (2.0 / grid.h**2) * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
    scale = (a + b * np.add.outer(lam, lam)) * (2 * (n - 1))**2
    weights = trapezoid_weights(n, grid.h)
    m0 = np.multiply.outer(weights, weights)
    ring = _RingCorrection(grid, a, m0, scale) if grid.layer else None

    def solve(r: np.ndarray) -> np.ndarray:
        y = dctn(r.reshape(shape) / m0, type=1)
        y /= scale
        if ring is not None:
            ring.correct(y)
        return dctn(y, type=1, overwrite_x=True).ravel()
    return solve


class _RingCorrection:
    """Woodbury correction of the 2D DCT-I solve for a mass that differs on the ring.

    A = A0 + P diag(c) P^T with P the injection of the boundary ring B and
    c = a (m - m0) > 0 there, so A^{-1} = A0^{-1} - A0^{-1} P C^{-1} P^T A0^{-1}
    with the SPD capacitance C = diag(1/c) + P^T A0^{-1} P.  In 2D arrays
    A0^{-1} R = G ((F R F^T) / S) G^T, with G the DCT-I matrix, F = G
    diag(1/m1) and S the ``scale`` of ``exact_solver``.  The ring is read as
    four sides (rows 0 and n-1, columns 0 and n-1; the columns without the
    corners), so P^T A0^{-1} P is assembled by separability from n x n
    products, and a correction costs O(n^2) on top of the two transforms:
    ``correct`` takes the spectral coefficients Y = (F R F^T) / S and
    subtracts those of A0^{-1} P C^{-1} P^T A0^{-1} R in place.
    """

    def __init__(self, grid: Grid, a: float, m0: np.ndarray, scale: np.ndarray):
        n = grid.n_axis_interior
        G = dct(np.eye(n), type=1, axis=0)
        F = G / trapezoid_weights(n, grid.h)
        self.G, self.F, self.Sinv = G, F, 1.0 / scale
        self.g_ends, self.f_ends = G[[0, -1]], F[:, [0, -1]]
        # the ring as four sides of n values (rows 0, n-1, columns 0, n-1);
        # the corners are taken from the rows, so a column side keeps its
        # values 1..n-2, and side s fills rows start[s]:start[s + 1] of C
        self.sel = np.concatenate([np.arange(2 * n), 2 * n + np.arange(1, n - 1),
                                   3 * n + np.arange(1, n - 1)])
        keep = [slice(None)] * 2 + [slice(1, n - 1)] * 2
        start = np.cumsum([0, n, n, n - 2, n - 2])
        # block (side s, side t) of P^T A0^{-1} P, with g = g_ends[s % 2] and
        # f = f_ends[:, t % 2]: G diag(S^{-1} (f * g)) F when both sides are
        # rows or both columns, G diag(f) S^{-1} diag(g) F otherwise.  C is
        # assembled at its final size, in the Fortran order that lets the
        # Cholesky factorization overwrite it.
        H = np.empty((start[-1], start[-1]), order="F")
        for s in range(4):
            g = self.g_ends[s % 2]
            for t in range(4):
                f = self.f_ends[:, t % 2]
                if (s < 2) == (t < 2):
                    block = (G * (self.Sinv @ (f * g))) @ F
                else:
                    block = (G * f) @ (self.Sinv * g) @ F
                H[start[s]:start[s + 1], start[t]:start[t + 1]] = block[keep[s], keep[t]]
        c = a * (grid.mass_interior.reshape(m0.shape) - m0)
        H[np.diag_indices_from(H)] += 1.0 / np.concatenate(
            [c[0], c[-1], c[:, 0], c[:, -1]])[self.sel]
        self.cap = cho_factor(H, overwrite_a=True)

    def correct(self, Y: np.ndarray) -> None:
        n = len(self.G)
        # ring values of A0^{-1} R = G Y G^T: rows g_e Y G^T, columns G Y g_e^T
        sides = self.G @ np.hstack([(self.g_ends @ Y).T, Y @ self.g_ends.T])
        s = np.zeros(4 * n)
        s[self.sel] = cho_solve(self.cap, sides.T.ravel()[self.sel], check_finite=False)
        # F (P s) F^T: the rows and the columns of P s give two outer products each
        Fs = self.F @ s.reshape(4, n).T
        Y -= (self.f_ends @ Fs[:, :2].T + Fs[:, 2:] @ self.f_ends.T) * self.Sinv


def step_temperature(heat_solve, grid: Grid, params: ModelParams, theta_prev: np.ndarray,
                     u_new: np.ndarray, u_prev: np.ndarray) -> np.ndarray:
    """Backward-Euler heat step with the latent-heat source L (u^k - u^{k-1}).

    ``heat_solve`` is ``exact_solver(grid, K, 1.0, tau * params.D)``, the solve
    of M + tau D K; u_new/u_prev are full-domain fields, of which only
    interior values enter.
    """
    ids = grid.interior_ids
    du = np.asarray(u_new, dtype=float)[ids] - np.asarray(u_prev, dtype=float)[ids]
    rhs = grid.mass_interior * (np.asarray(theta_prev, dtype=float) + params.L * du)
    return heat_solve(rhs)


def step_phase_local_regular(solve, grid: Grid, params: ModelParams, tau: float,
                             u_prev: np.ndarray, theta_prev: np.ndarray) -> np.ndarray:
    """Semi-implicit local step with the smooth double well (unconstrained).

    Stiffness implicit, potential derivative explicit:
    (mu/tau M + eps^2 K) u = mu/tau M u_prev - M dF(u_prev, m(theta_prev)),
    with ``solve`` the solve of the left-hand side (see LocalRegularStep).
    Local grid: every node is interior.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    m_prev = coupling_m(params, theta_prev)
    rhs = grid.mass_interior * (
        (params.mu / tau) * u_prev - regular_potential_dF(u_prev, m_prev)
    )
    return solve(rhs)


class NonlocalCHStep:
    """Constrained Cahn-Hilliard step (beta > 0), warm-started between steps.

    Owns the w-solver around tau (M + beta K) and, for implicit convolution,
    the coupled matrix (``coupled_matrix``), both built once; carries the
    previous step's active sets and w into the next solve.
    """

    def __init__(self, grid: Grid, stencil: ConvolutionStencil, params: ModelParams,
                 tau: float, config: PdasConfig, K: sp.csr_matrix):
        self.grid, self.stencil, self.params, self.tau = grid, stencil, params, tau
        self.config = config
        self.w_solver = WSolver(grid, w_matrix(grid, K, params.beta, tau))
        self.B = (coupled_matrix(grid, stencil, params, self.w_solver)
                  if config.convolution_mode == "implicit" else None)
        self.sets = self.w = None

    def step(self, u: np.ndarray, theta: np.ndarray) -> StepOut:
        out = pdas_step_CH(
            self.grid, self.stencil, self.params, self.tau, u,
            coupling_m(self.params, theta), self.config, self.w_solver, self.B,
            init_sets=self.sets, w0=self.w,
        )
        self.sets, self.w = out.sets, out.w
        return out


class NonlocalACStep:
    """Direct nodal projection step for the beta = 0 nonlocal model.

    No linear or nonlinear solve: u at each interior node is the clamp of
    g / (mu/tau + c_gamma_h - c_F) with g built from the previous level
    (c_gamma_h is one number on the interior); the exterior layer is closed
    explicitly.
    """

    def __init__(self, grid: Grid, stencil: ConvolutionStencil, params: ModelParams,
                 tau: float):
        self.grid, self.stencil, self.params = grid, stencil, params
        self.r = params.mu / tau
        self.denom = self.r + stencil.c_gamma_h_interior - params.c_F
        if not self.denom > 0.0:
            raise ValueError(
                "mu/tau + c_gamma_h - c_F must be > 0 at every node; "
                "tau is too large relative to mu/(c_F - c_gamma_h)"
            )

    def step(self, u: np.ndarray, theta: np.ndarray) -> StepOut:
        ids = self.grid.interior_ids
        c_F = self.params.c_F
        conv = convolve(self.stencil, u)
        g = (self.r * u[ids] + conv[ids] + c_F * coupling_m(self.params, theta)
             - 0.5 * c_F)
        u_I = np.clip(g / self.denom, 0.0, 1.0)
        u_new = np.empty(self.grid.n_nodes)
        u_new[ids] = u_I
        u_new[self.grid.exterior_ids] = exterior_closure(self.stencil, conv)
        return StepOut(u_new, lam=g - self.denom * u_I)


class LocalObstacleStep:
    """Backward-Euler local obstacle step (beta = 0), active sets warm-started.

    Owns the matrix (mu/tau - c_F) M + eps^2 K, built once.
    """

    def __init__(self, grid: Grid, params: ModelParams, tau: float, eps: float,
                 config: PdasConfig, K: sp.csr_matrix):
        self.grid, self.params, self.tau, self.config = grid, params, tau, config
        self.A = local_obstacle_matrix(grid, K, params, tau, eps)
        self.sets = None

    def step(self, u: np.ndarray, theta: np.ndarray) -> StepOut:
        out = pdas_step_local_obstacle(
            self.grid, self.params, self.tau, self.A, u,
            coupling_m(self.params, theta), self.config, init_sets=self.sets,
        )
        self.sets = out.sets
        return out


class LocalRegularStep:
    """Semi-implicit smooth-well step; the solve of mu/tau M + eps^2 K is built once."""

    def __init__(self, grid: Grid, params: ModelParams, tau: float, eps: float,
                 K: sp.csr_matrix):
        self.grid, self.params, self.tau = grid, params, tau
        self.solve = exact_solver(grid, K, params.mu / tau, eps**2)

    def step(self, u: np.ndarray, theta: np.ndarray) -> StepOut:
        return StepOut(step_phase_local_regular(
            self.solve, self.grid, self.params, self.tau, u, theta))


def phase_step(config: RunConfig, grid: Grid, stencil: ConvolutionStencil | None,
               K: sp.csr_matrix):
    """The phase step of ``config.variant``; K is the grid's stiffness."""
    p, tau, eps = config.model, config.tau, config.epsilon
    if config.variant == "nonlocal_CH":
        return NonlocalCHStep(grid, stencil, p, tau, config.pdas, K)
    if config.variant == "nonlocal_AC":
        return NonlocalACStep(grid, stencil, p, tau)
    if config.variant == "local_obstacle":
        return LocalObstacleStep(grid, p, tau, eps, config.pdas, K)
    return LocalRegularStep(grid, p, tau, eps, K)


@dataclass
class AdmissibilityReport:
    """Advisory step-size check against the uniqueness condition; never blocks a run."""

    bound: float | None
    status: str  # "pass" | "warn" | "not_computable"
    message: str


def timestep_admissibility(config: RunConfig, C_I: float = 0.0) -> AdmissibilityReport:
    """Check tau against the beta = 0 nonlocal uniqueness bound (advisory only).

    tau < mu / (C_gamma (1 + C_I^2) - xi) with the user-supplied exterior
    constant C_I >= 0; the denominator equals C_gamma C_I^2 + c_F > 0.  The
    beta > 0 bound involves kernel-mollifier constants that the theory does
    not make computable, so it and the local variants report
    "not_computable".
    """
    m = config.model
    if not (C_I >= 0):
        raise ValueError("C_I must be >= 0")
    if not config.is_nonlocal or m.beta != 0:
        return AdmissibilityReport(
            None, "not_computable",
            "admissibility bound applies to the beta = 0 nonlocal variant only",
        )
    C_gamma = c_gamma_closed_form(config.kernel_spec())
    bound = m.mu / (C_gamma * (1.0 + C_I**2) - (C_gamma - m.c_F))
    ok = config.tau < bound
    return AdmissibilityReport(
        bound, "pass" if ok else "warn",
        f"tau = {config.tau:.4g} vs bound {bound:.4g} (C_I = {C_I:g})",
    )


def initial_state(config: RunConfig, grid: Grid, stencil: ConvolutionStencil | None) -> State:
    """Build (theta^0, u^0); nonlocal u^0 is extended by the explicit flux closure.

    A ``file`` or ``theta0`` field must fit the grid (``field_on_grid``) and be
    finite, and a ``file`` field of an obstacle variant lie in [0, 1].
    """
    ids = grid.interior_ids
    coords = grid.coords()
    init = config.init
    if init.kind == "file":
        u_I = field_on_grid(*read_field(init.path), grid, f"initial field {init.path}")
        lo, hi = float(u_I.min()), float(u_I.max())  # NaN propagates into both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"initial field {init.path} has non-finite values")
        if config.is_obstacle and not (lo >= 0.0 and hi <= 1.0):
            raise ValueError(
                f"initial field {init.path} has range [{lo}, {hi}] outside [0, 1]"
            )
    elif init.kind == "step":
        x0 = init.params[0]
        u_I = (coords[ids, 0] <= x0 + 1e-12).astype(float)
    elif init.kind in ("box", "frame"):
        a, b = init.params
        inside = np.ones(len(ids), dtype=bool)
        for d in range(grid.dim):
            c = coords[ids, d]
            inside &= (c >= a - 1e-12) & (c <= b + 1e-12)
        u_I = inside.astype(float)
        if init.kind == "frame":
            u_I = 1.0 - u_I
    else:
        raise ValueError(f"unknown init kind {init.kind!r}")

    u_full = np.zeros(grid.n_nodes)
    u_full[ids] = u_I
    if stencil is not None:
        u_full[grid.exterior_ids] = exterior_closure(stencil, convolve(stencil, u_full))

    if isinstance(init.theta0, str):
        theta = field_on_grid(*read_field(init.theta0), grid, f"theta0 field {init.theta0}")
        if not np.isfinite(theta).all():
            raise ValueError(f"theta0 field {init.theta0} has non-finite values")
    else:
        theta = np.full(grid.n_interior, float(init.theta0))
    return State(k=0, t=0.0, theta=theta, u=u_full)


def run(config: RunConfig) -> RunResult:
    """Execute the full time loop and collect snapshots plus diagnostics.

    Records, per step: active-set iterations, convergence and CG iterations;
    the number of interior nodes strictly inside the interface (0 < u < 1);
    the KKT residual of the active-set variants; where the phase
    step returns a multiplier (the obstacle variants) the complementarity
    residual and the bound range of u over all nodes; the enthalpy drift;
    and, when ``config.records_energy``, the per-step objective at the new
    and previous iterates and the projection-formula residual.  Raises
    ``RuntimeError`` naming the step, t and the cause at the first phase
    step that does not converge.
    """
    t0 = _time.perf_counter()
    config.validate()
    params = config.model
    tau = config.tau
    grid = build_grid(config.dim, config.h, config.delta if config.is_nonlocal else 0.0)
    stencil = build_stencil(grid, config.kernel_spec()) if config.is_nonlocal else None

    n_steps = max(int(round(config.T_final / tau)), 1)
    t_mismatch = abs(n_steps * tau - config.T_final)
    snap_levels = sorted(
        {min(max(int(round(t / tau)), 0), n_steps) for t in config.snapshots}
    )

    state = initial_state(config, grid, stencil)
    ids = grid.interior_ids
    mI = grid.mass_interior
    enthalpy0 = float(np.dot(mI, state.theta - params.L * state.u[ids]))
    enthalpy_scale = 1.0 + abs(float(np.dot(mI, state.theta)))

    diag = {
        "pdas_iters": np.zeros(n_steps, dtype=int),
        "pdas_converged": np.ones(n_steps, dtype=bool),
        "cg_iters": np.zeros(n_steps, dtype=int),
        "interface_nodes": np.zeros(n_steps, dtype=int),
        "kkt_residual": np.full(n_steps, np.nan),
        "comp_residual": np.full(n_steps, np.nan),
        "bound_min": np.full(n_steps, np.nan),
        "bound_max": np.full(n_steps, np.nan),
        "enthalpy_drift": np.zeros(n_steps),
        "energy_J_new": np.full(n_steps, np.nan),
        "energy_J_prev": np.full(n_steps, np.nan),
        "proj_residual": np.full(n_steps, np.nan),
        "enthalpy_scale": enthalpy_scale,
    }

    states = [state] if 0 in snap_levels else []

    # every operator and solver of the run, built once
    K = assemble_stiffness(grid)
    phase = phase_step(config, grid, stencil, K)
    heat = exact_solver(grid, K, 1.0, tau * params.D)
    if config.records_energy:
        green = exact_solver(grid, K, 1.0, params.beta)
        xi = stencil.c_gamma_h_interior - params.c_F
    del K  # the time loop uses only what was built from it

    u, theta = state.u, state.theta
    for k in range(1, n_steps + 1):
        out = phase.step(u, theta)
        if not out.converged:
            raise RuntimeError(
                f"active-set solve of step {k} (t = {k * tau:g}) did not converge: "
                f"{out.cause}")
        diag["pdas_iters"][k - 1] = out.iters
        diag["pdas_converged"][k - 1] = out.converged
        diag["cg_iters"][k - 1] = out.cg_iters
        u_I = out.u[ids]
        diag["interface_nodes"][k - 1] = np.count_nonzero((u_I > 0.0) & (u_I < 1.0))
        if out.kkt_residual is not None:
            diag["kkt_residual"][k - 1] = out.kkt_residual
        if out.lam is not None:
            diag["comp_residual"][k - 1] = verify_complementarity(u_I, out.lam)
            diag["bound_min"][k - 1] = float(out.u.min())
            diag["bound_max"][k - 1] = float(out.u.max())
        if config.records_energy:
            m_prev = coupling_m(params, theta)
            diag["energy_J_new"][k - 1] = objective_Jk(
                grid, stencil, params, tau, out.u, u, m_prev, green
            )
            diag["energy_J_prev"][k - 1] = objective_Jk(
                grid, stencil, params, tau, u, u, m_prev, green
            )
            g = (out.w + convolve(stencil, out.u)[ids] + params.c_F * m_prev
                 - 0.5 * params.c_F)
            diag["proj_residual"][k - 1] = float(
                np.abs(u_I - np.clip(g / xi, 0.0, 1.0)).max()
            )

        theta_new = step_temperature(heat, grid, params, theta, out.u, u)
        enthalpy = float(np.dot(mI, theta_new - params.L * u_I))
        diag["enthalpy_drift"][k - 1] = abs(enthalpy - enthalpy0)

        u, theta = out.u, theta_new
        if k in snap_levels:
            states.append(
                State(k=k, t=k * tau, theta=theta.copy(), u=u.copy(),
                      w=None if out.w is None else out.w.copy(),
                      lam=None if out.lam is None else out.lam.copy())
            )

    return RunResult(
        config=config,
        grid=grid,
        states=states,
        diagnostics=diag,
        n_steps=n_steps,
        t_mismatch=t_mismatch,
        snapshot_levels=snap_levels,
        runtime_seconds=_time.perf_counter() - t0,
    )
