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
M + beta K of the energy diagnostics) are built and solved by ``grid``
(``exact_solver``); this module holds only the steps and the time loop.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import RunConfig
from .fields_io import field_on_grid, read_field
# factorized is not called here: nlpf_bench/spans.py wraps stepper.factorized by name
from .grid import Grid, build_grid, exact_solver, factorized  # noqa: F401
from .kernel import c_gamma_closed_form
from .nonlocal_ops import ConvolutionStencil, build_stencil, convolve, exterior_closure
from .pdas import (PdasConfig, StepOut, WSolver, coupled_matrix, local_obstacle_matrix,
                   pdas_step_CH, pdas_step_local_obstacle, verify_complementarity, w_matrix)
from .physics import ModelParams, coupling_m, objective_Jk, regular_potential_dF

__all__ = [
    "State", "RunResult", "NonlocalCHStep", "NonlocalACStep",
    "LocalObstacleStep", "LocalRegularStep", "phase_step", "step_temperature",
    "step_phase_local_regular", "initial_state", "run",
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


def step_temperature(heat_solve, grid: Grid, params: ModelParams, theta_prev: np.ndarray,
                     u_new: np.ndarray, u_prev: np.ndarray) -> np.ndarray:
    """Backward-Euler heat step with the latent-heat source L (u^k - u^{k-1}).

    ``heat_solve`` is ``exact_solver(grid, 1.0, tau * params.D)``, the solve
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
                 tau: float, config: PdasConfig):
        self.grid, self.stencil, self.params, self.tau = grid, stencil, params, tau
        self.config = config
        self.w_solver = WSolver(grid, w_matrix(grid, params.beta, tau))
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
                 config: PdasConfig):
        self.grid, self.params, self.tau, self.config = grid, params, tau, config
        self.A = local_obstacle_matrix(grid, params, tau, eps)
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

    def __init__(self, grid: Grid, params: ModelParams, tau: float, eps: float):
        self.grid, self.params, self.tau = grid, params, tau
        self.solve = exact_solver(grid, params.mu / tau, eps**2)

    def step(self, u: np.ndarray, theta: np.ndarray) -> StepOut:
        return StepOut(step_phase_local_regular(
            self.solve, self.grid, self.params, self.tau, u, theta))


def phase_step(config: RunConfig, grid: Grid, stencil: ConvolutionStencil | None):
    """The phase step of ``config.variant``."""
    p, tau, eps = config.model, config.tau, config.epsilon
    if config.variant == "nonlocal_CH":
        return NonlocalCHStep(grid, stencil, p, tau, config.pdas)
    if config.variant == "nonlocal_AC":
        return NonlocalACStep(grid, stencil, p, tau)
    if config.variant == "local_obstacle":
        return LocalObstacleStep(grid, p, tau, eps, config.pdas)
    return LocalRegularStep(grid, p, tau, eps)


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
    init = config.init
    # the interior nodes' coordinates along one axis; a field's x index runs fastest
    axis = grid.axis_coords()[grid.layer : grid.layer + grid.n_axis_interior]
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
        u_I = np.tile(axis <= x0 + 1e-12, grid.n_axis_interior**(grid.dim - 1)).astype(float)
    elif init.kind in ("box", "frame"):
        a, b = init.params
        on_axis = (axis >= a - 1e-12) & (axis <= b + 1e-12)
        u_I = reduce(np.logical_and.outer, (on_axis,) * grid.dim).ravel().astype(float)
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
        "pdas_converged": np.ones(n_steps, dtype=bool),  # a False step raises
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
    phase = phase_step(config, grid, stencil)
    heat = exact_solver(grid, 1.0, tau * params.D)
    if config.records_energy:
        green = exact_solver(grid, 1.0, params.beta)
        xi = stencil.c_gamma_h_interior - params.c_F

    # a step-0 snapshot keeps the initial fields; else step 1 frees them
    u, theta = state.u, state.theta
    del state
    for k in range(1, n_steps + 1):
        out = phase.step(u, theta)
        if not out.converged:
            raise RuntimeError(
                f"active-set solve of step {k} (t = {k * tau:g}) did not converge: "
                f"{out.cause}")
        diag["pdas_iters"][k - 1] = out.iters
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
        del out  # its lam is dead: free it before the next step

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
