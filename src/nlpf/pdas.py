"""Primal-dual active-set solvers for the per-step complementarity systems.

Each time step of an obstacle variant requires a bound-constrained solve: the
phase value is pinned to 1 on an upper active set, to 0 on a lower active
set, and satisfies a linear equation on the inactive remainder, with the
multiplier carrying the complementarity.  The active sets are iterated with
the standard test

    upper <- { lambda + c (u - 1) > 0 },    lower <- { lambda + c u < 0 },

until they repeat.  Warm-starting from the previous time level's sets makes
the iteration converge in one to three sweeps once the interface moves only
a few cells per step.

PDAS is a semismooth Newton method, and a sweep before the last only has to
choose the next sets, so the 2D CG sweeps are inexact (an inexact Newton
forcing term): each is solved to the loose relative residual
``_SWEEP_RTOL``.  Once the sets repeat, the same system is refined to
``lin_tol``, CG starting from the loose iterate with the same matrix and
V-cycle, and the sets are tested again; the step is accepted only if they
still repeat.  The direct routes (1D, implicit convolution) are exact, solve
every sweep to round-off and accept the first repeat.  Every step reports
the residual of its own equations at the accepted iterate (``kkt_residual``)
and its CG iterations.

Solvers:
  * pdas_step_CH             coupled (u, w) step, beta > 0, explicit or
                             implicit convolution
  * pdas_step_local_obstacle backward-Euler local obstacle step (beta = 0)

The explicit-convolution CH step reduces to one SPD solve per sweep in the
chemical potential w: on the inactive set u = (w + q)/xi is eliminated
nodewise, giving the system (mu/xi) M_inactive + tau (M + beta K).  The
discrete xi = c_gamma_h - c_F is one number on the interior, where every
node sees the full stencil.  The
``WSolver`` solves it: in 1D, where the system is tridiagonal, by a banded
Cholesky solve (``solveh_banded``) on bands of the fixed part stored once, and
in 2D by conjugate gradients preconditioned with one symmetric multigrid
V-cycle (bilinear prolongations fixed per grid, Galerkin coarse operators
rebuilt when the sets change, because the inactive-set diagonal changes the
matrix; a refinement reuses them).

The local obstacle step solves, per sweep, the principal submatrix of
``local_obstacle_matrix`` = (mu/tau - c_F) M + eps^2 K on the inactive set:
directly in 1D (tridiagonal; a sparse LU per sweep), and in 2D by
unpreconditioned CG warm-started from the previous sweep (the matrix is well
conditioned, ~13 after Jacobi scaling on the ex3 grid; a refinement reuses
the extracted submatrix).  In both 2D routes a CG that misses its tolerance
raises: there is no direct-solve fallback.

The solvers assemble nothing that is fixed over a run: the stiffness K, the
w-solver (around the w-equation matrix ``w_matrix``), the local obstacle
matrix and, for implicit convolution, the convolution rows are passed in by
the caller (the time loop builds them once per run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solveh_banded
from scipy.sparse.linalg import LinearOperator, cg, factorized, spsolve

from .grid import Grid
from .nonlocal_ops import ConvolutionStencil, convolve, exterior_closure
from .physics import ModelParams

__all__ = [
    "ActiveSets",
    "PdasConfig",
    "StepOut",
    "WSolver",
    "pdas_step_CH",
    "pdas_step_local_obstacle",
    "verify_complementarity",
    "sets_from_bounds",
    "w_matrix",
    "local_obstacle_matrix",
]

#: 2D w-solve: coarsen until a level has at most this many nodes, then solve
#: it directly; damping of the Jacobi smoother; CG iteration cap of both 2D
#: CG solves; relative residual of a 2D CG sweep before its sets repeat
#: (refined to lin_tol after).  On the ex3 runs to t = 0.0041 a loose sweep
#: takes ~2.5 CG iterations per w-solve (at most 5) and ~4 per reduced
#: local-obstacle solve (at most 12), a refinement ~10 (at most 12) and ~31
#: (at most 33).
_COARSEST_NODES = 200
_JACOBI_DAMPING = 0.8
_CG_MAX_ITERS = 500
_SWEEP_RTOL = 1e-4


@dataclass
class PdasConfig:
    """Active-set iteration parameters.

    c_penalty: dimensionless multiplier (> 0) of the set-update threshold.
    Each solver scales the test constant to its natural multiplier magnitude
    (mu/tau plus the operator's nodal scale); with a constant that is too
    small relative to the multipliers, pinned nodes can flip directly
    between the bounds and the iteration 2-cycles.
    """

    c_penalty: float = 1.0
    max_iters: int = 50
    lin_tol: float = 1e-12
    convolution_mode: str = "explicit"

    def __post_init__(self):
        if not (math.isfinite(self.c_penalty) and self.c_penalty > 0):
            raise ValueError(f"c_penalty must be finite and > 0, got {self.c_penalty}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.lin_tol) and self.lin_tol >= 0):
            raise ValueError(f"lin_tol must be finite and >= 0, got {self.lin_tol}")
        if self.convolution_mode not in ("explicit", "implicit"):
            raise ValueError(f"unknown convolution_mode {self.convolution_mode!r}")


@dataclass
class ActiveSets:
    """Partition of the interior nodes: pinned-at-1, pinned-at-0, free."""

    upper: np.ndarray
    lower: np.ndarray

    @property
    def inactive(self) -> np.ndarray:
        return ~(self.upper | self.lower)

    def same_as(self, other: "ActiveSets") -> bool:
        return bool(
            np.array_equal(self.upper, other.upper)
            and np.array_equal(self.lower, other.lower)
        )


@dataclass
class StepOut:
    """One phase update: the result of every variant's phase step.

    u is the full-domain field (exterior layer closed on nonlocal grids);
    w and lam live on interior nodes and are None where the variant has no
    chemical potential or multiplier.  sets are the final active sets, None
    for the solve-free variants.  iters/converged are the active-set sweep
    count and convergence (0 and True for the solve-free variants);
    restarted is whether the active-set iteration was restarted cold;
    cg_iters counts the CG iterations of every sweep.  kkt_residual is the
    largest residual of the accepted iterate's own equations, scaled to a
    change of u (None for the solve-free variants; NaN propagates).
    """

    u: np.ndarray
    w: np.ndarray | None = None
    lam: np.ndarray | None = None
    sets: ActiveSets | None = None
    iters: int = 0
    converged: bool = True
    restarted: bool = False
    cg_iters: int = 0
    kkt_residual: float | None = None


def sets_from_bounds(u_interior: np.ndarray, tol: float = 1e-9) -> ActiveSets:
    """Initial active sets from a field's own bound pattern."""
    u_interior = np.asarray(u_interior, dtype=float)
    return ActiveSets(upper=u_interior >= 1.0 - tol, lower=u_interior <= tol)


def _max_abs(*parts: np.ndarray) -> float:
    """Largest absolute entry over the arrays (0 if all are empty); NaN propagates."""
    return float(np.max([np.abs(p).max(initial=0.0) for p in parts]))


def _held(build):
    """``get(sets) = build(sets)``, built again only for a new ``sets`` object.

    A refinement sweep passes its loose sweep's sets again, so it reuses
    their system (matrix, V-cycle).  The old system is dropped before the
    next one is built: one is alive at a time, and none outlives the step.
    """
    held = {}

    def get(sets):
        if held.get("sets") is not sets:
            held.clear()
            held.update(sets=sets, system=build(sets))
        return held["system"]
    return get


def _pdas_iterate(grid: Grid, solve_for_sets, init_sets: ActiveSets, c: float,
                  config: PdasConfig, residual=None, loose: bool = False) -> StepOut:
    """Drive the active-set fixed point.

    ``solve_for_sets(sets, rtol)`` solves the sweep's linear system to the
    relative residual rtol (a direct solve ignores it) and returns (u_I, u_E,
    w, g, cg_iters): u on the interior and on the exterior layer (u_E None on
    a grid without one), w (None where beta = 0), the phase-row value g and
    the CG iterations.  g is the multiplier on the active nodes and the
    residual of the phase equation on the inactive ones.
    ``residual(u_I, w, g, inactive)``, if given, is the step's KKT residual
    at the accepted iterate.

    With ``loose`` (the CG routes) a sweep is solved to ``_SWEEP_RTOL``, and
    once the sets repeat the same ``sets`` object is solved again to
    lin_tol, so ``solve_for_sets`` may reuse what it built for it; the sets
    are then tested again.  Without it every sweep is solved to lin_tol and
    the first repeat is accepted.  Refinements count as sweeps.

    If the warm-started iteration does not settle within max_iters (a cold
    start from an all-pinned state opens a wide inactive band only a couple
    of nodes per sweep), it is restarted once from the all-inactive estimate,
    whose first unconstrained solve pins near-final sets immediately;
    ``restarted`` reports that.
    """
    lin_tol = config.lin_tol
    rtol = max(_SWEEP_RTOL, lin_tol) if loose else lin_tol
    n = init_sets.upper.shape[0]
    attempts = [init_sets]
    if init_sets.upper.any() or init_sets.lower.any():
        attempts.append(
            ActiveSets(np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
        )
    iters_used = cg_iters = 0
    converged = False
    for attempt, start in enumerate(attempts):
        sets, tol = ActiveSets(start.upper.copy(), start.lower.copy()), rtol
        for _ in range(config.max_iters):
            iters_used += 1
            u_I, u_E, w, g, n_cg = solve_for_sets(sets, tol)
            cg_iters += n_cg
            inactive = sets.inactive
            lam = np.where(inactive, 0.0, g)
            new = ActiveSets(
                upper=lam + c * (u_I - 1.0) > 0.0,
                lower=lam + c * u_I < 0.0,
            )
            if not new.same_as(sets):
                sets, tol = new, rtol
            elif tol == lin_tol:
                converged = True
                break
            else:
                tol = lin_tol  # refine this system, then test the sets again
        if converged:
            break
    u = u_I
    if u_E is not None:
        u = np.empty(grid.n_nodes)
        u[grid.interior_ids] = u_I
        u[grid.exterior_ids] = u_E
    kkt = None if residual is None else residual(u_I, w, g, inactive)
    return StepOut(u, w, lam, sets, iters_used, converged, attempt > 0, cg_iters, kkt)


def w_matrix(grid: Grid, K: sp.csr_matrix, beta: float, tau: float) -> sp.csr_matrix:
    """tau * (M + beta K) on interior nodes: the w-equation matrix."""
    M = sp.diags_array(grid.mass_interior).tocsr()
    return (tau * (M + beta * K)).tocsr()


def local_obstacle_matrix(grid: Grid, K: sp.csr_matrix, params: ModelParams, tau: float,
                          eps: float) -> sp.csr_matrix:
    """(mu/tau - c_F) M + eps^2 K on interior nodes: the local obstacle matrix.

    The model has beta = 0, and the matrix is SPD only for mu/tau > c_F.
    """
    if params.beta != 0:
        raise ValueError("the local obstacle step has beta = 0")
    r = params.mu / tau
    if r <= params.c_F:
        raise ValueError(
            f"mu/tau = {r} must exceed c_F = {params.c_F} for the local obstacle "
            "step (shrink tau)"
        )
    return (sp.diags_array((r - params.c_F) * grid.mass_interior) + eps**2 * K).tocsr()


def _cg(A, b: np.ndarray, x0: np.ndarray, rtol: float, what: str,
        M=None) -> tuple[np.ndarray, int]:
    """CG to the relative residual rtol: (x, iterations); raises if it stops short."""
    iters = 0

    def count(_xk):
        nonlocal iters
        iters += 1

    x, info = cg(A, b, x0=x0, M=M, rtol=rtol, atol=0.0, maxiter=_CG_MAX_ITERS,
                 callback=count)
    if info != 0:
        raise RuntimeError(
            f"{what} did not reach rtol {rtol:g} in {_CG_MAX_ITERS} iterations "
            f"(info {info})"
        )
    return x, iters


def _prolongation_1d(n: int) -> sp.csr_matrix:
    """Linear interpolation onto n nodes from the (n + 1) // 2 at even indices.

    Fine node 2i is coarse node i; an odd fine node takes the mean of its two
    coarse neighbours, or copies the last coarse node where an even-sized
    axis has no right neighbour.  Every row sums to 1.
    """
    nc = (n + 1) // 2
    j = np.arange(n)
    rows = np.concatenate([j, j])
    cols = np.concatenate([j // 2, np.minimum((j + 1) // 2, nc - 1)])
    return sp.coo_matrix((np.full(2 * n, 0.5), (rows, cols)), shape=(n, nc)).tocsr()


class _VCycle:
    """One symmetric multigrid V-cycle for A = A_w + diag(d), built per active sets.

    Level l + 1 holds the Galerkin product P_l^T A_l P_l.  By linearity that
    is the fixed coarse A_w of the solver plus the product of the diagonal
    alone, which is nonzero only near the inactive band, so only the latter
    is formed here.  One damped-Jacobi sweep before and one after each
    coarse correction, and a Cholesky solve on the coarsest level.  The
    cycle is a loop, not a recursive closure, so the hierarchy is freed as
    soon as the system that built it is dropped.
    """

    def __init__(self, solver: WSolver, A: sp.csr_matrix, d: np.ndarray):
        self.P, self.R = solver.prolongations, solver.restrictions
        self.A = [A]
        D = sp.diags_array(d).tocsr()
        for P, R, A_w in zip(self.P, self.R, solver.coarse_A_w):
            D = (R @ D @ P).tocsr()
            self.A.append((A_w + D).tocsr())
        self.smooth = [_JACOBI_DAMPING / A_l.diagonal() for A_l in self.A[:-1]]
        self.coarsest = cho_factor(self.A[-1].toarray())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        rhs, pre = [r], []
        for A_l, S, R in zip(self.A, self.smooth, self.R):
            x = S * rhs[-1]
            pre.append(x)
            rhs.append(R @ (rhs[-1] - A_l @ x))
        x = cho_solve(self.coarsest, rhs[-1])
        for l in reversed(range(len(self.P))):
            x = pre[l] + self.P[l] @ x
            x += self.smooth[l] * (rhs[l] - self.A[l] @ x)
        return x


class WSolver:
    """Solves (A_w + diag(d)) w = b, the w-equation of one active-set sweep.

    ``A_w`` is ``w_matrix(grid, K, beta, tau)``, fixed over a run; the
    nonnegative diagonal d (the inactive-set term) changes per sweep.  In 1D
    the system is tridiagonal: the two bands of A_w are stored once, and each
    solve adds d to the diagonal band and calls ``solveh_banded`` (banded
    Cholesky).  In 2D it is solved by CG to a given relative residual,
    preconditioned by one V-cycle over levels coarsened per axis
    (n -> (n + 1) // 2) until at most ``_COARSEST_NODES`` nodes remain.  The
    bilinear prolongations and the coarse products of A_w depend only on the
    grid and A_w, so they are built here once; what depends on d lives in
    the function ``system(d)`` returns, not here.  A CG failure raises: there
    is no fallback.
    """

    def __init__(self, grid: Grid, A_w: sp.csr_matrix):
        self.A = A_w
        self.dim = grid.dim
        if grid.dim == 1:
            # upper form of solveh_banded: row 0 the superdiagonal, row 1 the diagonal
            self.bands = np.vstack([np.r_[0.0, A_w.diagonal(1)], A_w.diagonal()])
        P, coarse = [], [A_w]
        n = grid.n_axis_interior
        while grid.dim == 2 and n * n > _COARSEST_NODES:
            P1 = _prolongation_1d(n)
            P.append(sp.kron(P1, P1).tocsr())
            coarse.append((P[-1].T @ coarse[-1] @ P[-1]).tocsr())
            n = P1.shape[1]
        self.prolongations = tuple(P)
        self.restrictions = tuple(P_l.T.tocsr() for P_l in P)
        self.coarse_A_w = tuple(coarse[1:])

    def system(self, d: np.ndarray):
        """The solve of (A_w + diag(d)) w = b: ``solve(b, x0, rtol) -> (w, cg_iters)``.

        In 1D a banded Cholesky solve (x0 and rtol unused, no CG
        iterations).  In 2D CG from x0 to the relative residual rtol,
        preconditioned by a V-cycle built here, once: every solve of the
        returned function shares the matrix and the hierarchy, which are
        freed with it.
        """
        if self.dim == 1:
            bands = self.bands.copy()
            bands[1] += d
            return lambda b, x0, rtol: (solveh_banded(bands, b), 0)
        A = (self.A + sp.diags_array(d)).tocsr()
        M = LinearOperator(A.shape, matvec=_VCycle(self, A, d), dtype=float)
        return lambda b, x0, rtol: _cg(
            A, b, x0, rtol, "multigrid-preconditioned CG for the w-equation", M=M)


def _check_feasible(u_interior: np.ndarray, slack: float = 1e-9) -> None:
    lo = float(u_interior.min(initial=0.0))
    hi = float(u_interior.max(initial=1.0))
    # written so that NaN (every comparison false) fails as well
    if not (lo >= -slack and hi <= 1.0 + slack):
        raise ValueError(
            f"previous phase field infeasible: range [{lo}, {hi}] outside [0, 1]"
        )


def pdas_step_CH(
    grid: Grid,
    stencil: ConvolutionStencil,
    params: ModelParams,
    tau: float,
    u_prev: np.ndarray,
    m_prev: np.ndarray,
    config: PdasConfig,
    w_solver: WSolver,
    W: sp.csr_matrix | None = None,
    init_sets: ActiveSets | None = None,
    w0: np.ndarray | None = None,
) -> StepOut:
    """One constrained Cahn-Hilliard-type step (beta > 0).

    Solves the coupled system

        mu M (u - u_prev) + tau (M + beta K) w = 0
        xi u - gamma(*)u - w + lambda = c_F m_prev - c_F/2   (+ complementarity)

    with the discrete xi = c_gamma_h - c_F, one number on the interior
    (every interior node sees the full stencil), and the convolution taken
    at the previous level (explicit mode, rows become diagonal in u) or at
    the current level (implicit mode, one sparse
    solve of the full (u_int, u_ext, w) system per sweep).  The exterior
    layer is closed by the zero-flux condition, explicitly or as part of the
    coupled solve respectively.  ``w_solver`` is
    ``WSolver(grid, w_matrix(grid, K, beta, tau))``; implicit mode also needs
    ``W = conv_rows(stencil, all nodes)``.
    """
    if params.beta <= 0:
        raise ValueError("pdas_step_CH requires beta > 0")
    ids = grid.interior_ids
    mI = grid.mass_interior
    c_F = params.c_F
    mu = params.mu
    xi = stencil.c_gamma_h_interior - c_F
    if not xi > 0.0:
        raise ValueError(
            "discrete xi = c_gamma_h - c_F must be > 0 on interior nodes "
            "for the constrained Cahn-Hilliard step"
        )
    u_prev = np.asarray(u_prev, dtype=float)
    m_prev = np.asarray(m_prev, dtype=float)
    u_prev_I = u_prev[ids]
    _check_feasible(u_prev_I)
    if init_sets is None:
        init_sets = sets_from_bounds(u_prev_I)
    c_eff = config.c_penalty * (mu / tau + stencil.c_gamma_h_interior + 1.0)

    if config.convolution_mode == "explicit":
        conv_prev = convolve(stencil, u_prev)
        q = conv_prev[ids] + c_F * m_prev - 0.5 * c_F
        u_E = exterior_closure(stencil, conv_prev)
        w_start = w0 if w0 is not None else np.zeros(grid.n_interior)
        warm = {"w": np.asarray(w_start, dtype=float)}

        def w_system(sets):
            inactive = sets.inactive
            ubar = sets.upper.astype(float)
            rhs = mu * mI * (
                u_prev_I - np.where(inactive, q / xi, ubar)
            )
            return (inactive, ubar, rhs,
                    w_solver.system(np.where(inactive, mu * mI / xi, 0.0)))
        system = _held(w_system)

        def solve_for_sets(sets, rtol):
            inactive, ubar, rhs, solve = system(sets)
            w, n_cg = solve(rhs, warm["w"], rtol)
            warm["w"] = w
            u_I = np.where(inactive, (w + q) / xi, ubar)
            return u_I, u_E, w, w + q - xi * u_I, n_cg
    else:
        # Implicit convolution: one sparse solve of the full coupled system
        # per sweep.  Unknown ordering [u_int, u_ext, w].
        ext = grid.exterior_ids
        n_i, n_e = grid.n_interior, ext.size
        W_II = W[ids][:, ids]
        W_IE = W[ids][:, ext]
        W_EI = W[ext][:, ids]
        M_I = sp.diags_array(mI).tocsr()
        S_E = sp.diags_array(stencil.c_gamma_h[ext]).tocsr() - W[ext][:, ext]
        rhs_R2_inactive = c_F * m_prev - 0.5 * c_F
        I_i = sp.eye_array(n_i, format="csr")
        Z_ie = sp.csr_matrix((n_i, n_e))
        Z_ee = sp.csr_matrix((n_e, n_i))

        def solve_for_sets(sets, rtol):
            inactive = sets.inactive
            ubar = sets.upper.astype(float)
            # Phase rows: identity on active nodes, operator rows elsewhere.
            D_in = sp.diags_array(inactive.astype(float)).tocsr()
            D_act = sp.diags_array((~inactive).astype(float)).tocsr()
            R2_uI = D_in @ (xi * I_i - W_II) + D_act
            R2_uE = D_in @ (-W_IE)
            R2_w = D_in @ (-I_i)
            rhs2 = np.where(inactive, rhs_R2_inactive, ubar)
            A = sp.bmat(
                [
                    [mu * M_I, Z_ie, w_solver.A],
                    [R2_uI, R2_uE, R2_w],
                    [-W_EI, S_E, Z_ee],
                ],
                format="csc",
            )
            rhs = np.concatenate([mu * mI * u_prev_I, rhs2, np.zeros(n_e)])
            x = spsolve(A, rhs)
            u_I = x[:n_i]
            u_E = x[n_i : n_i + n_e]
            w = x[n_i + n_e :]
            conv_I = W_II @ u_I + W_IE @ u_E
            return u_I, u_E, w, w + conv_I + c_F * m_prev - 0.5 * c_F - xi * u_I, 0

    def residual(u_I, w, g, inactive):
        # the w-equation and the inactive phase rows, each as a change of u
        return _max_abs(u_I - u_prev_I + (w_solver.A @ w) / (mu * mI), g[inactive] / xi)

    return _pdas_iterate(grid, solve_for_sets, init_sets, c_eff, config, residual,
                         loose=grid.dim == 2 and config.convolution_mode == "explicit")


def pdas_step_local_obstacle(
    grid: Grid,
    params: ModelParams,
    tau: float,
    A: sp.csr_matrix,
    u_prev: np.ndarray,
    m_prev: np.ndarray,
    config: PdasConfig,
    init_sets: ActiveSets | None = None,
) -> StepOut:
    """Backward-Euler local obstacle step (beta = 0): mu du/dt with eps^2 K stiffness.

    The chemical potential is eliminated, and each sweep is one reduced SPD
    solve on the inactive set with ``A = local_obstacle_matrix(grid, K,
    params, tau, eps)``: sparse direct in 1D; in 2D CG started from the
    previous sweep's iterate (from u_prev in the first sweep), loose until
    the sets repeat and then refined to ``config.lin_tol`` (see the module
    docstring).  A CG failure raises ``RuntimeError``.
    """
    if grid.layer != 0:
        raise ValueError("local steps expect a grid without interaction layer")
    ids = grid.interior_ids
    mI = grid.mass_interior
    c_F = params.c_F
    u_prev = np.asarray(u_prev, dtype=float)
    m_prev = np.asarray(m_prev, dtype=float)
    u_prev_I = u_prev[ids]
    _check_feasible(u_prev_I)
    if init_sets is None:
        init_sets = sets_from_bounds(u_prev_I)
    # the natural multiplier scale mu/tau + c_F + eps^2 max(K_ii / m_i), read off A
    c_eff = config.c_penalty * (float((A.diagonal() / mI).max()) + 2.0 * c_F + 1.0)
    b = mI * (params.mu / tau * u_prev_I - 0.5 * c_F + c_F * m_prev)
    warm = {"u": u_prev_I}

    def reduced_system(sets):
        # A is SPD, so its principal submatrix is too; the pinned values
        # enter the right-hand side through A @ (upper as 0/1)
        idx = np.flatnonzero(sets.inactive)
        return idx, A[idx][:, idx], (b - A @ sets.upper.astype(float))[idx]
    system = _held(reduced_system)

    def solve_for_sets(sets, rtol):
        u_I = sets.upper.astype(float)
        idx, A_in, rhs = system(sets)
        n_cg = 0
        if idx.size and grid.dim == 1:
            u_I[idx] = factorized(A_in.tocsc())(rhs)
        elif idx.size:
            u_I[idx], n_cg = _cg(A_in, rhs, warm["u"][idx], rtol,
                                 "CG for the reduced local-obstacle system")
        warm["u"] = u_I
        return u_I, None, None, (b - A @ u_I) / mI, n_cg

    def residual(u_I, w, g, inactive):
        # the reduced equation on the inactive set, as a change of u
        return _max_abs(g[inactive] * (tau / params.mu))

    return _pdas_iterate(grid, solve_for_sets, init_sets, c_eff, config, residual,
                         loose=grid.dim == 2)


def verify_complementarity(u, lam) -> float:
    """Max complementarity/bound residual of a (u, lambda) pair.

    Splits lambda into nonnegative parts and returns the largest of
    |min(lambda_+, 1-u)|, |min(lambda_-, u)| and the bound violations.
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    lam_p = np.maximum(lam, 0.0)
    lam_m = np.maximum(-lam, 0.0)
    res = 0.0
    if u.size:
        res = max(
            float(np.abs(np.minimum(lam_p, 1.0 - u)).max()),
            float(np.abs(np.minimum(lam_m, u)).max()),
            float(np.maximum(-u, 0.0).max()),
            float(np.maximum(u - 1.0, 0.0).max()),
        )
    return res
