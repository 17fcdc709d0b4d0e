"""Primal-dual active-set solvers for the per-step complementarity systems.

Each time step of an obstacle variant requires a bound-constrained solve: the
phase value is pinned to 1 on an upper active set, to 0 on a lower active
set, and satisfies a linear equation on the inactive remainder, with the
multiplier carrying the complementarity.  The active sets are iterated with
the standard test

    upper <- { lambda + c (u - 1) > 0 },    lower <- { lambda + c u < 0 },

until they repeat.  Warm-starting from the previous time level's sets makes
the iteration converge in one to three sweeps once the interface moves only
a few cells per step; a step without previous sets (the first of a run)
starts with every node inactive.

One driver, ``_pdas_iterate``, runs every step as one attempt of at most
``PdasConfig.max_iters`` sweeps: it checks the previous level, picks the
starting sets, builds each new set's linear system through the route's
``system(sets)`` (dropping the previous one first) and solves it through the
returned ``solve(rtol, last)``, warm-started from the previous sweep.  A
route only says how to build and solve one system.  A step whose exact
sweeps return to an earlier set of active sets is cycling and ends at once;
a step that does not converge names its cause, and the time loop stops
there.

PDAS is a semismooth Newton method, and a sweep before the last only has to
choose the next sets, so the 2D CG sweeps are inexact (an inexact Newton
forcing term): each is solved to the loose relative residual
``_SWEEP_RTOL``.  Once the sets repeat, the same system is refined to
``_LIN_TOL``, CG starting from the loose iterate with the same operator and
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
node sees the full stencil.  The ``WSolver`` solves it: in 1D, where the
system is tridiagonal, by banded Cholesky (``factorized``) of bands stored
once plus the sweep's diagonal, and in 2D by conjugate gradients
preconditioned with one symmetric multigrid V-cycle (bilinear prolongations
fixed per grid, Galerkin coarse operators rebuilt when the sets change,
because the inactive-set diagonal changes the matrix; a refinement reuses
them).  Every transfer is the tensor product of a 1D one and is applied per
axis, as two 1D sparse products on the (n, n) view of a vector; no 2D
transfer is held.  Every 2D operator of that hierarchy is a stencil on a
tensor grid, 5-point on the fine level and 9-point on the coarse ones, and
is held in DIA form (one array per diagonal, no column indices): the fixed
part once per run, and per set of active sets a float32 copy of it with the
set's part added in; on a coarse level that part is formed per axis from
the (n, n) view of the inactive-set diagonal (see ``_VCycle``).  The
hierarchy is held and applied in single precision (float32): a
preconditioner only has to be spectrally close to the inverse.  CG, the
tolerances and every iterate stay double; CG applies the double system as
A_w x + d x, without a copy of A_w, and a set's levels are summed in
double and rounded to float32 once.

The local obstacle step solves, per sweep, the principal submatrix of
``local_obstacle_matrix`` = (mu/tau - c_F) M + eps^2 K on the inactive set:
by ``factorized`` in 1D (tridiagonal in the compressed order), and in 2D by
unpreconditioned CG warm-started from the previous sweep (the matrix is well
conditioned, ~13 after Jacobi scaling on the ex3 grid; a refinement reuses
the extracted submatrix).  In both 2D routes a CG that misses its tolerance
raises: there is no direct-solve fallback.  Both run ``cg``, the iteration
of ``scipy.sparse.linalg.cg`` operation for operation with a callable
preconditioner.  The implicit-convolution step solves each sweep's coupled
system with SuperLU (``spsolve``), the only use of ``scipy.sparse.linalg``,
which is imported at its first call: an explicit run never loads it.

The solvers assemble nothing that is fixed over a run: the w-solver (around
the w-equation matrix ``w_matrix``), the local obstacle matrix and, for
implicit convolution, the coupled matrix ``coupled_matrix`` are passed in by
the caller (the time loop builds them once per run).  ``w_matrix`` and
``local_obstacle_matrix`` are ``grid.mass_plus_stiffness``: the w-equation
matrix stays in DIA, the form every w-solve uses, and the local obstacle
matrix is converted once to the CSR whose principal submatrices a 2D sweep
extracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import spbtrf, spbtrs

# factorized is called through this module's name, which nlpf_bench/spans.py
# wraps to time every 1D sweep factorization
from .grid import Grid, factorized, mass_plus_stiffness, upper_bands
from .nonlocal_ops import ConvolutionStencil, conv_rows, convolve, exterior_closure
from .physics import ModelParams

__all__ = [
    "ActiveSets",
    "PdasConfig",
    "StepOut",
    "WSolver",
    "cg",
    "coupled_matrix",
    "pdas_step_CH",
    "pdas_step_local_obstacle",
    "spsolve",
    "verify_complementarity",
    "w_matrix",
    "local_obstacle_matrix",
]

#: 2D w-solve: coarsen until a level has at most this many nodes, then solve
#: it directly; damping of the Jacobi smoother; CG iteration cap of both 2D
#: CG solves; relative residual of a 2D CG sweep before its sets repeat, and
#: of its refinement once they do (the direct routes ignore both).
_COARSEST_NODES = 200
_JACOBI_DAMPING = 0.8
_CG_MAX_ITERS = 500
_SWEEP_RTOL = 1e-4
_LIN_TOL = 1e-12


@dataclass
class PdasConfig:
    """Active-set step parameters: the convolution mode of the CH step."""

    # the sweeps of one step: a constant, not a setting, kept on the class
    # because nlpf_bench/spans.py reads it off a step's argument
    max_iters: ClassVar[int] = 50
    convolution_mode: str = "explicit"

    def __post_init__(self):
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

    def key(self) -> bytes:
        """The sets packed into bytes: two sets of one size are equal iff their keys are."""
        return np.packbits(self.upper).tobytes() + np.packbits(self.lower).tobytes()


@dataclass
class StepOut:
    """One phase update: the result of every variant's phase step.

    u is the full-domain field (exterior layer closed on nonlocal grids);
    w and lam live on interior nodes and are None where the variant has no
    chemical potential or multiplier.  sets are the final active sets, None
    for the solve-free variants.  iters/converged are the active-set sweep
    count and convergence (0 and True for the solve-free variants);
    cg_iters counts the CG iterations of every sweep.  kkt_residual is the
    largest residual of the accepted iterate's own equations, scaled to a
    change of u (None for the solve-free variants; NaN propagates).  cause
    says why a step that did not converge stopped (None if it converged),
    and cycle is the number of sets in the cycle of active sets that ended
    the step (0 if none did).
    """

    u: np.ndarray
    w: np.ndarray | None = None
    lam: np.ndarray | None = None
    sets: ActiveSets | None = None
    iters: int = 0
    converged: bool = True
    cg_iters: int = 0
    kkt_residual: float | None = None
    cause: str | None = None
    cycle: int = 0


def _max_abs(*parts: np.ndarray) -> float:
    """Largest absolute entry over the arrays (0 if all are empty); NaN propagates."""
    return float(np.max([np.abs(p).max(initial=0.0) for p in parts]))


class _Sweep(NamedTuple):
    """The solution of one sweep's linear system.

    u on the interior and on the exterior layer (u_E None on a grid without
    one), w (None where beta = 0), the phase-row value g (the multiplier on
    the active nodes, the residual of the phase equation on the inactive
    ones) and the CG iterations.
    """

    u_I: np.ndarray
    u_E: np.ndarray | None
    w: np.ndarray | None
    g: np.ndarray
    cg_iters: int


def _pdas_iterate(grid: Grid, u_prev_I: np.ndarray, system, init_sets: ActiveSets | None,
                  c: float, config: PdasConfig, residual,
                  loose: bool = False) -> StepOut:
    """Drive the active-set fixed point of one step from the previous level u_prev_I.

    Checks that u_prev_I is feasible and runs one attempt of at most
    ``config.max_iters`` sweeps from ``init_sets`` (the previous step's
    sets), or from the all-inactive estimate when there are none, whose
    first unconstrained solve pins near-final sets at once.  A route
    supplies ``system(sets)``, which builds the linear system of one set of
    active sets and returns ``solve(rtol, last) -> _Sweep``: its solution to
    the relative residual rtol, warm-started from ``last``, the previous
    sweep's (None in the first sweep of the step); a direct route ignores
    both.  ``system`` is called once per new set of active sets, after the
    previous system has been dropped: one system (operator, V-cycle) is alive
    at a time, and none outlives the step.  ``residual(u_I, w, g,
    inactive)`` is the step's KKT residual at the accepted iterate.

    With ``loose`` (the CG routes) a sweep is solved to ``_SWEEP_RTOL``, and
    once the sets repeat the same system is solved again to ``_LIN_TOL``
    and the sets are tested again.  Without it every sweep is solved to
    ``_LIN_TOL`` and the first repeat is accepted.  Refinements count as
    sweeps.

    Without ``loose`` the attempt ends without converging when the new sets
    equal an earlier set other than the current one: an exact sweep's new
    sets are a function of its sets alone, so the iteration has entered a
    cycle it cannot leave (``cycle`` counts its sets).  A loose sweep's new
    sets depend on its warm start too, and the ex3 CH runs do revisit a set
    and then converge, so the CG routes keep only the sweep limit.  ``cause``
    names why a step did not converge.
    """
    _check_feasible(u_prev_I)
    sets = init_sets
    if sets is None:
        n = u_prev_I.size
        sets = ActiveSets(np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    rtol = _SWEEP_RTOL if loose else _LIN_TOL
    tol, solve, last = rtol, None, None
    converged, cg_iters = False, 0
    seen, cycle = {}, 0  # the key of each set of the step -> its position
    for iters in range(1, config.max_iters + 1):
        if solve is None:
            if not loose:
                seen[sets.key()] = len(seen)
            solve = system(sets)
        last = solve(tol, last)
        cg_iters += last.cg_iters
        inactive = sets.inactive
        lam = np.where(inactive, 0.0, last.g)
        new = ActiveSets(upper=lam + c * (last.u_I - 1.0) > 0.0,
                         lower=lam + c * last.u_I < 0.0)
        if not new.same_as(sets):
            first = seen.get(new.key()) if seen else None
            if first is not None:  # back to an earlier set
                cycle = len(seen) - first
                break
            sets, tol, solve = new, rtol, None
        elif tol == _LIN_TOL:
            converged = True
            break
        else:
            tol = _LIN_TOL  # refine this system, then test the sets again
    u_I, u_E, w, g, _ = last
    u = u_I
    if u_E is not None:
        u = np.empty(grid.n_nodes)
        u[grid.interior_ids] = u_I
        u[grid.exterior_ids] = u_E
    cause = None
    if cycle:
        cause = f"the active sets cycle through {cycle} sets"
    elif not converged:
        cause = f"the active sets did not repeat within {config.max_iters} sweeps"
    kkt = residual(u_I, w, g, inactive)
    return StepOut(u, w, lam, sets, iters, converged, cg_iters, kkt, cause, cycle)


def w_matrix(grid: Grid, beta: float, tau: float) -> sp.dia_array:
    """tau * (M + beta K) on interior nodes: the w-equation matrix, in DIA form."""
    return tau * mass_plus_stiffness(grid, 1.0, beta)


def local_obstacle_matrix(grid: Grid, params: ModelParams, tau: float, eps: float) -> sp.csr_array:
    """(mu/tau - c_F) M + eps^2 K on interior nodes: the local obstacle matrix.

    The model has beta = 0, and the matrix is SPD only for mu/tau > c_F.
    Returned in CSR, the format whose principal submatrices a sweep extracts.
    """
    if params.beta != 0:
        raise ValueError("the local obstacle step has beta = 0")
    r = params.mu / tau
    if r <= params.c_F:
        raise ValueError(
            f"mu/tau = {r} must exceed c_F = {params.c_F} for the local obstacle "
            "step (shrink tau)"
        )
    return mass_plus_stiffness(grid, r - params.c_F, eps**2).tocsr()


def coupled_matrix(grid: Grid, stencil: ConvolutionStencil, params: ModelParams,
                   w_solver: WSolver) -> sp.csr_array:
    """The implicit-convolution CH matrix over [u_int, u_ext, w], every phase row inactive.

    Rows: the w-equation mu M u_int + A_w w, the phase rows
    xi u_int - (gamma (*) u)_int - w, and the exterior closure
    c_gamma_h u_ext - (gamma (*) u)_ext, with A_w ``w_solver.A`` and the
    convolution rows of every node (``conv_rows``).  Fixed over a run.
    """
    W = conv_rows(stencil, np.arange(grid.n_nodes))
    ids, ext = grid.interior_ids, grid.exterior_ids
    n_i = grid.n_interior
    xi = stencil.c_gamma_h_interior - params.c_F
    W_I, W_E = W[ids], W[ext]
    return sp.bmat([
        [params.mu * sp.diags_array(grid.mass_interior), None, w_solver.A],
        [xi * sp.eye_array(n_i) - W_I[:, ids], -W_I[:, ext], -sp.eye_array(n_i)],
        [-W_E[:, ids], sp.diags_array(stencil.c_gamma_h[ext]) - W_E[:, ext], None],
    ], format="csr")


def _select_phase_rows(B: sp.csr_array, inactive: np.ndarray) -> sp.csr_array:
    """B with the phase row of each active node j replaced by the row of u_j.

    B is ``coupled_matrix``; an active phase row keeps none of B's entries
    and gets a 1 in column j.  Entry for entry the sum diag(keep) B +
    diag(1 - keep) E, with E the identity shifted down by n_i rows, formed
    by scaling B's data per row: the sum drops the emptied entries, as the
    product drops its zeros.
    """
    n_i = inactive.size
    keep = np.ones(B.shape[0])
    keep[n_i : 2 * n_i] = inactive
    kept = sp.csr_array((B.data * np.repeat(keep, np.diff(B.indptr)), B.indices, B.indptr),
                        shape=B.shape)
    j = np.flatnonzero(~inactive)
    return kept + sp.csr_array((np.ones(j.size), (n_i + j, j)), shape=B.shape)


def spsolve(A: sp.csc_array, b: np.ndarray) -> np.ndarray:
    """scipy's SuperLU solve of A x = b, imported on the first call.

    Only implicit convolution solves with SuperLU, so a run without it never
    loads ``scipy.sparse.linalg``.
    """
    from scipy.sparse.linalg import spsolve as superlu_solve

    return superlu_solve(A, b)


def cg(A, b: np.ndarray, x0: np.ndarray | None = None, *, rtol: float = 1e-5,
       atol: float = 0.0, maxiter: int | None = None, M=None, callback=None):
    """Conjugate gradients for SPD A: ``(x, info)``, info 0 or the iterations run.

    The iteration of ``scipy.sparse.linalg.cg``, operation for operation and
    with its keywords, except that the preconditioner M is a callable
    r -> M^{-1} r (None: none).  It stops once ||b - A x|| < max(atol,
    rtol ||b||) and calls ``callback(x)`` after each iteration.
    """
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    if maxiter is None:
        maxiter = len(b) * 10
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x if x.any() else b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = r if M is None else M(r)
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if callback:
            callback(x)
    return x, maxiter


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


def _tensor_apply(F, x: np.ndarray) -> np.ndarray:
    """(F kron F) x by the per-axis factor F: F X F^T on the (n, n) view X of x."""
    n = F.shape[1]
    return (F @ (F @ x.reshape(n, n)).T).T.ravel()


def _set_weights(Q) -> sp.csr_array:
    """[W_0^T; W_1^T] of the composite prolongation Q (n x m), in CSR.

    W_s[i, I] = Q[i, I] Q[i, I + s] (W_1 has m - 1 columns), so the coarse
    operator (Q kron Q)^T diag(d) (Q kron Q) has the diagonals W_s^T D W_t of
    ``_VCycle``, D the (n, n) view of d.  Q's entries are dyadic, so these
    products are exact.
    """
    Q = Q.toarray()
    return sp.csr_array(np.vstack([(Q * Q).T, (Q[:, :-1] * Q[:, 1:]).T]))


def _diagonal(data: np.ndarray, offsets: np.ndarray, m: int, a: int, b: int) -> np.ndarray:
    """The diagonal of a stencil on m x m nodes, of the grid offset (a, b).

    A writable (m, m) view of the DIA data (one row per entry of the
    ascending ``offsets``), indexed by the node of the column: entry [I, J]
    couples node (I, J) with node (I - a, J - b).  Where m < 3 two grid
    offsets share one diagonal, on disjoint entries.
    """
    return data[np.searchsorted(offsets, a * m + b)].reshape(m, m)


def _single(data: np.ndarray, like: sp.dia_array) -> sp.dia_array:
    """The stencil of ``like``'s offsets and shape with ``data`` rounded once to float32."""
    return sp.dia_array((data.astype(np.float32), like.offsets), shape=like.shape)


class _PlusDiagonal(NamedTuple):
    """The operator x -> A x + d x of A + diag(d), applied without forming the sum."""

    A: sp.dia_array
    d: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.A @ x
        y += self.d * x
        return y


def _band_cholesky(A: sp.dia_array) -> np.ndarray:
    """The upper banded Cholesky factor (LAPACK ``spbtrf``) of a symmetric float32 stencil.

    DIA data is indexed by column, as LAPACK's upper band storage is, so the
    diagonal at offset k >= 0 is copied whole into band row kd - k (kd the
    largest offset); the entries that fall outside the matrix are not read.
    A matrix that is not positive definite raises ``LinAlgError``: there is
    no fallback.
    """
    upper = A.offsets >= 0
    kd = int(A.offsets[-1])
    bands = np.zeros((kd + 1, A.shape[1]), dtype=np.float32)
    bands[kd - A.offsets[upper]] = A.data[upper]
    factor, info = spbtrf(bands, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"coarsest multigrid level: leading minor {info} is not positive definite")
    return factor


class _VCycle:
    """One symmetric multigrid V-cycle for A = A_w + diag(d), built per active sets.

    Transfers act per axis on the (n, n) view of a vector (``_tensor_apply``):
    P x as P1 X P1^T, R r as P1^T Y P1.  Level l holds the Galerkin operator,
    the solver's fixed coarse A_w plus Q^T diag(d) Q with Q = Q_l kron Q_l.
    That part is the 9-point stencil whose diagonal at the grid offset (s, t)
    is E_{s,t} = W_s^T D W_t, D the (n, n) view of d and W_s as in
    ``_set_weights``: one product S D S^T gives the four with s, t in {0, 1},
    symmetry gives E_{-s,-t}, and E_{1,-1} is E_{1,1} shifted by one column.
    They are added by slices into a double copy of the level's DIA data
    (see ``WSolver``), which is then rounded once to float32; the fine level
    is the solver's A_w rounded once, its offset-0 row summed with d in
    double first.  Every level, the Jacobi smoother (read off each level's
    offset-0 row), the transfers and the coarsest factor are float32: a
    cycle rounds its double residual to float32 on entry and returns
    double.  One damped-Jacobi sweep before and one after each
    coarse correction, and a banded Cholesky solve (LAPACK spbtrs, factor
    ``_band_cholesky``) on the coarsest level.  The cycle is a loop, not a
    recursive closure, so the hierarchy is freed as soon as the system that
    built it is dropped.
    """

    def __init__(self, solver: WSolver, d: np.ndarray):
        self.transfers = solver.transfers
        A = solver.A
        mid = A.offsets.size // 2  # offset 0: the middle of the symmetric offsets
        fine = _single(A.data, A)
        fine.data[mid] = A.data[mid] + d  # the sum in double, rounded once
        self.A = [fine]
        n = math.isqrt(d.size)
        D = d.reshape(n, n)
        for S, A_w in zip(solver.set_weights, solver.coarse_A_w):
            m = (S.shape[0] + 1) // 2
            E = (S @ (S @ D).T).T  # S D S^T: block (s, t) is W_s^T D W_t
            E00, E01, E10, E11 = E[:m, :m], E[:m, m:], E[m:, :m], E[m:, m:]
            C, off = A_w.data.copy(), A_w.offsets  # the sum in double, rounded once
            _diagonal(C, off, m, 0, 0)[:] += E00
            _diagonal(C, off, m, 0, 1)[:, 1:] += E01
            _diagonal(C, off, m, 0, -1)[:, :-1] += E01
            _diagonal(C, off, m, 1, 0)[1:] += E10
            _diagonal(C, off, m, -1, 0)[:-1] += E10
            _diagonal(C, off, m, 1, 1)[1:, 1:] += E11
            _diagonal(C, off, m, -1, -1)[:-1, :-1] += E11
            _diagonal(C, off, m, 1, -1)[1:, :-1] += E11
            _diagonal(C, off, m, -1, 1)[:-1, 1:] += E11
            self.A.append(_single(C, A_w))
        self.smooth = [_JACOBI_DAMPING / A_l.diagonal() for A_l in self.A[:-1]]
        self.coarsest = _band_cholesky(self.A[-1])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        rhs, pre = [r.astype(np.float32)], []
        for A_l, S, (_, P1T) in zip(self.A, self.smooth, self.transfers):
            x = S * rhs[-1]
            pre.append(x)
            res = A_l @ x
            np.subtract(rhs[-1], res, out=res)
            rhs.append(_tensor_apply(P1T, res))
        x = spbtrs(self.coarsest, rhs[-1])[0]
        for l in reversed(range(len(self.transfers))):
            x = _tensor_apply(self.transfers[l][0], x)
            x += pre[l]
            res = self.A[l] @ x
            np.subtract(rhs[l], res, out=res)
            res *= self.smooth[l]
            x += res
        return x.astype(np.float64)


class WSolver:
    """Solves (A_w + diag(d)) w = b, the w-equation of one active-set sweep.

    ``A_w`` is ``w_matrix(grid, beta, tau)``, DIA and fixed over a run; the
    nonnegative diagonal d (the inactive-set term) changes per sweep.  In 1D
    the system is tridiagonal: the two bands of A_w are stored once, and each
    system adds d to the diagonal band and factors the sum once
    (``factorized``).  In 2D it is solved by CG to a given relative residual,
    preconditioned by one V-cycle over levels coarsened per axis
    (n -> (n + 1) // 2) until at most ``_COARSEST_NODES`` nodes remain.
    What depends only on the grid and A_w is built here once; what depends on
    d lives in the function ``system(d)`` returns.  Transfers are held per
    axis: ``transfers`` pairs each level's 1D prolongation P1 with its CSR
    transpose, both float32 (the V-cycle's precision; their entries 0, 0.5
    and 1 are exact), and ``set_weights`` holds each coarse level's weights
    (``_set_weights``) of the composite prolongation from the fine grid.  In
    2D every operator is a stencil held once in DIA form (``sp.dia_array``,
    whose offsets are those of the stored entries, ascending): ``A`` is A_w,
    5-point, and each of ``coarse_A_w`` is 9-point, the Galerkin product of
    a 5-point operator under bilinear transfer (formed in double through a
    Kronecker transfer that is not kept).  A CG failure raises: there is no
    fallback.
    """

    def __init__(self, grid: Grid, A_w: sp.dia_array):
        self.dim = grid.dim
        n = grid.n_axis_interior
        self.A = A_w
        if grid.dim == 1:
            self.bands = upper_bands(A_w)
        transfers, weights, coarse = [], [], []
        Q, C = sp.identity(n, format="csr"), A_w
        while grid.dim == 2 and n * n > _COARSEST_NODES:
            P1 = _prolongation_1d(n)
            P1_single = P1.astype(np.float32)  # entries 0, 0.5 and 1: exact
            transfers.append((P1_single, P1_single.T.tocsr()))
            Q = Q @ P1  # dyadic weights: exact
            weights.append(_set_weights(Q))
            P = sp.kron(P1, P1).tocsr()
            C = (P.T @ C @ P).tocsr()
            n = P1.shape[1]
            coarse.append(sp.dia_array(C))
        self.transfers = tuple(transfers)
        self.set_weights = tuple(weights)
        self.coarse_A_w = tuple(coarse)

    def system(self, d: np.ndarray):
        """The solve of (A_w + diag(d)) w = b: ``solve(b, x0, rtol) -> (w, cg_iters)``.

        In 1D a banded Cholesky solve, factored here (x0 and rtol unused, no
        CG iterations).  In 2D CG from x0 to the relative residual rtol on
        the operator x -> A x + d x (``_PlusDiagonal``, which holds A and d,
        no copy), preconditioned by a float32 V-cycle built here, once:
        every solve of the returned function shares the hierarchy, which is
        freed with it.
        """
        if self.dim == 1:
            solve = factorized(self.bands + [np.zeros_like(d), d])
            return lambda b, x0, rtol: (solve(b), 0)
        A, M = _PlusDiagonal(self.A, d), _VCycle(self, d)
        return lambda b, x0, rtol: _cg(
            A, b, x0, rtol, "multigrid-preconditioned CG for the w-equation", M=M)


def _check_feasible(u_interior: np.ndarray) -> None:
    lo = float(u_interior.min(initial=0.0))
    hi = float(u_interior.max(initial=1.0))
    # written so that NaN (every comparison false) fails as well
    if not (lo >= -1e-9 and hi <= 1.0 + 1e-9):
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
    B: sp.csr_array | None = None,
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
    the current level (implicit mode, one sparse solve per sweep of the full
    (u_int, u_ext, w) system).  The exterior layer is closed by the zero-flux
    condition, explicitly or as part of the coupled solve respectively.
    ``w_solver`` is ``WSolver(grid, w_matrix(grid, beta, tau))``; implicit
    mode also needs ``B = coupled_matrix(grid, stencil, params, w_solver)``,
    of which a sweep replaces the phase rows of the active nodes.
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
    c = mu / tau + stencil.c_gamma_h_interior + 1.0

    if config.convolution_mode == "explicit":
        conv_prev = convolve(stencil, u_prev)
        q = conv_prev[ids] + c_F * m_prev - 0.5 * c_F
        u_E = exterior_closure(stencil, conv_prev)
        w_start = np.asarray(np.zeros(grid.n_interior) if w0 is None else w0, dtype=float)

        def system(sets):
            inactive = sets.inactive
            ubar = sets.upper.astype(float)
            rhs = mu * mI * (u_prev_I - np.where(inactive, q / xi, ubar))
            solve_w = w_solver.system(np.where(inactive, mu * mI / xi, 0.0))

            def solve(rtol, last):
                w, n_cg = solve_w(rhs, w_start if last is None else last.w, rtol)
                u_I = np.where(inactive, (w + q) / xi, ubar)
                return _Sweep(u_I, u_E, w, w + q - xi * u_I, n_cg)
            return solve
    else:
        # Implicit convolution: one sparse solve of the coupled system per
        # sweep.  B (``coupled_matrix``) has every phase row inactive; a sweep
        # puts the row u_j = ubar_j of each active node j in its place.
        n_i = grid.n_interior
        n_e = grid.exterior_ids.size
        r = c_F * m_prev - 0.5 * c_F

        def system(sets):
            rhs2 = np.where(sets.inactive, r, sets.upper.astype(float))
            x = spsolve(_select_phase_rows(B, sets.inactive).tocsc(),
                        np.concatenate([mu * mI * u_prev_I, rhs2, np.zeros(n_e)]))
            out = _Sweep(x[:n_i], x[n_i : n_i + n_e], x[n_i + n_e :],
                         r - (B @ x)[n_i : 2 * n_i], 0)
            return lambda rtol, last: out

    def residual(u_I, w, g, inactive):
        # the w-equation and the inactive phase rows, each as a change of u
        return _max_abs(u_I - u_prev_I + (w_solver.A @ w) / (mu * mI), g[inactive] / xi)

    return _pdas_iterate(grid, u_prev_I, system, init_sets, c, config, residual,
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
    solve on the inactive set with ``A = local_obstacle_matrix(grid, params,
    tau, eps)``: banded Cholesky in 1D; in 2D CG started from the
    previous sweep's iterate (from u_prev in the first sweep), loose until
    the sets repeat and then refined to ``_LIN_TOL`` (see the module
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
    # the natural multiplier scale mu/tau + c_F + eps^2 max(K_ii / m_i), read off A
    c = float((A.diagonal() / mI).max()) + 2.0 * c_F + 1.0
    b = mI * (params.mu / tau * u_prev_I - 0.5 * c_F + c_F * m_prev)

    def system(sets):
        # A is SPD, so its principal submatrix is too; the pinned values
        # enter the right-hand side through A @ (upper as 0/1)
        idx = np.flatnonzero(sets.inactive)
        rhs = (b - A @ sets.upper.astype(float))[idx]
        if grid.dim == 2:
            A_in = A[idx][:, idx]
        elif idx.size:  # the bands of A without the couplings across pinned nodes
            sup = np.where(np.diff(idx) == 1, A.diagonal(1)[idx[:-1]], 0.0)
            solve_in = factorized(np.vstack([np.r_[0.0, sup], A.diagonal()[idx]]))

        def solve(rtol, last):
            u_I = sets.upper.astype(float)
            n_cg = 0
            if idx.size and grid.dim == 1:
                u_I[idx] = solve_in(rhs)
            elif idx.size:
                u_I[idx], n_cg = _cg(A_in, rhs, (u_prev_I if last is None else last.u_I)[idx],
                                     rtol, "CG for the reduced local-obstacle system")
            return _Sweep(u_I, None, None, (b - A @ u_I) / mI, n_cg)
        return solve

    def residual(u_I, w, g, inactive):
        # the reduced equation on the inactive set, as a change of u
        return _max_abs(g[inactive] * (tau / params.mu))

    return _pdas_iterate(grid, u_prev_I, system, init_sets, c, config, residual,
                         loose=grid.dim == 2)


def verify_complementarity(u, lam) -> float:
    """Max complementarity/bound residual of a (u, lambda) pair.

    Splits lambda into nonnegative parts and returns the largest of
    |min(lambda_+, 1-u)|, |min(lambda_-, u)| and the bound violations; inf
    if u or lambda has a non-finite entry (an infinite multiplier at a node
    on its bound would otherwise give 0).
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (np.isfinite(u).all() and np.isfinite(lam).all()):
        return math.inf
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
