"""Oracles that the test suite checks the solvers against.

The oracles recompute what the solvers compute through independent routes:
the kernel constants by radial quadrature, the kernel written out as a
polynomial, dense matrices built from coordinates instead of stencils,
exhaustive 3^N active-set enumeration instead of the active-set iteration,
a dense KKT certificate of the explicit CH step read as a convex QP,
and the nonlocal AC projection iterated as an active-set loop instead of
evaluated in closed form, and the interface runs scanned one grid line at a
time instead of in one array pass.  The fixed sparse matrices are also
assembled as sparse sums and products (the 2D stiffness as a Kronecker sum),
the implicit sweep's rows are selected by diagonal products, and the
initial fields are read off the node coordinates.  Sizes are deliberately
tiny.  ``sets_from_bounds``
gives tests a starting estimate of the active sets other than the solvers'
all-inactive one: a field's own bound pattern.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import fixed_quad

from nlpf.grid import trapezoid_weights
from nlpf.kernel import KernelSpec, kernel_eval
from nlpf.nonlocal_ops import convolve, exterior_closure
from nlpf.pdas import ActiveSets, StepOut, _pdas_iterate, _Sweep

__all__ = [
    "c_gamma_quadrature", "second_moment_check", "gamma_poly", "trapezoid_masses",
    "dense_conv_matrix", "dense_stiffness_1d", "enumerate_CH_explicit",
    "ch_explicit_qp", "certify_box_qp",
    "enumerate_CH_implicit", "enumerate_local_obstacle", "pdas_step_AC_nonlocal",
    "sets_from_bounds", "interface_runs", "kron_stiffness", "sum_w_matrix",
    "sum_local_obstacle_matrix", "phase_rows_by_products", "initial_field_from_coords", "assert_same_entries",
]

#: Gauss-Legendre order for the radial quadratures (exact for the polynomial
#: integrands used here).
GAUSS_ORDER = 60


def _radial_integral(spec: KernelSpec, moment: int) -> float:
    """Integral of |z|^moment * gamma(|z|) over R^n by radial quadrature.

    Gauss-Legendre on [0, delta] with the surface weight: 2 in 1D (both
    signs of z), 2*pi*r in 2D.
    """
    surface = 2.0 if spec.dim == 1 else 2.0 * math.pi
    val, _ = fixed_quad(
        lambda r: surface * r ** (moment + spec.dim - 1) * kernel_eval(spec, r),
        0.0,
        spec.delta,
        n=GAUSS_ORDER,
    )
    return float(val)


def second_moment_check(spec: KernelSpec) -> float:
    """Relative error of the kernel's second moment against 2*n*eps^2.

    A correctly normalized kernel returns <= 1e-8; larger values signal a
    broken kernel implementation (wrong C(delta) or support handling).
    """
    target = 2.0 * spec.dim * spec.epsilon**2
    got = _radial_integral(spec, moment=2)
    if not math.isfinite(got):
        raise ArithmeticError("second-moment quadrature did not converge")
    return abs(got - target) / target


def c_gamma_quadrature(spec: KernelSpec) -> float:
    """Integral of gamma over R^n by quadrature (cross-check of the closed form)."""
    return _radial_integral(spec, moment=0)


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


def kron_stiffness(grid):
    """The stiffness as a sparse sum: the 1D P1 Neumann stiffness K1 in CSR,
    and in 2D the Kronecker sum kron(M1, K1) + kron(K1, M1), M1 the 1D
    trapezoidal mass."""
    n = grid.n_axis_interior
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    off = np.full(n - 1, -1.0)
    K1 = sp.diags_array([off, main, off], offsets=[-1, 0, 1]).tocsr() * (1.0 / grid.h)
    if grid.dim == 1:
        return K1
    M1 = sp.diags_array(trapezoid_weights(n, grid.h)).tocsr()
    return (sp.kron(M1, K1) + sp.kron(K1, M1)).tocsr()


def assert_same_entries(A, ref):
    """A stores exactly the nonzero entries of ``ref``, bit for bit, in the same
    CSR layout.  ``ref`` may hold explicit zeros: ``sp.kron`` forms dense
    blocks when the 1D factor is dense enough (at most 5 nodes per axis)."""
    A = sp.csr_array(A)
    ref = sp.csr_array(ref, copy=True)
    ref.eliminate_zeros()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(ref, name)), name


def sum_w_matrix(grid, beta, tau):
    """tau (M + beta K) as a sparse sum over ``kron_stiffness``, in CSR."""
    M = sp.diags_array(grid.mass_interior).tocsr()
    return (tau * (M + beta * kron_stiffness(grid))).tocsr()


def sum_local_obstacle_matrix(grid, params, tau, eps):
    """(mu/tau - c_F) M + eps^2 K as a sparse sum over ``kron_stiffness``, in CSR."""
    r = params.mu / tau
    return (sp.diags_array((r - params.c_F) * grid.mass_interior)
            + eps**2 * kron_stiffness(grid)).tocsr()


def phase_rows_by_products(B, inactive):
    """diag(keep) B + diag(1 - keep) E: the implicit sweep's matrix of the
    coupled matrix B, with E the identity shifted down by n_i rows and keep
    0 on the active phase rows."""
    n_i = inactive.size
    n_e = B.shape[0] - 2 * n_i
    keep = np.concatenate([np.ones(n_i), inactive, np.ones(n_e)])
    E = sp.eye_array(B.shape[0], k=-n_i, format="csr")
    return sp.diags_array(keep) @ B + sp.diags_array(1.0 - keep) @ E


def initial_field_from_coords(grid, init):
    """The interior u0 of a step, box or frame init, read off ``grid.coords()``."""
    c = grid.coords()[grid.interior_ids]
    if init.kind == "step":
        return (c[:, 0] <= init.params[0] + 1e-12).astype(float)
    a, b = init.params
    inside = np.all((c >= a - 1e-12) & (c <= b + 1e-12), axis=1).astype(float)
    return 1.0 - inside if init.kind == "frame" else inside


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


def ch_explicit_qp(grid, W, params, tau, u_prev, m_prev, K_dense):
    """(H, b) of the explicit-convolution CH step as min 1/2 u'Hu - b'u on [0, 1]^n.

    w eliminated from the rows of ``enumerate_CH_explicit``: with
    S = M + beta K over the interior nodes, H = xi M + (mu/tau) M S^{-1} M and
    b = M q + (mu/tau) M S^{-1} M u_prev.  H is SPD for xi > 0, so the QP is
    strictly convex and its KKT point is the step's unique solution; the
    gradient H u - b is -M lambda.
    """
    ids = grid.interior_ids
    mI = grid.lumped_mass[ids]
    c_F = params.c_F
    xi_vec = (W @ np.ones(grid.n_nodes))[ids] - c_F
    q = (W @ u_prev)[ids] + c_F * m_prev - 0.5 * c_F
    M = np.diag(mI)
    G = (params.mu / tau) * M @ np.linalg.solve(M + params.beta * K_dense, M)
    return np.diag(xi_vec * mI) + G, mI * q + G @ u_prev[ids]


def certify_box_qp(H, b, upper, lower):
    """KKT certificate of min 1/2 u'Hu - b'u on [0, 1]^n at the given active sets.

    One dense solve: u is 1 on ``upper``, 0 on ``lower`` and solves the free
    rows of H u = b.  Returns (u, violation), the violation being the largest
    breach of the KKT conditions as a change of u: a free value outside
    [0, 1], or a gradient H u - b of the wrong sign on a pinned node (> 0 at
    1, < 0 at 0) divided by H's diagonal.  For a strictly convex QP a
    violation of 0 (to round-off) certifies u as the unique solution.
    """
    u = upper.astype(float)
    free = ~(upper | lower)
    u[free] = np.linalg.solve(H[np.ix_(free, free)], (b - H @ u)[free])
    step = (H @ u - b) / np.diag(H)
    return u, float(max(np.max(-u[free], initial=0.0), np.max(u[free] - 1.0, initial=0.0),
                        np.max(step[upper], initial=0.0), np.max(-step[lower], initial=0.0)))


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
    c = float(denom.max()) + 1.0

    def system(sets):
        u_I = np.where(sets.inactive, g / denom, sets.upper.astype(float))
        out = _Sweep(u_I, u_E, None, g - denom * u_I, 0)
        return lambda rtol, last: out

    return _pdas_iterate(grid, u_prev[ids], system, init_sets, c, config)


def sets_from_bounds(u_interior: np.ndarray) -> ActiveSets:
    """Active sets from a field's own bound pattern (within 1e-9)."""
    u_interior = np.asarray(u_interior, dtype=float)
    return ActiveSets(upper=u_interior >= 1.0 - 1e-9, lower=u_interior <= 1e-9)


def _line_runs(classes: np.ndarray) -> list:
    """(cells, mid nodes) of each maximal interface run along one line."""
    a = classes[:-1]
    b = classes[1:]
    is_iface = ~(((a == 0) & (b == 0)) | ((a == 2) & (b == 2)))
    runs = []
    start = None
    for i, flag in enumerate(is_iface):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((i - start, int((classes[start : i + 1] == 1).sum())))
            start = None
    if start is not None:
        n = len(is_iface)
        runs.append((n - start, int((classes[start:] == 1).sum())))
    return runs


def interface_runs(cls: np.ndarray) -> tuple:
    """(widths, interior_nodes) of ``metrics.interface_width``, line by line.

    ``cls`` holds the node classes (0 LOW, 1 MID, 2 HIGH) on the interior
    grid shape.  The lines are every x-line, then in 2D every y-line; only
    the lines that cross from LOW to HIGH count, or if none does, the lines
    with a MID node.  No run at all gives ``([0], [0])``.
    """
    lines = [ln for axis in reversed(range(cls.ndim))
             for ln in np.moveaxis(cls, axis, -1).reshape(-1, cls.shape[axis])]
    crossing = [ln for ln in lines if (ln == 0).any() and (ln == 2).any()]
    if not crossing:
        crossing = [ln for ln in lines if (ln == 1).any()]
    runs = [run for ln in crossing for run in _line_runs(ln)] or [(0, 0)]
    return [r[0] for r in runs], [r[1] for r in runs]
