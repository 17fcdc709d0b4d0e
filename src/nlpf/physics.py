"""Model parameters, temperature coupling and energy diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .nonlocal_ops import ConvolutionStencil, apply_Bh

__all__ = [
    "ModelParams",
    "coupling_m",
    "regular_potential_dF",
    "greens_dual_norm",
    "objective_Jk",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by all model variants.

    mu: relaxation time (> 0); L: latent heat; D: thermal diffusivity (> 0);
    beta: de-regularization parameter (>= 0); c_F: potential scaling (> 0);
    alpha, rho, theta_e: coupling amplitude / steepness / equilibrium
    temperature.  alpha < 1 is required so the coupling stays below 1/2 in
    magnitude and the pure phases remain minima of the tilted well.
    """

    mu: float
    L: float
    D: float
    beta: float = 0.0
    c_F: float = 1.0 / 6.0
    alpha: float = 0.9
    rho: float = 20.0
    theta_e: float = 1.0

    def __post_init__(self):
        # each check passes only valid values: NaN fails every comparison
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("mu", "D", "c_F", "rho"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not (0 < self.alpha < 1):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def coupling_m(params: ModelParams, theta):
    """Bounded undercooling coupling (alpha/pi) * arctan(rho * (theta_e - theta)).

    |result| < alpha/2 < 1/2 for all inputs.
    """
    theta = np.asarray(theta, dtype=float)
    out = (params.alpha / np.pi) * np.arctan(params.rho * (params.theta_e - theta))
    return float(out) if out.ndim == 0 else out


def regular_potential_dF(u, m_val):
    """Derivative of the smooth double well 0.25 u^2 (1-u)^2 + m (u^3/3 - u^2/2).

    Returns 0.5 u (1-u)(1-2u) + m (u^2 - u); vanishes at u = 0 and u = 1.
    """
    u = np.asarray(u, dtype=float)
    out = 0.5 * u * (1.0 - u) * (1.0 - 2.0 * u) + np.asarray(m_val) * (u**2 - u)
    return float(out) if out.ndim == 0 else out


def greens_dual_norm(grid: Grid, v: np.ndarray, green_solve) -> float:
    """Squared dual norm of an interior field under the (I - beta Lap) Green map.

    ``green_solve`` is the solve of M + beta K, as returned by
    ``stepper.exact_solver(grid, 1.0, beta)``: return the lumped inner
    product of v and z with (M + beta K) z = M v.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_interior,):
        raise ValueError(f"expected interior field of length {grid.n_interior}")
    mv = grid.mass_interior * v
    return float(np.dot(mv, green_solve(mv)))


def objective_Jk(
    grid: Grid,
    stencil: ConvolutionStencil,
    params: ModelParams,
    tau: float,
    u: np.ndarray,
    u_prev: np.ndarray,
    m_prev: np.ndarray,
    green_solve,
) -> float:
    """Per-step objective whose constrained minimizer is the phase update.

    Evaluates, with the grid's lumped quadrature,

        1/2 (u, B_h u)  -  c_F/2 ||u||^2  +  mu/(2 tau) ||u - u_prev||_dual^2
        + (c_F/2 - c_F m_prev, u)

    where the first term runs over the extended domain (it vanishes on the
    exterior for flux-closed fields) and the rest over the interior; the
    dual norm uses ``green_solve`` (see ``greens_dual_norm``).  The solver's
    converged iterate never increases this value relative to the previous
    level; the time loop records that as a descent diagnostic.
    """
    u = np.asarray(u, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    m_prev = np.asarray(m_prev, dtype=float)
    ids = grid.interior_ids
    mI = grid.mass_interior
    c_F = params.c_F

    e_nonlocal = 0.5 * float(np.dot(grid.lumped_mass * u, apply_Bh(stencil, u)))
    uI = u[ids]
    e_pot = float(np.dot(mI, -0.5 * c_F * uI**2 + (0.5 * c_F - c_F * m_prev) * uI))
    e_time = (
        params.mu
        / (2.0 * tau)
        * greens_dual_norm(grid, uI - u_prev[ids], green_solve)
    )
    return e_nonlocal + e_pot + e_time
