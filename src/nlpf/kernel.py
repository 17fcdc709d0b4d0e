"""Radial interaction kernels and their closed-form constants.

The solver uses a compactly supported polynomial kernel

    gamma(r) = eps^2 * C(delta) * max(0, 1 - r^2/delta^2),    r = |x - y|,

whose scaling constant C(delta) is fixed so that the second moment of the
kernel equals 2*n*eps^2 in n space dimensions.  That normalization makes the
nonlocal diffusion operator consistent with -eps^2 * Laplace in the limit of
vanishing interaction radius.  Closed forms:

    C(delta) = 15/(2 delta^3)        (n = 1)
    C(delta) = 24/(pi delta^4)       (n = 2)

    c_gamma  = integral of gamma     = 10 eps^2/delta^2   (n = 1)
                                     = 12 eps^2/delta^2   (n = 2)

``KernelSpec.scaling`` owns C(delta), ``c_gamma_closed_form`` c_gamma;
``KernelSpec`` checks the dimension and the radius once, when it is built.

The interface parameter of the constrained model is xi = c_gamma - c_F.
Smaller xi gives sharper interfaces; xi = 0 is the sharp-interface threshold.
The quadrature cross-checks of these constants are test oracles and live in
the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "kernel_eval", "c_gamma_closed_form"]


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one radial kernel. Immutable and safe to share.

    epsilon : interface-scaling coefficient (> 0)
    delta   : interaction radius (> 0)
    dim     : spatial dimension, 1 or 2
    """

    epsilon: float
    delta: float
    dim: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")

    @property
    def scaling(self) -> float:
        """C(delta), giving the kernel the second moment 2*n*eps^2."""
        if self.dim == 1:
            return 15.0 / (2.0 * self.delta**3)
        return 24.0 / (math.pi * self.delta**4)


def kernel_eval(spec: KernelSpec, r):
    """Evaluate gamma at distance(s) r >= 0.

    Accepts scalars or arrays; returns the same shape.  Exactly zero for
    r >= delta (compact support), nonnegative everywhere.
    """
    r = np.asarray(r, dtype=float)
    amp = spec.epsilon**2 * spec.scaling
    out = amp * np.maximum(0.0, 1.0 - (r / spec.delta) ** 2)
    return float(out) if out.ndim == 0 else out


def c_gamma_closed_form(spec: KernelSpec) -> float:
    """c_gamma = integral of gamma: 10 eps^2/delta^2 (1D), 12 eps^2/delta^2 (2D)."""
    return (10.0 if spec.dim == 1 else 12.0) * spec.epsilon**2 / spec.delta**2
