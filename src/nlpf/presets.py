"""Built-in parameter sets for the three reference experiments.

ex1: 1D solidification front, constrained Cahn-Hilliard dynamics versus a
     diffuse local obstacle model.
ex2: 1D interaction-radius sweep at fixed epsilon; the constrained solution
     approaches the local one as delta shrinks (xi grows).
ex3: 2D solidification of a square pool, all four model variants.
"""

from __future__ import annotations

from .config import InitSpec, RunConfig
from .pdas import PdasConfig
from .physics import ModelParams

__all__ = ["example1_config", "example2_config", "example3_config", "EX2_DELTAS"]

#: Interaction radii swept in ex2 (the reference publication does not list
#: its sweep; these halve delta twice starting from the ex1 radius).
EX2_DELTAS = (0.1540, 0.0770, 0.0385)


def example1_config(variant: str = "nonlocal_CH", convolution_mode: str = "explicit") -> RunConfig:
    """1D front: mu=0.0012, eps=0.02, beta=0.02, delta=0.1540 (xi ~ 0.002)."""
    beta = 0.02 if variant == "nonlocal_CH" else 0.0
    cfg = RunConfig(
        model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=beta, alpha=0.9, rho=20.0,
                          theta_e=1.0),
        variant=variant,
        dim=1,
        h=0.0024,
        tau=0.0003,
        T_final=0.05,
        epsilon=0.02,
        delta=0.1540 if variant.startswith("nonlocal") else 0.0,
        snapshots=(0.0, 0.0013, 0.0163),
        pdas=PdasConfig(convolution_mode=convolution_mode),
        init=InitSpec(kind="step", params=(0.2,), theta0=0.0),
        label=f"ex1_{variant}",
    )
    return cfg.validate()


def example2_config(delta: float | None = 0.1540, variant: str = "nonlocal_CH") -> RunConfig:
    """1D sweep base: h=0.0012, beta=0.08, comparison time t=0.0037."""
    nonlocal_ = variant.startswith("nonlocal")
    beta = 0.08 if variant == "nonlocal_CH" else 0.0
    cfg = RunConfig(
        model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=beta, alpha=0.9, rho=20.0,
                          theta_e=1.0),
        variant=variant,
        dim=1,
        h=0.0012,
        tau=0.0003,
        T_final=0.0037,
        epsilon=0.02,
        delta=delta if nonlocal_ else 0.0,
        snapshots=(0.0037,),
        pdas=PdasConfig(),
        init=InitSpec(kind="step", params=(0.2,), theta0=0.0),
        label=f"ex2_{variant}" + (f"_d{delta:g}" if nonlocal_ else ""),
    )
    return cfg.validate()


def example3_config(variant: str = "nonlocal_CH") -> RunConfig:
    """2D solidification: solid frame at the walls, liquid pool inside.

    mu=0.0003, eps=0.01, h~0.0048; four variants; fronts propagate inward
    from the walls.  Interface widths are compared at t = 0.0041.  The run
    ends at t = 0.015, the last reported snapshot time.
    """
    beta = 0.002 if variant == "nonlocal_CH" else 0.0
    nonlocal_ = variant.startswith("nonlocal")
    cfg = RunConfig(
        model=ModelParams(mu=0.0003, L=0.5, D=1.0, beta=beta, alpha=0.9, rho=10.0,
                          theta_e=1.0),
        variant=variant,
        dim=2,
        h=0.0048,
        tau=0.0001,
        T_final=0.015,
        epsilon=0.01,
        delta=0.0826 if nonlocal_ else 0.0,
        snapshots=(0.002, 0.0041, 0.008, 0.015),
        pdas=PdasConfig(),
        init=InitSpec(kind="frame", params=(0.1, 0.9), theta0=0.0),
        label=f"ex3_{variant}",
    )
    return cfg.validate()
