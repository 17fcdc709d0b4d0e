"""The three reference experiments, read from the config files in ``nlpf/configs``.

ex1: 1D solidification front, constrained Cahn-Hilliard dynamics versus a
     diffuse local obstacle model.
ex2: 1D interaction-radius sweep at fixed epsilon; the constrained solution
     approaches the local one as delta shrinks (xi grows).
ex3: 2D solidification of a square pool, all four model variants.

Those files, which ``nlpf run`` executes, are the only copy of the parameters.
A preset parses its file with the experiment's label and no output directory;
a case without a file of its own is a ``section.key=value`` override of one.
"""

from __future__ import annotations

from pathlib import Path

from .config import RunConfig, parse_config_text

__all__ = ["example1_config", "example2_config", "example3_config", "EX2_DELTAS"]

#: Interaction radii swept in ex2 (the reference publication does not list
#: its sweep; these halve delta twice starting from the ex1 radius).
EX2_DELTAS = (0.1540, 0.0770, 0.0385)


def _shipped(name: str, label: str | None = None, overrides=()) -> RunConfig:
    """The shipped ``<name>.cfg`` with ``overrides``, labelled ``label`` (default: name)."""
    text = (Path(__file__).with_name("configs") / f"{name}.cfg").read_text(encoding="utf-8")
    cfg = parse_config_text(text, label=label or name, overrides=overrides)
    cfg.output_dir = None
    return cfg


def example1_config(variant: str = "nonlocal_CH", convolution_mode: str = "explicit") -> RunConfig:
    """1D front: ``ex1_<variant>.cfg`` in ``convolution_mode``."""
    return _shipped(f"ex1_{variant}", overrides=[f"solver.convolution_mode={convolution_mode}"])


def example2_config(delta: float | None = 0.1540, variant: str = "nonlocal_CH") -> RunConfig:
    """1D sweep: ``ex2_nonlocal_CH.cfg`` at radius ``delta``, or its local-obstacle reference.

    The reference is the same file with ``variant`` local_obstacle, beta = 0
    and no kernel radius; ``delta`` does not apply to it.
    """
    if variant == "local_obstacle":
        return _shipped("ex2_nonlocal_CH", "ex2_local_obstacle",
                        ["variant.name=local_obstacle", "model.beta=0.0", "kernel.delta=0.0"])
    return _shipped(f"ex2_{variant}", f"ex2_{variant}_d{delta:g}",
                    [f"kernel.delta={float(delta)!r}"])


def example3_config(variant: str = "nonlocal_CH") -> RunConfig:
    """2D solidification of a square pool: ``ex3_<variant>.cfg``."""
    return _shipped(f"ex3_{variant}")
