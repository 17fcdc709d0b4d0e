"""nlpf: nonlocal non-isothermal phase-field dynamics with an obstacle potential.

Simulates coupled phase/temperature evolution on uniform 1D/2D grids, where
the phase field is driven by a bounded nonlocal diffusion operator and kept
in [0, 1] by a double-obstacle potential solved with a primal-dual
active-set method.  Sub-modules:

    kernel        radial kernels and their closed-form constants
    grid          uniform grids, node classification, lumped quadrature, and
                  the fixed matrices a M + b K with their exact solves
    nonlocal_ops  convolution stencil, FFT convolution, flux closure
    physics       coupling, per-step objective from a step's w and convolution
    pdas          active-set solvers for the complementarity systems
    stepper       per-variant phase steps, IMEX time loop and diagnostics
    metrics       interface widths and field distances
    config        run-configuration files
    presets       the reference experiments, read from the shipped configs/*.cfg
    fields_io     field files and the run report
    repro         reference-experiment drivers
    cli           command-line entry points

Submodules are imported lazily; ``import nlpf`` stays lightweight.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The thread-pool sizes of OpenMP, OpenBLAS, MKL and numexpr.  A pool reads
#: its variable when numpy (or numexpr) is imported, so it must be set before
#: that: ``nlpf --threads`` sets all four, a library caller sets them itself,
#: and the run report records them as the process sees them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

_SUBMODULES = (
    "kernel",
    "grid",
    "nonlocal_ops",
    "physics",
    "pdas",
    "stepper",
    "metrics",
    "config",
    "presets",
    "repro",
    "fields_io",
    "cli",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
