"""Run configuration: the sectioned key-value file format and its validation.

A run is described by a plain-text config with ``[section]`` headers, one
``key = value`` per line and ``#`` comments:

    [model]    mu, L, D, beta, c_F, alpha, rho, theta_e
    [kernel]   epsilon, delta (delta required only for nonlocal variants)
    [grid]     dim, h
    [time]     tau, T, snapshots (comma-separated times)
    [variant]  name = nonlocal_CH | nonlocal_AC | local_obstacle | local_regular
    [solver]   convolution_mode, pdas_c, pdas_max_iters, lin_tol
    [init]     preset = step(x0) | box(a,b), or file = path; theta0 = const | path
    [output]   directory, formats (csv[,vtk])

Overrides of the form ``section.key=value`` are applied before validation.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field

from .kernel import KernelSpec
from .pdas import PdasConfig
from .physics import ModelParams

__all__ = ["InitSpec", "RunConfig", "ConfigError", "parse_config_file", "parse_overrides"]

VARIANTS = ("nonlocal_CH", "nonlocal_AC", "local_obstacle", "local_regular")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class InitSpec:
    """Initial condition: a named preset or a nodal CSV file.

    kind is "step" (params = (x0,)), "box" / "frame" (params = (a, b);
    box is solid inside [a,b]^dim, frame is its complement: solid near the
    walls, liquid pool inside) or "file" (path set).  theta0 is a constant
    or a path to a nodal CSV.
    """

    kind: str = "step"
    params: tuple = (0.2,)
    path: str | None = None
    theta0: float | str = 0.0


@dataclass
class RunConfig:
    """Everything needed to execute one simulation."""

    model: ModelParams
    variant: str
    dim: int
    h: float
    tau: float
    T_final: float
    epsilon: float
    delta: float = 0.0
    snapshots: tuple = ()
    pdas: PdasConfig = field(default_factory=PdasConfig)
    init: InitSpec = field(default_factory=InitSpec)
    output_dir: str | None = None
    formats: tuple = ("csv",)
    label: str = "run"

    @property
    def is_nonlocal(self) -> bool:
        return self.variant in ("nonlocal_CH", "nonlocal_AC")

    @property
    def is_obstacle(self) -> bool:
        return self.variant != "local_regular"

    @property
    def records_energy(self) -> bool:
        """Per-step objective and projection diagnostics: implicit nonlocal CH only.

        Only there is the phase update the exact minimizer of the recorded
        objective, so descent to round-off is a meaningful check.
        """
        return self.variant == "nonlocal_CH" and self.pdas.convolution_mode == "implicit"

    def kernel_spec(self) -> KernelSpec | None:
        if not self.is_nonlocal:
            return None
        return KernelSpec(epsilon=self.epsilon, delta=self.delta, dim=self.dim)

    def validate(self) -> "RunConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"[variant] name must be one of {', '.join(VARIANTS)}; "
                f"got {self.variant!r}"
            )
        if self.dim not in (1, 2):
            raise ConfigError(f"[grid] dim must be 1 or 2, got {self.dim}")
        if not (0 < self.h < 1):
            raise ConfigError(f"[grid] h must lie in (0, 1), got {self.h}")
        if self.tau <= 0:
            raise ConfigError(f"[time] tau must be > 0, got {self.tau}")
        if self.T_final < self.tau:
            raise ConfigError("[time] T must be >= tau")
        if self.epsilon <= 0:
            raise ConfigError(f"[kernel] epsilon must be > 0, got {self.epsilon}")
        m = self.model
        if self.is_nonlocal:
            if self.delta <= 0:
                raise ConfigError(
                    "[kernel] delta must be > 0 for nonlocal variants"
                )
            spec = self.kernel_spec()
            from .kernel import c_gamma_closed_form

            xi_val = c_gamma_closed_form(spec) - m.c_F
            if self.variant == "nonlocal_CH":
                if m.beta <= 0:
                    raise ConfigError("nonlocal_CH requires [model] beta > 0")
                if xi_val <= 0:
                    raise ConfigError(
                        f"nonlocal_CH requires xi = c_gamma - c_F > 0; got {xi_val:.4g}"
                    )
            else:
                if m.beta != 0:
                    raise ConfigError("nonlocal_AC requires [model] beta = 0")
        else:
            if self.variant == "local_regular" and m.beta != 0:
                raise ConfigError("local_regular requires [model] beta = 0")
            if (
                self.variant == "local_obstacle"
                and m.beta == 0
                and m.mu / self.tau <= m.c_F
            ):
                raise ConfigError(
                    "local_obstacle (beta = 0) requires mu/tau > c_F; shrink tau"
                )
        for t in self.snapshots:
            if t < 0 or t > self.T_final + 1e-12:
                raise ConfigError(f"snapshot time {t} outside [0, T]")
        return self


_REQUIRED = {
    "model": ("mu", "L", "D", "beta", "alpha", "rho", "theta_e"),
    "kernel": ("epsilon",),
    "grid": ("dim", "h"),
    "time": ("tau", "T"),
    "variant": ("name",),
}


def _get(cp, section, key, cast=float, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _parse_init(cp) -> InitSpec:
    theta0_raw = _get(cp, "init", "theta0", cast=str, default="0.0")
    try:
        theta0 = float(theta0_raw)
    except ValueError:
        theta0 = theta0_raw  # path to a nodal CSV
    if cp.has_option("init", "file"):
        return InitSpec(kind="file", params=(), path=cp.get("init", "file"), theta0=theta0)
    preset = _get(cp, "init", "preset", cast=str, default="step(0.2)")
    m = re.fullmatch(r"\s*(step|box|frame)\s*\(([^)]*)\)\s*", preset)
    if not m:
        raise ConfigError(
            f"bad [init] preset {preset!r}; expected step(x0), box(a,b) "
            "or frame(a,b)"
        )
    kind = m.group(1)
    try:
        params = tuple(float(p) for p in m.group(2).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad numbers in [init] preset {preset!r}") from exc
    if (kind == "step" and len(params) != 1) or (
        kind in ("box", "frame") and len(params) != 2
    ):
        raise ConfigError(f"wrong arity in [init] preset {preset!r}")
    return InitSpec(kind=kind, params=params, theta0=theta0)


def _build_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    cp.optionxform = str
    return cp


def parse_config_text(text: str, label: str = "run") -> RunConfig:
    cp = _build_parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section, keys in _REQUIRED.items():
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
        for key in keys:
            if not cp.has_option(section, key):
                raise ConfigError(f"missing required key [{section}] {key}")

    variant = cp.get("variant", "name").strip()
    model = ModelParams(
        mu=_get(cp, "model", "mu", required=True),
        L=_get(cp, "model", "L", required=True),
        D=_get(cp, "model", "D", required=True),
        beta=_get(cp, "model", "beta", required=True),
        c_F=_get(cp, "model", "c_F", default=1.0 / 6.0),
        alpha=_get(cp, "model", "alpha", required=True),
        rho=_get(cp, "model", "rho", required=True),
        theta_e=_get(cp, "model", "theta_e", required=True),
    )
    delta = _get(cp, "kernel", "delta", default=0.0)
    if variant in ("nonlocal_CH", "nonlocal_AC") and not cp.has_option("kernel", "delta"):
        raise ConfigError("missing required key [kernel] delta (nonlocal variant)")

    snapshots = ()
    if cp.has_option("time", "snapshots"):
        raw = cp.get("time", "snapshots").strip()
        if raw:
            try:
                snapshots = tuple(float(s) for s in raw.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad [time] snapshots list: {raw!r}") from exc

    # has_option is False for a missing section, so the defaults apply
    pdas = PdasConfig(
        c_penalty=_get(cp, "solver", "pdas_c", default=1.0),
        max_iters=int(_get(cp, "solver", "pdas_max_iters", default=50)),
        lin_tol=_get(cp, "solver", "lin_tol", default=1e-12),
        convolution_mode=_get(cp, "solver", "convolution_mode", cast=str,
                              default="explicit"),
    )

    init = _parse_init(cp) if cp.has_section("init") else InitSpec()
    output_dir = None
    formats = ("csv",)
    if cp.has_section("output"):
        output_dir = _get(cp, "output", "directory", cast=str, default=None)
        fmt_raw = _get(cp, "output", "formats", cast=str, default="csv")
        formats = tuple(f.strip() for f in fmt_raw.split(",") if f.strip())
        for f in formats:
            if f not in ("csv", "vtk"):
                raise ConfigError(f"unknown output format {f!r}")

    cfg = RunConfig(
        model=model,
        variant=variant,
        dim=int(_get(cp, "grid", "dim", required=True)),
        h=_get(cp, "grid", "h", required=True),
        tau=_get(cp, "time", "tau", required=True),
        T_final=_get(cp, "time", "T", required=True),
        epsilon=_get(cp, "kernel", "epsilon", required=True),
        delta=delta,
        snapshots=snapshots,
        pdas=pdas,
        init=init,
        output_dir=output_dir,
        formats=formats,
        label=label,
    )
    return cfg.validate()


def parse_config_file(path: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse and validate a config file, applying ``section.key=value`` overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if overrides:
        text = _apply_overrides_text(text, overrides)
    import os

    label = os.path.splitext(os.path.basename(path))[0]
    return parse_config_text(text, label=label)


def parse_overrides(pairs: list[str]) -> list[tuple[str, str, str]]:
    out = []
    for pair in pairs:
        m = re.fullmatch(r"([\w]+)\.([\w]+)=(.*)", pair.strip())
        if not m:
            raise ConfigError(
                f"bad override {pair!r}; expected section.key=value"
            )
        out.append((m.group(1), m.group(2), m.group(3)))
    return out


def _apply_overrides_text(text: str, overrides: list[str]) -> str:
    cp = _build_parser()
    cp.read_string(text)
    for section, key, value in parse_overrides(overrides):
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    import io

    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_as_dict(cfg: RunConfig) -> dict:
    """Flatten a RunConfig for reporting."""
    return {
        "variant": cfg.variant,
        "label": cfg.label,
        "model": {
            "mu": cfg.model.mu,
            "L": cfg.model.L,
            "D": cfg.model.D,
            "beta": cfg.model.beta,
            "c_F": cfg.model.c_F,
            "alpha": cfg.model.alpha,
            "rho": cfg.model.rho,
            "theta_e": cfg.model.theta_e,
        },
        "kernel": {"epsilon": cfg.epsilon, "delta": cfg.delta},
        "grid": {"dim": cfg.dim, "h": cfg.h},
        "time": {"tau": cfg.tau, "T": cfg.T_final, "snapshots": list(cfg.snapshots)},
        "solver": {
            "convolution_mode": cfg.pdas.convolution_mode,
            "pdas_c": cfg.pdas.c_penalty,
            "pdas_max_iters": cfg.pdas.max_iters,
            "lin_tol": cfg.pdas.lin_tol,
        },
        "init": {
            "kind": cfg.init.kind,
            "params": list(cfg.init.params),
            "path": cfg.init.path,
            "theta0": cfg.init.theta0,
        },
        "output": {"directory": cfg.output_dir, "formats": list(cfg.formats)},
    }

