"""Run configuration: the sectioned key-value file format and its validation.

A run is described by a plain-text config with ``[section]`` headers, one
``key = value`` per line and ``#`` comments.  ``_FORMAT`` lists every key
with the RunConfig attribute it sets; required keys are marked *:

    [model]    mu*, L*, D*, beta*, c_F, alpha*, rho*, theta_e*
    [kernel]   epsilon*, delta (> 0 for the nonlocal variants)
    [grid]     dim*, h*
    [time]     tau*, T*, snapshots (comma-separated times)
    [variant]  name* = nonlocal_CH | nonlocal_AC | local_obstacle | local_regular
    [solver]   convolution_mode = explicit | implicit
    [init]     preset = step(x0) | box(a,b) | frame(a,b), or file = path
               (not both); theta0 = const | path
    [output]   directory (CSV files; a 2D run adds one VTK file per snapshot)

An absent optional key keeps its dataclass default; a number that is NaN or
infinite is an error that names its key, also in a RunConfig built in code
(``validate``).  An unknown section or
key is an error, in the file and in ``section.key=value`` overrides, which
are applied before validation.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import asdict, dataclass, field
from operator import attrgetter

from .kernel import KernelSpec
from .pdas import PdasConfig
from .physics import ModelParams

__all__ = ["InitSpec", "RunConfig", "ConfigError", "parse_config_file", "parse_config_text",
           "config_as_dict"]

VARIANTS = ("nonlocal_CH", "nonlocal_AC", "local_obstacle", "local_regular")

#: Number of parameters of each [init] preset kind.
_PRESET_ARITY = {"step": 1, "box": 2, "frame": 2}


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
        # each check passes only valid values: NaN fails every comparison
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"[time] tau must be finite and > 0, got {self.tau}")
        if not (math.isfinite(self.T_final) and self.T_final >= self.tau):
            raise ConfigError(f"[time] T must be finite and >= tau, got {self.T_final}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"[kernel] epsilon must be finite and > 0, got {self.epsilon}")
        if not math.isfinite(self.delta):
            raise ConfigError(f"[kernel] delta must be finite, got {self.delta}")
        m = self.model
        if self.variant == "nonlocal_CH":
            if m.beta <= 0:
                raise ConfigError("nonlocal_CH requires [model] beta > 0")
        elif m.beta != 0:
            raise ConfigError(f"{self.variant} requires [model] beta = 0")
        if self.is_nonlocal:
            if not self.delta > 0:
                raise ConfigError(
                    "[kernel] delta must be > 0 for nonlocal variants"
                )
            from .kernel import c_gamma_closed_form

            xi_val = c_gamma_closed_form(self.kernel_spec()) - m.c_F
            if self.variant == "nonlocal_CH" and xi_val <= 0:
                raise ConfigError(
                    f"nonlocal_CH requires xi = c_gamma - c_F > 0; got {xi_val:.4g}"
                )
        elif self.variant == "local_obstacle" and m.mu / self.tau <= m.c_F:
            raise ConfigError("local_obstacle requires mu/tau > c_F; shrink tau")
        for t in self.snapshots:
            if not (0 <= t <= self.T_final + 1e-12):
                raise ConfigError(f"[time] snapshots: time {t} outside [0, T]")
        self._validate_init()
        return self

    def _validate_init(self) -> None:
        init = self.init
        if init.kind == "file":
            if not init.path:
                raise ConfigError("[init] file: no path given")
        elif init.kind not in _PRESET_ARITY:
            raise ConfigError(f"[init] preset kind must be step, box, frame or file; "
                              f"got {init.kind!r}")
        elif len(init.params) != _PRESET_ARITY[init.kind]:
            raise ConfigError(f"[init] preset {init.kind} takes "
                              f"{_PRESET_ARITY[init.kind]} number(s), got {init.params}")
        elif not all(math.isfinite(p) for p in init.params):
            raise ConfigError(f"[init] preset {init.kind}{init.params}: numbers must be "
                              "finite")
        if not isinstance(init.theta0, str) and not math.isfinite(init.theta0):
            raise ConfigError(f"[init] theta0 must be finite, got {init.theta0}")


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _int(raw: str) -> int:
    value = _float(raw)
    if not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _floats(raw: str) -> tuple:
    return tuple(_float(s) for s in raw.split(",")) if raw else ()


#: The config format: (section, key) -> (RunConfig attribute, type, required).
#: An absent optional key keeps the dataclass default of its attribute.  The
#: [init] keys have no attribute of their own: _parse_init reads them.
_FORMAT = {
    **{("model", key): (f"model.{key}", _float, key != "c_F")
       for key in ("mu", "L", "D", "beta", "c_F", "alpha", "rho", "theta_e")},
    ("kernel", "epsilon"): ("epsilon", _float, True),
    ("kernel", "delta"): ("delta", _float, False),
    ("grid", "dim"): ("dim", _int, True),
    ("grid", "h"): ("h", _float, True),
    ("time", "tau"): ("tau", _float, True),
    ("time", "T"): ("T_final", _float, True),
    ("time", "snapshots"): ("snapshots", _floats, False),
    ("variant", "name"): ("variant", str, True),
    ("solver", "convolution_mode"): ("pdas.convolution_mode", str, False),
    ("init", "preset"): (None, None, False),
    ("init", "file"): (None, None, False),
    ("init", "theta0"): (None, None, False),
    ("output", "directory"): ("output_dir", str, False),
}
_SECTIONS = {section for section, _ in _FORMAT}


def _parse_init(sec: dict) -> InitSpec:
    """InitSpec of the [init] section; ``RunConfig.validate`` checks its values."""
    kw = {}
    if "theta0" in sec:
        try:
            kw["theta0"] = float(sec["theta0"])
        except ValueError:
            kw["theta0"] = sec["theta0"]  # path to a nodal CSV
    if "file" in sec:
        if "preset" in sec:
            raise ConfigError("[init] preset and [init] file are exclusive; set one")
        return InitSpec(kind="file", params=(), path=sec["file"], **kw)
    if "preset" not in sec:
        return InitSpec(**kw)
    preset = sec["preset"]
    m = re.fullmatch(rf"\s*({'|'.join(_PRESET_ARITY)})\s*\(([^)]*)\)\s*", preset)
    if not m:
        raise ConfigError(f"bad [init] preset {preset!r}; expected step(x0), box(a,b) "
                          "or frame(a,b)")
    try:
        params = tuple(float(p) for p in m.group(2).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad numbers in [init] preset {preset!r}") from exc
    return InitSpec(kind=m.group(1), params=params, **kw)


def parse_config_text(text: str, label: str = "run", overrides=()) -> RunConfig:
    """Parse and validate config text, applying ``section.key=value`` overrides."""
    # default_section=None: a [DEFAULT] header is an unknown section like any other
    cp = configparser.ConfigParser(comment_prefixes=("#",), inline_comment_prefixes=("#",),
                                   interpolation=None, default_section=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    raw = {section: dict(cp[section]) for section in cp.sections()}
    for pair in overrides:
        m = re.fullmatch(r"(\w+)\.(\w+)=(.*)", pair.strip())
        if not m:
            raise ConfigError(f"bad override {pair!r}; expected section.key=value")
        raw.setdefault(m.group(1), {})[m.group(2)] = m.group(3).strip()
    for section, keys in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in keys:
            if (section, key) not in _FORMAT:
                raise ConfigError(f"unknown key [{section}] {key}")

    kw = {"model": {}, "pdas": {}, "": {}}
    for (section, key), (attr, cast, required) in _FORMAT.items():
        value = raw.get(section, {}).get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
        elif attr is not None:
            group, _, name = attr.rpartition(".")
            try:
                kw[group][name] = cast(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {value!r} ({exc})") from exc
    init = _parse_init(raw.get("init", {}))
    try:
        model, pdas = ModelParams(**kw["model"]), PdasConfig(**kw["pdas"])
    except ValueError as exc:
        raise ConfigError(f"bad [model] or [solver] value: {exc}") from exc
    return RunConfig(model=model, pdas=pdas, init=init, label=label, **kw[""]).validate()


def parse_config_file(path: str, overrides=()) -> RunConfig:
    """Parse and validate a config file, applying ``section.key=value`` overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    label = os.path.splitext(os.path.basename(path))[0]
    return parse_config_text(text, label=label, overrides=overrides)


def config_as_dict(cfg: RunConfig) -> dict:
    """The resolved config under the file's section and key names, for reporting."""
    out = {"variant": cfg.variant, "label": cfg.label,
           "init": {**asdict(cfg.init), "params": list(cfg.init.params)}}
    for (section, key), (attr, _, _) in _FORMAT.items():
        if section not in ("variant", "init"):
            value = attrgetter(attr)(cfg)
            out.setdefault(section, {})[key] = list(value) if isinstance(value, tuple) else value
    return out
