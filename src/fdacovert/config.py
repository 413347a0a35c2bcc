"""Experiment configuration: flat sectioned key-value files, CLI overrides.

All units ride in the key names (_hz, _m, _dbm, _deg); angles are degrees in
config and radians internally; dBm powers convert to watts once, at parse
time.  Defaults reproduce the reference experiment set-up except the grid
step (0.05 m desk default instead of 0.01 m).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import radians
from typing import Dict, List, Optional, Tuple

from .channel import SCHEME_RANDOM, SCHEMES, LinkBudget, dbm_to_watts
from .covertness import CovertnessBudget
from .fieldmap import GridSpec
from .geometry import ArrayGeometry, DomainError, PolarPoint


class ConfigError(ValueError):
    """Invalid configuration file, key or value."""


# One row per option: (section, key, ExperimentConfig field, type tag,
# default as config text).  The dataclass fields, describe() and
# build_config all derive from this table.
_SCHEMA: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("geometry", "n_antennas", "n_antennas", "int", "64"),
    ("geometry", "carrier_hz", "carrier_hz", "float", "3e9"),
    ("geometry", "spacing_m", "spacing_m", "optfloat", ""),
    ("plan", "f_delta_hz", "f_delta_hz", "float", "1e6"),
    ("plan", "seed", "seed", "int", "0"),
    ("plan", "box_half_width_hz", "box_half_width_hz", "optfloat", ""),
    ("bob", "r_m", "bob_r_m", "float", "7.0711"),
    ("bob", "theta_deg", "bob_theta_deg", "float", "45"),
    ("budget", "p_t_dbm", "p_t_dbm", "float", "20"),
    ("budget", "sigma_b_dbm", "sigma_b_dbm", "float", "-60"),
    ("budget", "sigma_w_dbm", "sigma_w_dbm", "float", "-60"),
    ("budget", "epsilon", "epsilon", "float", "1.0"),
    ("budget", "blocklength", "blocklength", "int", "100"),
    ("budget", "delta_fep", "delta_fep", "float", "1e-5"),
    ("grid", "x_min_m", "x_min_m", "float", "0"),
    ("grid", "x_max_m", "x_max_m", "float", "40"),
    ("grid", "y_min_m", "y_min_m", "float", "0"),
    ("grid", "y_max_m", "y_max_m", "float", "40"),
    ("grid", "step_m", "step_m", "float", "0.05"),
    ("grid", "max_cells", "max_cells", "int", "10000000"),
    ("threshold", "mode", "threshold_mode", "str", "fraction"),
    ("threshold", "value", "threshold_value", "float", "0.1"),
    ("sweep", "schemes", "sweep_schemes", "strlist",
     "LPA,LinearFDA,RandomFDA,OptimizedFDA"),
    ("sweep", "n_values", "sweep_n_values", "intlist", "16,32,64"),
    ("sweep", "f_delta_values_hz", "sweep_f_delta_values_hz", "floatlist",
     "0.25e6,0.5e6,1e6,2e6"),
    ("sweep", "seeds", "sweep_seeds", "intlist", "0,1,2,3,4,5,6,7,8,9"),
    ("mc", "n_samples", "mc_n_samples", "int", "100000"),
    ("mc", "seed", "mc_seed", "int", "2025"),
)
_KEYS = frozenset((section, key) for section, key, *_ in _SCHEMA)

# type tag -> (parser of config text, field annotation)
_TAGS = {
    "int": (int, int),
    "float": (float, float),
    "optfloat": (lambda text: float(text) if text.strip() else None, Optional[float]),
    "str": (str.strip, str),
    "strlist": (lambda text: tuple(s.strip() for s in text.split(",") if s.strip()), tuple),
    "intlist": (lambda text: tuple(int(s) for s in text.split(",") if s.strip()), tuple),
    "floatlist": (lambda text: tuple(float(s) for s in text.split(",") if s.strip()), tuple),
}


def _coerce(tag: str, text: str, where: str):
    try:
        return _TAGS[tag][0](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {text!r} as {tag}") from exc


def parse_config_text(text: str, source: str = "<config>") -> Dict[Tuple[str, str], Tuple[str, str]]:
    """Parse sectioned key=value text into {(section, key): (value, where)}."""
    entries: Dict[Tuple[str, str], Tuple[str, str]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{source}, line {lineno}"
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"{where}: empty section name")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, value = line.split("=", 1)
        sk = (section, key.strip())
        if sk not in _KEYS:
            raise ConfigError(f"{where}: unknown option {section}.{key.strip()}")
        entries[sk] = (value.strip(), where)
    return entries


def parse_overrides(pairs: List[str]) -> Dict[Tuple[str, str], Tuple[str, str]]:
    """Parse repeated --set section.key=value flags."""
    entries = {}
    for pair in pairs:
        where = f"--set {pair!r}"
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ConfigError(f"{where}: expected section.key=value")
        dotted, value = pair.split("=", 1)
        section, key = dotted.split(".", 1)
        sk = (section.strip(), key.strip())
        if sk not in _KEYS:
            raise ConfigError(f"{where}: unknown option {sk[0]}.{sk[1]}")
        entries[sk] = (value.strip(), where)
    return entries


def _schema_fields(cls):
    """Declare one frozen dataclass field per _SCHEMA row, in table order."""
    cls.__annotations__ = {name: _TAGS[tag][1] for _, _, name, tag, _ in _SCHEMA}
    return dataclass(frozen=True)(cls)


@_schema_fields
class ExperimentConfig:
    """Validated, fully resolved experiment settings (fields from _SCHEMA)."""

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(
            n_antennas=self.n_antennas,
            carrier_hz=self.carrier_hz,
            spacing_m=self.spacing_m,
        )

    def bob(self) -> PolarPoint:
        return PolarPoint(self.bob_r_m, radians(self.bob_theta_deg))

    def link_budget(self) -> LinkBudget:
        return LinkBudget(
            transmit_power_w=dbm_to_watts(self.p_t_dbm),
            noise_bob_w=dbm_to_watts(self.sigma_b_dbm),
            blocklength=self.blocklength,
            frame_error_prob=self.delta_fep,
        )

    def covertness_budget(self) -> CovertnessBudget:
        return CovertnessBudget(
            epsilon=self.epsilon,
            blocklength=self.blocklength,
            noise_willie_w=dbm_to_watts(self.sigma_w_dbm),
            transmit_power_w=dbm_to_watts(self.p_t_dbm),
        )

    def grid(self) -> GridSpec:
        return GridSpec(
            x_min_m=self.x_min_m,
            x_max_m=self.x_max_m,
            y_min_m=self.y_min_m,
            y_max_m=self.y_max_m,
            step_m=self.step_m,
            max_cells=self.max_cells,
        )

    def effective_threshold(self) -> Tuple[str, float]:
        """(mode, value) with the kl mode's q derived from the budget."""
        if self.threshold_mode == "fraction":
            return "fraction", self.threshold_value
        return "kl", self.covertness_budget().threshold_q

    def describe(self) -> List[str]:
        """Canonical section.key=value lines of the resolved config."""
        lines = []
        for section, key, name, tag, _ in sorted(_SCHEMA):
            value = getattr(self, name)
            if tag.endswith("list"):
                value = ",".join(str(v) for v in value)
            lines.append(f"{section}.{key}={value}")
        return lines

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.describe()).encode()).hexdigest()


def build_config(
    file_text: Optional[str] = None,
    source: str = "<config>",
    overrides: Optional[List[str]] = None,
) -> ExperimentConfig:
    """Merge defaults, an optional config file and --set overrides."""
    merged: Dict[Tuple[str, str], Tuple[str, str]] = {
        (section, key): (default, "<default>") for section, key, _, _, default in _SCHEMA
    }
    if file_text is not None:
        merged.update(parse_config_text(file_text, source))
    if overrides:
        merged.update(parse_overrides(overrides))

    values, where = {}, {}
    for section, key, name, tag, _ in _SCHEMA:
        text, where[name] = merged[(section, key)]
        values[name] = _coerce(tag, text, where[name])
        if key in ("seed", "seeds") and min(_TAGS["intlist"][0](text), default=0) < 0:
            raise ConfigError(f"{where[name]}: {section}.{key} must be non-negative, got {text!r}")
    cfg = ExperimentConfig(**values)

    # semantic validation with the offending location attached
    for s in cfg.sweep_schemes:
        if s not in SCHEMES:
            raise ConfigError(f"{where['sweep_schemes']}: unknown scheme {s!r}")
    if len(set(cfg.sweep_schemes)) != len(cfg.sweep_schemes) or not cfg.sweep_schemes:
        raise ConfigError(
            f"{where['sweep_schemes']}: sweep.schemes must name each scheme once, "
            f"got {','.join(cfg.sweep_schemes)!r}"
        )
    if cfg.mc_n_samples < 1:
        raise ConfigError(
            f"{where['mc_n_samples']}: mc.n_samples must be >= 1, got {cfg.mc_n_samples}"
        )
    if cfg.threshold_mode not in ("fraction", "kl"):
        raise ConfigError(f"{where['threshold_mode']}: mode must be 'fraction' or 'kl'")
    if cfg.threshold_mode == "fraction" and not 0.0 < cfg.threshold_value <= 1.0:
        raise ConfigError(f"{where['threshold_value']}: fraction must lie in (0, 1]")
    if cfg.box_half_width_hz is not None and not cfg.box_half_width_hz > 0:
        raise ConfigError(
            f"{where['box_half_width_hz']}: box_half_width_hz must be > 0, "
            f"got {cfg.box_half_width_hz}"
        )
    if SCHEME_RANDOM in cfg.sweep_schemes and not cfg.sweep_seeds:
        raise ConfigError(f"{where['sweep_seeds']}: RandomFDA needs a seed in sweep.seeds")
    if not -90.0 < cfg.bob_theta_deg < 90.0:
        raise ConfigError(
            f"{where['bob_theta_deg']}: angle must lie strictly inside (-90, 90)"
        )
    try:
        cfg.geometry()
        cfg.bob()
        cfg.link_budget()
        cfg.grid()
        cfg.covertness_budget()
    except DomainError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return cfg


def load_config(path: Optional[str], overrides: Optional[List[str]] = None) -> ExperimentConfig:
    if path is None:
        return build_config(None, overrides=overrides)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_config(text, source=path, overrides=overrides)
