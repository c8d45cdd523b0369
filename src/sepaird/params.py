"""Simulation parameter vector, validation, and flat-file (de)serialization.

A run of the simulator is a pure function of ``(SimParams, seed)``.  The
defaults reproduce the standard calibration: a wild type with a basic
reproduction number of 2.5 and a 50% pre-symptomatic transmission share.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid parameter value or malformed configuration input."""


@dataclass(frozen=True)
class SimParams:
    """Full parameter vector plus policy switches for one simulation run.

    Counts are per the standard calibration; `*0` fields describe the wild
    type.  `mutation_prob`, `cross_immunity`, `cross_protection`,
    `isolate_symptomatic` and `social_distancing` are the sweepable
    scenario axes; their defaults here are configuration choices.
    """

    n_agents: int = 10000
    n_initial_infected: int = 10
    daily_contacts: int = 10
    infectiousness0: float = 0.0625
    latent_end0: float = 4.0
    incubation_end0: float = 6.0
    duration0: float = 8.0
    fatality0: float = 0.01
    symptomatic_chance0: float = 0.7
    course_sd_frac: float = 0.1
    mutation_prob: float = 0.01
    mutation_mean: float = 0.0
    mutation_sd: float = 0.05
    cross_immunity: float = 0.5
    cross_protection: float = 0.99
    drift_prob: float = 0.1
    isolate_symptomatic: bool = False
    social_distancing: float = 0.0
    horizon: int = 500
    seed: int = 42


_PROBABILITY_FIELDS = (
    "infectiousness0",
    "fatality0",
    "symptomatic_chance0",
    "mutation_prob",
    "cross_immunity",
    "cross_protection",
    "drift_prob",
    "social_distancing",
)

# the type name of each field, from its annotation
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimParams)}
PARAM_NAMES = tuple(_FIELD_TYPES)


def validate_params(p: SimParams) -> SimParams:
    """Return ``p`` unchanged if every invariant holds.

    Raises:
        ConfigError: naming the first violated field.
    """
    for name in PARAM_NAMES:
        value = getattr(p, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if p.n_agents < 1:
        raise ConfigError("n_agents must be >= 1 (zero agents)")
    if p.n_initial_infected < 0:
        raise ConfigError("n_initial_infected must be >= 0")
    if p.n_initial_infected > p.n_agents:
        raise ConfigError("n_initial_infected exceeds n_agents")
    if p.daily_contacts < 1:
        raise ConfigError("daily_contacts must be >= 1")
    for name in _PROBABILITY_FIELDS:
        value = getattr(p, name)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} out of [0,1]")
    for name in ("latent_end0", "incubation_end0", "duration0"):
        if getattr(p, name) <= 0.0:
            raise ConfigError(f"{name} must be > 0")
    if not p.duration0 > p.incubation_end0 > p.latent_end0:
        raise ConfigError(
            "course ordering violated: requires duration0 > incubation_end0 > latent_end0"
        )
    if p.mutation_sd < 0.0:
        raise ConfigError("mutation_sd must be >= 0")
    if p.course_sd_frac < 0.0:
        raise ConfigError("course_sd_frac must be >= 0")
    if p.horizon < 1:
        raise ConfigError("horizon must be >= 1")
    # the random stream takes a 64-bit seed; wider values would alias others
    if not 0 <= p.seed < 1 << 64:
        raise ConfigError("seed out of [0, 2**64 - 1]")
    return p


def parse_scalar(name: str, raw: str):
    """Parse one value with the type of the named parameter field.

    ``-0.0`` reads as ``0.0``: the two compare equal, so they must key and
    seed one scenario.
    """
    raw = raw.strip()
    kind = _FIELD_TYPES[name]
    try:
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        value = float(raw)
        return 0.0 if value == 0.0 else value
    except ValueError:
        raise ConfigError(f"cannot parse value for {name}: {raw!r}") from None


def read_key_values(text: str, names) -> dict:
    """Read flat ``key = value`` lines into ``{key: (line number, raw value)}``.

    ``#`` starts a comment and blank lines are skipped.  A line without
    ``=``, a key not in ``names`` and a key given twice are errors that
    name their line.
    """
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in names:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, raw)
    return entries


def parse_config_text(text: str) -> dict:
    """Parse config text read by ``read_key_values`` into a dict.

    Unknown keys are errors; values are typed per the SimParams field.
    """
    entries = read_key_values(text, PARAM_NAMES)
    return {key: parse_scalar(key, raw) for key, (_, raw) in entries.items()}


def params_from_config(text: str) -> SimParams:
    """Build validated SimParams from config text; absent keys keep defaults."""
    return validate_params(SimParams(**parse_config_text(text)))


def params_to_config(p: SimParams) -> str:
    """Serialize to the flat key=value format, one field per line."""
    lines = []
    for name in PARAM_NAMES:
        value = getattr(p, name)
        if _FIELD_TYPES[name] == "bool":
            value = "true" if value else "false"
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def load_params(path: str) -> SimParams:
    """Read and validate a parameter file."""
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_config(fh.read())
