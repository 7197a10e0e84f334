"""Experiment configuration: a single strict JSON document.

Unknown keys are rejected rather than ignored so typos fail fast, and a
schema_version field is required; the current schema is 3. Each section
is a frozen dataclass that checks its own invariants when it is built;
the objective and budget sections are the engine's ObjectiveConfig and
BudgetConfig. One parser reads every section from its field
annotations. The resolved document round-trips losslessly, which is
what lets a metrics file regenerate byte-identically from its embedded
header.
"""

from __future__ import annotations

import enum
import functools
import json
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .discrepancy import BiasMode
from .errors import ConfigError
from .objective import ObjectiveConfig, check_bounds
from .scheduler import BudgetConfig

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class PolicySection:
    vocab_size: int = 8
    eos_id: int = 0
    n_features: int = 512
    init_scale: float = 0.3
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ConfigError("policy.vocab_size: must be >= 2")
        if not 0 <= self.eos_id < self.vocab_size:
            raise ConfigError("policy.eos_id: out of vocabulary range")
        if self.n_features < 1:
            raise ConfigError("policy.n_features: must be >= 1")
        if self.temperature <= 0:
            raise ConfigError("policy.temperature: must be positive")


@dataclass(frozen=True)
class MismatchSection:
    scale: float = 0.22
    seed: int = 7

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ConfigError("mismatch.scale: must be nonnegative")


@dataclass(frozen=True)
class TasksSection:
    max_len: int = 8

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ConfigError("tasks.max_len: must be >= 1")


@dataclass(frozen=True)
class RunSection:
    n_iterations: int = 200
    n_probes: int = 256

    def __post_init__(self) -> None:
        if self.n_iterations < 0:
            raise ConfigError("run.n_iterations: must be nonnegative")
        if self.n_probes < 1:
            raise ConfigError("run.n_probes: must be >= 1")


@dataclass(frozen=True)
class ScheduleSection:
    length_model: str = "lognormal"
    median: float = 32.0
    sigma: float = 1.0
    max_len: int = 512
    n_iterations: int = 6
    seeds: list[int] = field(default_factory=lambda: [11, 12, 13, 14, 15])

    def __post_init__(self) -> None:
        if self.length_model not in ("policy", "lognormal"):
            raise ConfigError(f"schedule.length_model: unknown model {self.length_model!r}")
        if self.median <= 0 or self.sigma < 0:
            raise ConfigError("schedule.median must be positive and schedule.sigma nonnegative")
        if self.max_len < 1:
            raise ConfigError("schedule.max_len: must be >= 1")
        if self.n_iterations < 1:
            raise ConfigError("schedule.n_iterations: must be >= 1")
        if not self.seeds:
            raise ConfigError("schedule.seeds: must be non-empty")


@dataclass(frozen=True)
class CompoundingSection:
    mu: float = 0.01
    n_steps: int = 100
    bias_mode: BiasMode = BiasMode.THEOREM_ALIGNED
    align_target: float = 1.0
    reward_seed: int = 0

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ConfigError("compounding.mu: must be positive")
        if self.n_steps < 1:
            raise ConfigError("compounding.n_steps: must be >= 1")


@dataclass(frozen=True)
class SweepSection:
    bounds: list[list[float]] = field(
        default_factory=lambda: [[0.5, 5.0], [0.5, 2.0], [0.4, 5.0]]
    )
    n_iterations: int = 80

    def __post_init__(self) -> None:
        if len(self.bounds) < 2:
            raise ConfigError("sweep.bounds: need at least two settings")
        for pair in self.bounds:
            if len(pair) != 2:
                raise ConfigError("sweep.bounds: expected a list of [alpha, beta] pairs")
            check_bounds(*pair, "sweep.bounds")
        if self.n_iterations < 1:
            raise ConfigError("sweep.n_iterations: must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 1234
    policy: PolicySection = field(default_factory=PolicySection)
    mismatch: MismatchSection = field(default_factory=MismatchSection)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    tasks: TasksSection = field(default_factory=TasksSection)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    run: RunSection = field(default_factory=RunSection)
    schedule: ScheduleSection | None = None
    compounding: CompoundingSection | None = None
    sweep: SweepSection | None = None

    def to_dict(self) -> dict:
        """The resolved document: every field, enums as their values, absent sections left out."""
        out = asdict(
            self, dict_factory=lambda items: {k: v.value if isinstance(v, enum.Enum) else v for k, v in items}
        )
        return {k: v for k, v in out.items() if v is not None}


_SCALARS = {int: ("integer", int), float: ("number", (int, float)), str: ("string", str)}
_type_hints = functools.cache(typing.get_type_hints)  # evaluating the annotations is most of a parse


def _parse(tp, value, where: str):
    """value read as annotation tp; a dataclass is built from an object that has no unknown keys."""
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        hints = _type_hints(tp)
        unknown = set(value) - set(hints)
        if unknown:
            raise ConfigError(f"{where or 'top level'}: unknown key(s) {sorted(unknown)}")
        return tp(**{k: _parse(hints[k], v, f"{where}.{k}" if where else k) for k, v in value.items()})
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _parse(tp, value, where)
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [_parse(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(tp, enum.EnumMeta):
        values = [m.value for m in tp]
        if value not in values:
            raise ConfigError(f"{where}: expected one of {values}, got {value!r}")
        return tp(value)
    name, accepted = _SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    return tp(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    if "schema_version" not in data:
        raise ConfigError("missing required key schema_version")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {data['schema_version']!r}; expected {SCHEMA_VERSION}"
        )
    return _parse(ExperimentConfig, data, "")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    return config_from_dict(data)


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        schedule=ScheduleSection(),
        compounding=CompoundingSection(),
        sweep=SweepSection(),
    )
