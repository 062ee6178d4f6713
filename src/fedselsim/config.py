"""Experiment configuration: YAML loading, defaults, strict schema validation.

Every config section is a dataclass defined here, and each checks its own
ranges and choices in `__post_init__`, in messages that begin with the field's
name. `config_from_dict` builds the dataclasses field by field from a parsed
mapping, takes float keys only as finite numbers, puts the section's key path
in front of the dataclasses' messages, and adds the checks that span sections.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import math
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .learning import train_split_size

SELECTOR_KINDS = ("random", "fedcs", "tifl", "mda", "tifl_mda")
FEDCS_ORDERS = ("filter_first", "sample_first")
# traces.build_scenario depends on this order: kind i draws its majority from pool block i.
SCENARIO_KINDS = ("low", "average", "high")
SOURCES = ("synthetic", "file")
OUTPUT_FORMATS = ("json", "csv")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _one_of(name: str, value, choices: tuple[str, ...]) -> None:
    _require(value in choices, f"{name}: expected one of {choices}, got {value!r}")


@dataclass(frozen=True)
class TraceClassParams:
    """Generator knobs for one synthetic population of traces."""

    mean_up_s: float
    mean_down_s: float
    start_available_prob: float
    weight: float = 1.0

    def __post_init__(self):
        for name in ("mean_up_s", "mean_down_s"):
            _require(getattr(self, name) > 0, f"{name} must be > 0, got {getattr(self, name)}")
        _require(0 <= self.start_available_prob <= 1, "start_available_prob must be in [0, 1]")
        _require(self.weight >= 0, f"weight must be >= 0, got {self.weight}")


# Mixed availability population: roughly 30% / 67% / 96% available.
DEFAULT_TRACE_CLASSES = (
    TraceClassParams(mean_up_s=90.0, mean_down_s=210.0, start_available_prob=0.3),
    TraceClassParams(mean_up_s=600.0, mean_down_s=300.0, start_available_prob=0.67),
    TraceClassParams(mean_up_s=4000.0, mean_down_s=150.0, start_available_prob=0.96),
)


@dataclass(frozen=True)
class CapabilityBounds:
    """Log-uniform sampling bounds for synthetic profiles, (lo, hi) pairs."""

    time_per_sample_s: tuple[float, float] = (0.02, 0.2)
    down_bw_Bps: tuple[float, float] = (100.0, 1000.0)
    up_bw_Bps: tuple[float, float] = (100.0, 1000.0)

    def __post_init__(self):
        for name in ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps"):
            pair = getattr(self, name)
            _require(len(pair) == 2, f"{name}: expected [lo, hi], got {pair!r}")
            _require(0 < pair[0] <= pair[1], f"{name} bounds must satisfy 0 < lo <= hi, got {pair}")


@dataclass(frozen=True)
class MdaConfig:
    memory_length: int = 10     # history window m, in rounds
    default_weight: float = 0.5  # used until a client has m history entries

    def __post_init__(self):
        _require(self.memory_length >= 2, f"memory_length must be >= 2, got {self.memory_length}")
        weight = self.default_weight
        _require(0 < weight <= 1, f"default_weight must be in (0, 1], got {weight}")


@dataclass(frozen=True)
class FedcsConfig:
    threshold_s: float = 15.0
    order: str = "filter_first"

    def __post_init__(self):
        _require(self.threshold_s > 0, f"threshold_s must be > 0, got {self.threshold_s}")
        _one_of("order", self.order, FEDCS_ORDERS)


@dataclass(frozen=True)
class TiflConfig:
    num_tiers: int = 5
    ratio: float = 1.4          # adjacent-tier selection probability ratio

    def __post_init__(self):
        _require(self.num_tiers >= 1, f"num_tiers must be >= 1, got {self.num_tiers}")
        _require(self.ratio > 0, f"ratio must be > 0, got {self.ratio}")


@dataclass
class SyntheticTracesCfg:
    pool_size: int | None = None    # default: 3 * num_clients
    horizon_s: float | None = None  # default: see synthetic_horizon_s
    classes: tuple[TraceClassParams, ...] = DEFAULT_TRACE_CLASSES

    def __post_init__(self):
        _require(self.pool_size is None or self.pool_size >= 1, "pool_size must be >= 1")
        _require(self.horizon_s is None or self.horizon_s > 0, "horizon_s must be > 0")
        total = sum(c.weight for c in self.classes)
        _require(0 < total < math.inf, f"classes: weight sum must be finite and > 0, got {total}")


@dataclass
class ScenarioCfg:
    kind: str = "average"
    source: str = "synthetic"
    trace_file: str | None = None
    mix: tuple[float, float, float] = (0.6, 0.2, 0.2)
    synthetic: SyntheticTracesCfg = field(default_factory=SyntheticTracesCfg)

    def __post_init__(self):
        _one_of("kind", self.kind, SCENARIO_KINDS)
        _one_of("source", self.source, SOURCES)
        _require(len(self.mix) == 3, f"mix: expected three fractions, got {self.mix!r}")
        _require(all(f >= 0 for f in self.mix), f"mix: fractions must be >= 0, got {self.mix}")
        _require(abs(sum(self.mix) - 1.0) <= 1e-9, f"mix: fractions must sum to 1, got {self.mix}")
        if self.source == "file":
            _require(self.trace_file is not None, "trace_file is required when source=file")


@dataclass
class PopulationCfg:
    num_clients: int = 100
    capability_source: str = "synthetic"
    capability_file: str | None = None
    synthetic: CapabilityBounds = CapabilityBounds()

    def __post_init__(self):
        _require(self.num_clients >= 1, f"num_clients must be >= 1, got {self.num_clients}")
        _one_of("capability_source", self.capability_source, SOURCES)
        if self.capability_source == "file":
            _require(
                self.capability_file is not None,
                "capability_file is required when capability_source=file",
            )


@dataclass
class RoundCfg:
    clients_per_round: int = 10
    num_rounds: int = 300
    timeout_s: float = 120.0
    eval_every: int = 25
    strict_availability_failures: bool = True

    def __post_init__(self):
        _require(self.clients_per_round >= 1, "clients_per_round must be >= 1")
        _require(self.num_rounds >= 0, "num_rounds must be >= 0")
        _require(self.timeout_s > 0, "timeout_s must be > 0")
        _require(self.eval_every >= 1, "eval_every must be >= 1")


@dataclass
class TaskCfg:
    num_samples: int = 2000
    features_d: int = 32
    classes_k: int = 5
    alpha: float = 0.2
    lr: float = 0.05
    epochs: int = 1
    batch_size: int = 20
    seed: int = 11
    class_sep: float = 0.3

    def __post_init__(self):
        _require(self.classes_k >= 2, f"classes_k must be >= 2, got {self.classes_k}")
        _require(self.features_d >= 1, f"features_d must be >= 1, got {self.features_d}")
        _require(
            self.num_samples >= 5 * self.classes_k,
            f"num_samples must be >= {5 * self.classes_k} for {self.classes_k} classes",
        )
        _require(self.alpha > 0, f"alpha must be > 0, got {self.alpha}")
        _require(self.lr >= 0, f"lr must be >= 0, got {self.lr}")
        _require(self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}")
        _require(self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _require(self.class_sep >= 0, f"class_sep must be >= 0, got {self.class_sep}")


@dataclass
class SelectorCfg:
    kind: str = "random"
    mda: MdaConfig = MdaConfig()
    fedcs: FedcsConfig = FedcsConfig()
    tifl: TiflConfig = TiflConfig()

    def __post_init__(self):
        _one_of("kind", self.kind, SELECTOR_KINDS)


@dataclass
class SeedsCfg:
    scenario_seed: int = 1
    partition_seed: int = 2
    run_seeds: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        for name in ("scenario_seed", "partition_seed"):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")
        _require(all(s >= 0 for s in self.run_seeds), "run_seeds entries must be >= 0")


@dataclass
class OutputCfg:
    directory: str = "out"
    formats: tuple[str, ...] = OUTPUT_FORMATS

    def __post_init__(self):
        for fmt in self.formats:
            _one_of("formats", fmt, OUTPUT_FORMATS)


@dataclass
class ExperimentConfig:
    scenario: ScenarioCfg = field(default_factory=ScenarioCfg)
    population: PopulationCfg = field(default_factory=PopulationCfg)
    round: RoundCfg = field(default_factory=RoundCfg)
    task: TaskCfg = field(default_factory=TaskCfg)
    selector: SelectorCfg = field(default_factory=SelectorCfg)
    seeds: SeedsCfg = field(default_factory=SeedsCfg)
    output: OutputCfg = field(default_factory=OutputCfg)

    def to_dict(self) -> dict:
        """Full echo of every (defaulted) value, for report provenance."""
        return dataclasses.asdict(self)


@functools.cache
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """name -> (resolved type, has a default) for each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is not MISSING or f.default_factory is not MISSING)
        for f in dataclasses.fields(cls)
    }


def _null_takes_default(hint) -> bool:
    """Whether null means the default: for optional keys, sections and lists of sections."""
    args = typing.get_args(hint)
    return (
        type(None) in args
        or dataclasses.is_dataclass(hint)
        or (typing.get_origin(hint) is tuple and dataclasses.is_dataclass(args[0]))
    )


_EXPECTED = {int: "an integer", bool: "true/false", str: "a string"}


def _value(hint, value, path: str):
    """value as the type hint asks: a scalar, a section, an optional or a list."""
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)  # YAML renders shorthand like "1e6" as a string
        except ValueError:
            raise ConfigError(f"{path}: expected a number, got {value!r}") from None
        except OverflowError:  # an integer beyond float range
            number = math.inf
        _require(math.isfinite(number), f"{path} must be finite, got {value!r}")
        return number
    if hint in _EXPECTED:
        if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
            return value
        raise ConfigError(f"{path}: expected {_EXPECTED[hint]}, got {value!r}")
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    args = typing.get_args(hint)
    if type(None) in args:
        return _value(next(a for a in args if a is not type(None)), value, path)
    # tuple[...]: YAML gives lists; a fixed-length tuple, such as a pair, also takes a tuple.
    if not (isinstance(value, list) or (isinstance(value, tuple) and ... not in args)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list, got {value!r}")
    return tuple(_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))


def _build(cls, data, path: str):
    """An instance of the config dataclass cls from the mapping found at path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: section {path!r} must be a mapping, got {data!r}")
    fields = _fields(cls)
    prefix = f"{path}." if path else ""
    for key in data:
        if key not in fields:
            msg = f"{prefix}{key!r}: unknown config key"
            close = difflib.get_close_matches(str(key), list(fields), n=1)
            if close:
                msg += f" (did you mean {close[0]!r}?)"
            raise ConfigError(msg)
    kwargs = {}
    for name, (hint, has_default) in fields.items():
        if name not in data:
            _require(has_default, f"{prefix}{name} is required")
        elif data[name] is not None or not _null_takes_default(hint):
            kwargs[name] = _value(hint, data[name], prefix + name)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # The dataclass names the field; this adds the section's key path.
        raise ConfigError(f"{prefix}{exc}") from None


def synthetic_horizon_s(cfg: ExperimentConfig) -> float:
    """The synthetic traces' horizon: horizon_s, by default one timeout per round."""
    horizon = cfg.scenario.synthetic.horizon_s
    if horizon is None:
        try:
            horizon = max(cfg.round.num_rounds, 1) * cfg.round.timeout_s
        except OverflowError:  # num_rounds beyond float range
            horizon = math.inf
        _require(
            horizon < math.inf,
            "scenario.synthetic.horizon_s: the default, num_rounds * timeout_s, is not finite",
        )
    return horizon


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from an already-parsed mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    cfg = _build(ExperimentConfig, data, "")
    _require(
        cfg.population.num_clients >= cfg.round.clients_per_round,
        f"population.num_clients ({cfg.population.num_clients}) must be >= "
        f"round.clients_per_round ({cfg.round.clients_per_round})",
    )
    # Checked whatever the kind: compare runs the tiered selectors on any config.
    _require(
        cfg.selector.tifl.num_tiers <= cfg.population.num_clients,
        f"selector.tifl.num_tiers ({cfg.selector.tifl.num_tiers}) must be <= "
        f"population.num_clients ({cfg.population.num_clients})",
    )
    train = train_split_size(cfg.task.num_samples, cfg.task.classes_k)
    _require(
        cfg.population.num_clients <= train,
        f"population.num_clients ({cfg.population.num_clients}) must be <= the "
        f"{train} training samples of task.num_samples ({cfg.task.num_samples})",
    )
    horizon = synthetic_horizon_s(cfg)
    if cfg.scenario.source == "synthetic" and cfg.round.num_rounds >= 1:
        # The engine's own round-0 check: such a horizon cannot hold one round.
        # Longer horizons may still finish a run, so they pass.
        _require(
            cfg.round.timeout_s <= horizon + 1e-9,
            f"scenario.synthetic.horizon_s ({horizon}) must be >= round.timeout_s "
            f"({cfg.round.timeout_s}): no round fits in the trace horizon",
        )
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML config file, fill defaults, and validate strictly."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    return config_from_dict(data)
