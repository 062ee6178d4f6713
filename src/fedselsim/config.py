"""Experiment configuration: YAML loading, defaults, strict schema validation."""

from __future__ import annotations

import dataclasses
import difflib
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .cost import CapabilityBounds
from .errors import ConfigError
from .learning import train_split_size
from .selectors import SELECTOR_KINDS, FedcsConfig, MdaConfig, TiflConfig
from .traces import SCENARIO_KINDS, TraceClassParams

# Mixed availability population: roughly 30% / 67% / 96% available.
DEFAULT_TRACE_CLASSES = (
    TraceClassParams(mean_up_s=90.0, mean_down_s=210.0, start_available_prob=0.3),
    TraceClassParams(mean_up_s=600.0, mean_down_s=300.0, start_available_prob=0.67),
    TraceClassParams(mean_up_s=4000.0, mean_down_s=150.0, start_available_prob=0.96),
)

OUTPUT_FORMATS = ("json", "csv")


@dataclass
class SyntheticTracesCfg:
    pool_size: int | None = None    # default: 3 * num_clients
    horizon_s: float | None = None  # default: max(num_rounds, 1) * timeout_s
    classes: tuple[TraceClassParams, ...] = DEFAULT_TRACE_CLASSES


@dataclass
class ScenarioCfg:
    kind: str = "average"
    source: str = "synthetic"
    trace_file: str | None = None
    mix: tuple[float, float, float] = (0.6, 0.2, 0.2)
    synthetic: SyntheticTracesCfg = field(default_factory=SyntheticTracesCfg)


@dataclass
class PopulationCfg:
    num_clients: int = 100
    capability_source: str = "synthetic"
    capability_file: str | None = None
    synthetic: CapabilityBounds = field(default_factory=CapabilityBounds)


@dataclass
class RoundCfg:
    clients_per_round: int = 10
    num_rounds: int = 300
    timeout_s: float = 120.0
    eval_every: int = 25
    strict_availability_failures: bool = True


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


@dataclass
class SelectorCfg:
    kind: str = "random"
    mda: MdaConfig = field(default_factory=MdaConfig)
    fedcs: FedcsConfig = field(default_factory=FedcsConfig)
    tifl: TiflConfig = field(default_factory=TiflConfig)


@dataclass
class SeedsCfg:
    scenario_seed: int = 1
    partition_seed: int = 2
    run_seeds: tuple[int, ...] = (1, 2, 3)


@dataclass
class OutputCfg:
    directory: str = "out"
    formats: tuple[str, ...] = OUTPUT_FORMATS


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


def _reject_unknown(section: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in section:
        if key not in allowed:
            msg = f"unknown config key {path}{key!r}"
            close = difflib.get_close_matches(str(key), allowed, n=1)
            if close:
                msg += f" (did you mean {close[0]!r}?)"
            raise ConfigError(msg)


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)  # YAML renders shorthand like "1e6" as a string
        except ValueError:
            pass
    raise ConfigError(f"{path}: expected a number, got {value!r}")


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices and value not in choices:
        raise ConfigError(f"{path}: expected one of {choices}, got {value!r}")
    return value


def _as_pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [lo, hi], got {value!r}")
    return (_as_float(value[0], path), _as_float(value[1], path))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _build_scenario_cfg(data: dict) -> ScenarioCfg:
    _reject_unknown(data, ("kind", "source", "trace_file", "mix", "synthetic"), "scenario.")
    cfg = ScenarioCfg()
    if "kind" in data:
        cfg.kind = _as_str(data["kind"], "scenario.kind", SCENARIO_KINDS)
    if "source" in data:
        cfg.source = _as_str(data["source"], "scenario.source", ("synthetic", "file"))
    if "trace_file" in data and data["trace_file"] is not None:
        cfg.trace_file = _as_str(data["trace_file"], "scenario.trace_file")
    if "mix" in data:
        mix = data["mix"]
        if not isinstance(mix, (list, tuple)) or len(mix) != 3:
            raise ConfigError(f"scenario.mix: expected three fractions, got {mix!r}")
        cfg.mix = tuple(_as_float(v, "scenario.mix") for v in mix)
        _require(all(f >= 0 for f in cfg.mix), f"scenario.mix: fractions must be >= 0, got {cfg.mix}")
        _require(abs(sum(cfg.mix) - 1.0) <= 1e-9, f"scenario.mix: fractions must sum to 1, got {cfg.mix}")
    syn = _section(data, "synthetic")
    _reject_unknown(syn, ("pool_size", "horizon_s", "classes"), "scenario.synthetic.")
    syn_cfg = SyntheticTracesCfg()
    if "pool_size" in syn and syn["pool_size"] is not None:
        syn_cfg.pool_size = _as_int(syn["pool_size"], "scenario.synthetic.pool_size")
        _require(syn_cfg.pool_size >= 1, "scenario.synthetic.pool_size must be >= 1")
    if "horizon_s" in syn and syn["horizon_s"] is not None:
        syn_cfg.horizon_s = _as_float(syn["horizon_s"], "scenario.synthetic.horizon_s")
        _require(
            0 < syn_cfg.horizon_s < math.inf,
            f"scenario.synthetic.horizon_s must be finite and > 0, got {syn_cfg.horizon_s}",
        )
    if "classes" in syn and syn["classes"] is not None:
        raw = syn["classes"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("scenario.synthetic.classes must be a non-empty list")
        classes = []
        for i, entry in enumerate(raw):
            path = f"scenario.synthetic.classes[{i}]."
            if not isinstance(entry, dict):
                raise ConfigError(f"{path[:-1]}: expected a mapping")
            _reject_unknown(
                entry, ("mean_up_s", "mean_down_s", "start_available_prob", "weight"), path
            )
            for req in ("mean_up_s", "mean_down_s", "start_available_prob"):
                _require(req in entry, f"{path}{req} is required")
            classes.append(
                TraceClassParams(
                    mean_up_s=_as_float(entry["mean_up_s"], path + "mean_up_s"),
                    mean_down_s=_as_float(entry["mean_down_s"], path + "mean_down_s"),
                    start_available_prob=_as_float(
                        entry["start_available_prob"], path + "start_available_prob"
                    ),
                    weight=_as_float(entry.get("weight", 1.0), path + "weight"),
                )
            )
        syn_cfg.classes = tuple(classes)
    cfg.synthetic = syn_cfg
    if cfg.source == "file":
        _require(cfg.trace_file is not None, "scenario.trace_file is required when source=file")
    return cfg


def _build_population_cfg(data: dict) -> PopulationCfg:
    _reject_unknown(
        data, ("num_clients", "capability_source", "capability_file", "synthetic"), "population."
    )
    cfg = PopulationCfg()
    if "num_clients" in data:
        cfg.num_clients = _as_int(data["num_clients"], "population.num_clients")
        _require(cfg.num_clients >= 1, f"population.num_clients must be >= 1, got {cfg.num_clients}")
    if "capability_source" in data:
        cfg.capability_source = _as_str(
            data["capability_source"], "population.capability_source", ("synthetic", "file")
        )
    if "capability_file" in data and data["capability_file"] is not None:
        cfg.capability_file = _as_str(data["capability_file"], "population.capability_file")
    syn = _section(data, "synthetic")
    _reject_unknown(syn, ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps"), "population.synthetic.")
    bounds = {}
    for name in ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps"):
        if name in syn:
            bounds[name] = _as_pair(syn[name], f"population.synthetic.{name}")
    cfg.synthetic = CapabilityBounds(**bounds)
    if cfg.capability_source == "file":
        _require(
            cfg.capability_file is not None,
            "population.capability_file is required when capability_source=file",
        )
    return cfg


def _build_round_cfg(data: dict) -> RoundCfg:
    _reject_unknown(
        data,
        ("clients_per_round", "num_rounds", "timeout_s", "eval_every", "strict_availability_failures"),
        "round.",
    )
    cfg = RoundCfg()
    if "clients_per_round" in data:
        cfg.clients_per_round = _as_int(data["clients_per_round"], "round.clients_per_round")
        _require(cfg.clients_per_round >= 1, "round.clients_per_round must be >= 1")
    if "num_rounds" in data:
        cfg.num_rounds = _as_int(data["num_rounds"], "round.num_rounds")
        _require(cfg.num_rounds >= 0, "round.num_rounds must be >= 0")
    if "timeout_s" in data:
        cfg.timeout_s = _as_float(data["timeout_s"], "round.timeout_s")
        _require(cfg.timeout_s > 0, "round.timeout_s must be > 0")
    if "eval_every" in data:
        cfg.eval_every = _as_int(data["eval_every"], "round.eval_every")
        _require(cfg.eval_every >= 1, "round.eval_every must be >= 1")
    if "strict_availability_failures" in data:
        cfg.strict_availability_failures = _as_bool(
            data["strict_availability_failures"], "round.strict_availability_failures"
        )
    return cfg


def _build_task_cfg(data: dict) -> TaskCfg:
    fields = (
        "num_samples", "features_d", "classes_k", "alpha", "lr",
        "epochs", "batch_size", "seed", "class_sep",
    )
    _reject_unknown(data, fields, "task.")
    cfg = TaskCfg()
    for name in ("num_samples", "features_d", "classes_k", "epochs", "batch_size", "seed"):
        if name in data:
            setattr(cfg, name, _as_int(data[name], f"task.{name}"))
    for name in ("alpha", "lr", "class_sep"):
        if name in data:
            setattr(cfg, name, _as_float(data[name], f"task.{name}"))
    _require(cfg.classes_k >= 2, f"task.classes_k must be >= 2, got {cfg.classes_k}")
    _require(cfg.features_d >= 1, f"task.features_d must be >= 1, got {cfg.features_d}")
    _require(
        cfg.num_samples >= 5 * cfg.classes_k,
        f"task.num_samples must be >= {5 * cfg.classes_k} for {cfg.classes_k} classes",
    )
    _require(cfg.alpha > 0, f"task.alpha must be > 0, got {cfg.alpha}")
    _require(cfg.lr >= 0, f"task.lr must be >= 0, got {cfg.lr}")
    _require(cfg.epochs >= 1, f"task.epochs must be >= 1, got {cfg.epochs}")
    _require(cfg.batch_size >= 1, f"task.batch_size must be >= 1, got {cfg.batch_size}")
    _require(cfg.seed >= 0, f"task.seed must be >= 0, got {cfg.seed}")
    _require(cfg.class_sep >= 0, f"task.class_sep must be >= 0, got {cfg.class_sep}")
    return cfg


def _build_selector_cfg(data: dict) -> SelectorCfg:
    _reject_unknown(data, ("kind", "mda", "fedcs", "tifl"), "selector.")
    cfg = SelectorCfg()
    if "kind" in data:
        cfg.kind = _as_str(data["kind"], "selector.kind", SELECTOR_KINDS)
    mda = _section(data, "mda")
    _reject_unknown(mda, ("memory_length", "default_weight"), "selector.mda.")
    kwargs = {}
    if "memory_length" in mda:
        kwargs["memory_length"] = _as_int(mda["memory_length"], "selector.mda.memory_length")
    if "default_weight" in mda:
        kwargs["default_weight"] = _as_float(mda["default_weight"], "selector.mda.default_weight")
    cfg.mda = MdaConfig(**kwargs)
    fedcs = _section(data, "fedcs")
    _reject_unknown(fedcs, ("threshold_s", "order"), "selector.fedcs.")
    kwargs = {}
    if "threshold_s" in fedcs:
        kwargs["threshold_s"] = _as_float(fedcs["threshold_s"], "selector.fedcs.threshold_s")
    if "order" in fedcs:
        kwargs["order"] = _as_str(fedcs["order"], "selector.fedcs.order")
    cfg.fedcs = FedcsConfig(**kwargs)
    tifl = _section(data, "tifl")
    _reject_unknown(tifl, ("num_tiers", "ratio"), "selector.tifl.")
    kwargs = {}
    if "num_tiers" in tifl:
        kwargs["num_tiers"] = _as_int(tifl["num_tiers"], "selector.tifl.num_tiers")
    if "ratio" in tifl:
        kwargs["ratio"] = _as_float(tifl["ratio"], "selector.tifl.ratio")
    cfg.tifl = TiflConfig(**kwargs)
    return cfg


def _build_seeds_cfg(data: dict) -> SeedsCfg:
    _reject_unknown(data, ("scenario_seed", "partition_seed", "run_seeds"), "seeds.")
    cfg = SeedsCfg()
    if "scenario_seed" in data:
        cfg.scenario_seed = _as_int(data["scenario_seed"], "seeds.scenario_seed")
    if "partition_seed" in data:
        cfg.partition_seed = _as_int(data["partition_seed"], "seeds.partition_seed")
    if "run_seeds" in data:
        raw = data["run_seeds"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("seeds.run_seeds must be a non-empty list of integers")
        cfg.run_seeds = tuple(_as_int(v, "seeds.run_seeds") for v in raw)
    for name in ("scenario_seed", "partition_seed"):
        _require(getattr(cfg, name) >= 0, f"seeds.{name} must be >= 0")
    _require(all(s >= 0 for s in cfg.run_seeds), "seeds.run_seeds entries must be >= 0")
    return cfg


def _build_output_cfg(data: dict) -> OutputCfg:
    _reject_unknown(data, ("directory", "formats"), "output.")
    cfg = OutputCfg()
    if "directory" in data:
        cfg.directory = _as_str(data["directory"], "output.directory")
    if "formats" in data:
        raw = data["formats"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("output.formats must be a non-empty list")
        formats = tuple(_as_str(v, "output.formats", OUTPUT_FORMATS) for v in raw)
        cfg.formats = formats
    return cfg


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from an already-parsed mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(
        data, ("scenario", "population", "round", "task", "selector", "seeds", "output"), ""
    )
    cfg = ExperimentConfig(
        scenario=_build_scenario_cfg(_section(data, "scenario")),
        population=_build_population_cfg(_section(data, "population")),
        round=_build_round_cfg(_section(data, "round")),
        task=_build_task_cfg(_section(data, "task")),
        selector=_build_selector_cfg(_section(data, "selector")),
        seeds=_build_seeds_cfg(_section(data, "seeds")),
        output=_build_output_cfg(_section(data, "output")),
    )
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
    horizon = cfg.scenario.synthetic.horizon_s
    if cfg.scenario.source == "synthetic" and horizon is not None and cfg.round.num_rounds >= 1:
        # The engine's own round-0 check: such a horizon cannot hold one round.
        # Longer horizons may still finish a run, so they pass.
        _require(
            not cfg.round.timeout_s > horizon + 1e-9,
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
