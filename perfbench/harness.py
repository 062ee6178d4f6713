"""Set-up, studies, correctness gate and metrics of the fedselsim benchmark.

Requires ``fedselsim`` to be importable; ``run.py`` puts the checkout's
``src/`` first on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from fedselsim import engine
from fedselsim.config import config_from_dict

from tracer import ATTRS, BUSY, Tracer, instrument
from workloads import SELECTORS, config_dict

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# World builds per run; setup_s is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "study_s": "s",
    "setup_s": "s",
    **{f"rounds_per_s.{kind}": "rounds/s" for kind in SELECTORS},
    "peak_rss_mb": "MiB",
}

SETUP_LAYERS = (
    "config.config_from_dict",
    "engine.build_world",
    "traces.generate_pool",
    "traces.rank_traces",
    "traces.build_scenario",
    "cost.generate_profiles",
    "cost.round_time",
    "learning.make_dataset",
    "learning.dirichlet_partition",
)

# Per-layer metrics that count work; they must repeat exactly between runs.
COUNT_UNITS = {
    "traces.is_available.calls": "count",
    "selectors.select.calls": "count",
    "selectors.select.pool_mean": "clients",
    "learning.local_train.calls": "count",
    "learning.local_train.rows": "rows",
    "learning.local_train.useful_ratio": "ratio",
    "learning.evaluate.calls": "count",
    "engine.run_round.calls": "count",
    "engine.selected_clients": "count",
}

LAYER_UNITS = {
    **COUNT_UNITS,
    "traces.is_available.s": "s",
    **{f"{name}.s": "s" for name in SETUP_LAYERS},
    "selectors.update_history.s": "s",
    **{f"selectors.select.s.{kind}": "s" for kind in SELECTORS},
    "selectors.mda_weights.s": "s",
    "selectors.weighted_sample_without_replacement.s": "s",
    "learning.local_train.s": "s",
    "learning.fedavg.s": "s",
    "learning.evaluate.s": "s",
    "engine.run_round.self_s": "s",
    "engine.run_round.p50_us": "us",
    "engine.run_round.p99_us": "us",
    "engine.run_experiment.self_s": "s",
    "report.serialize.s": "s",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


class LogCapture(logging.Handler):
    """Keeps fedselsim's log records (e.g. the empty-shard warning) off the output."""

    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(f"{record.levelname} {record.name}: {record.getMessage()}")


def canonical_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@dataclass
class Cell:
    kind: str
    run_seed: int
    seconds: float
    digest: str | None   # None when the cell raised

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.run_seed}"


def run_study(cfg, world, tracer: Tracer | None = None) -> tuple[float, list[Cell]]:
    """Every (selector, run seed) cell over ``world``, as ``compare_selectors(jobs=1)``.

    Returns the study's wall time and its cells. A cell's time covers
    ``run_experiment`` and the canonical JSON of its report; hashing the JSON
    is the benchmark's check and is not timed.
    """
    run, serialize = engine.run_experiment, canonical_json
    if tracer is not None:
        run = tracer.wrap("engine.run_experiment", run)
        serialize = tracer.wrap("report.serialize", serialize)
    cells = []
    study_start = perf_counter()
    for kind in SELECTORS:
        cell_cfg = engine.replace_selector(cfg, kind)
        for run_seed in cfg.seeds.run_seeds:
            start = perf_counter()
            try:
                text = serialize(run(cell_cfg, run_seed, world=world))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                cells.append(Cell(kind, run_seed, perf_counter() - start, None))
                continue
            seconds = perf_counter() - start
            cells.append(Cell(kind, run_seed, seconds, hashlib.sha256(text.encode()).hexdigest()))
    return perf_counter() - study_start, cells


def setup(data: dict, tracer: Tracer | None = None):
    """``config_from_dict`` + ``build_world``; returns (seconds, cfg, world)."""
    parse, build = config_from_dict, engine.build_world
    if tracer is not None:
        parse = tracer.wrap("config.config_from_dict", parse)
        build = tracer.wrap("engine.build_world", build)
    start = perf_counter()
    cfg = parse(data)
    world = build(cfg)
    return perf_counter() - start, cfg, world


@dataclass
class Gate:
    """Checks each cell's digest against the recorded one, or else its first run."""

    workload: str
    seed: int
    recorded: dict[str, str] | None
    seen: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @classmethod
    def load(cls, workload: str, seed: int) -> "Gate":
        table = json.loads(DIGESTS_PATH.read_text())
        return cls(workload, seed, table.get(workload, {}).get(str(seed)))

    def check(self, cells: list[Cell]) -> None:
        for cell in cells:
            self.attempted += 1
            expected = (self.recorded or {}).get(cell.key) or self.seen.get(cell.key)
            if cell.digest is None:
                self.fail(f"{cell.key}: raised")
            elif expected is not None and cell.digest != expected:
                self.fail(f"{cell.key}: digest {cell.digest} != expected {expected}")
            if cell.digest is not None:
                self.seen.setdefault(cell.key, cell.digest)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{self.workload} seed {self.seed} {problem}")

    def digest_lines(self) -> list[str]:
        return [
            f"cell {self.workload} seed={self.seed} {key} sha256={digest}"
            for key, digest in self.seen.items()
        ]


def measure(workload: str, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics and the raw timings behind them.

    Each metric is the median over the run's studies of a per-study figure;
    a selector's rate is its rounds over its cells' time in one study.
    """
    setup_times = []
    for _ in range(SETUP_REPEATS):
        world = None   # let the previous world go before building the next
        elapsed, cfg, world = setup(config_dict(workload, seed))
        setup_times.append(elapsed)
    study_times, cell_times = [], []
    deadline = perf_counter() + seconds
    while not study_times or perf_counter() + study_times[-1] / 2 < deadline:
        study_s, cells = run_study(cfg, world)
        gate.check(cells)
        study_times.append(study_s)
        cell_times.append({cell.key: cell.seconds for cell in cells})
    rounds = cfg.round.num_rounds * len(cfg.seeds.run_seeds)
    rates = {
        kind: [
            rounds / sum(t for key, t in times.items() if key.startswith(f"{kind}:"))
            for times in cell_times
        ]
        for kind in SELECTORS
    }
    metrics = {
        "study_s": statistics.median(study_times),
        "setup_s": statistics.median(setup_times),
        **{f"rounds_per_s.{kind}": statistics.median(r) for kind, r in rates.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"setup_s": setup_times, "study_s": study_times, "cell_s": cell_times}


def traced_study(cfg, world) -> tuple[float, list[Cell], Tracer]:
    """``run_study`` with every layer traced; also returns the tracer."""
    tracer = Tracer()
    with instrument(tracer):
        study_s, cells = run_study(cfg, world, tracer)
    return study_s, cells, tracer


def study_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced study."""
    select = tracer.by_name("selectors.select")
    train = tracer.by_name("learning.local_train")
    rounds_us = [rec[BUSY] * 1e6 for rec in tracer.by_name("engine.run_round")]
    percentiles = statistics.quantiles(rounds_us, n=100, method="inclusive")
    return {
        "traces.is_available.calls": tracer.calls("traces.is_available"),
        "traces.is_available.s": tracer.busy("traces.is_available"),
        "selectors.update_history.s": tracer.busy("selectors.update_history"),
        "selectors.select.calls": len(select),
        **{
            f"selectors.select.s.{kind}": sum(rec[BUSY] for rec in select if rec[ATTRS]["kind"] == kind)
            for kind in SELECTORS
        },
        "selectors.select.pool_mean": statistics.mean(rec[ATTRS]["pool"] for rec in select),
        "selectors.mda_weights.s": tracer.busy("selectors.mda_weights"),
        "selectors.weighted_sample_without_replacement.s":
            tracer.busy("selectors.weighted_sample_without_replacement"),
        "learning.local_train.calls": len(train),
        "learning.local_train.s": tracer.busy("learning.local_train"),
        "learning.local_train.rows": sum(rec[ATTRS]["rows"] for rec in train),
        "learning.local_train.useful_ratio":
            sum(not rec[ATTRS]["empty"] for rec in train) / len(train),
        "learning.fedavg.s": tracer.busy("learning.fedavg"),
        "learning.evaluate.calls": tracer.calls("learning.evaluate"),
        "learning.evaluate.s": tracer.busy("learning.evaluate"),
        "engine.run_round.calls": len(rounds_us),
        "engine.run_round.self_s": tracer.self_time("engine.run_round"),
        "engine.run_round.p50_us": percentiles[49],
        "engine.run_round.p99_us": percentiles[98],
        "engine.run_experiment.self_s": tracer.self_time("engine.run_experiment"),
        "engine.selected_clients": sum(rec[ATTRS]["picked"] for rec in select),
        "report.serialize.s": tracer.busy("report.serialize"),
    }


def _median_by_key(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def measure_traced(
    workload: str, seed: int, seconds: float, gate: Gate, spans_path: Path
) -> tuple[dict, dict]:
    """Traced run: per-layer metrics and raw study times.

    Untraced and traced studies alternate. Counts come from the first traced study and every later one must repeat
    them exactly; times are medians over the traced set-ups and studies.
    ``trace.overhead_s`` is the median traced study time minus the median
    untraced one.
    """
    data = config_dict(workload, seed)
    _, cfg, world = setup(data)
    setup_tracers = []
    for _ in range(SETUP_REPEATS):
        tracer = Tracer()
        with instrument(tracer):
            setup(data, tracer)
        setup_tracers.append(tracer)

    plain_times, traced_times, per_study = [], [], []
    first_study = None   # kept to write out; later studies repeat the same calls
    deadline = perf_counter() + seconds
    while not traced_times or perf_counter() + (plain_times[-1] + traced_times[-1]) / 2 < deadline:
        study_s, cells = run_study(cfg, world)
        gate.check(cells)
        plain_times.append(study_s)
        study_s, cells, tracer = traced_study(cfg, world)
        gate.check(cells)
        traced_times.append(study_s)
        per_study.append(study_layers(tracer))
        first_study = first_study or tracer

    for i, layers in enumerate(per_study[1:], start=2):
        drifted = [key for key in COUNT_UNITS if layers[key] != per_study[0][key]]
        if drifted:
            gate.problems.append(f"traced study {i} counts differ from study 1: {drifted}")
    metrics = _median_by_key(per_study)
    metrics.update({key: per_study[0][key] for key in COUNT_UNITS})
    metrics.update(_median_by_key([
        {f"{name}.s": tracer.busy(name) for name in SETUP_LAYERS} for tracer in setup_tracers
    ]))
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)

    with gzip.open(spans_path, "wt", compresslevel=1) as fh:
        for i, tracer in enumerate(setup_tracers, start=1):
            tracer.write_jsonl(fh, f"setup{i}")
        first_study.write_jsonl(fh, "study1")
    samples = {"study_s": plain_times, "traced_study_s": traced_times}
    return {name: metrics[name] for name in LAYER_UNITS}, samples
