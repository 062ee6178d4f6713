"""The round loop: clock, selection, failures, timeouts, aggregation, metrics."""

from __future__ import annotations

import bisect
import hashlib
import logging
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import learning
from .config import ExperimentConfig, synthetic_horizon_s
from .cost import TaskDims, generate_profiles, parse_capability_file, round_time
from .errors import ConfigError, SimulationError
from .selectors import SelectorState, make_selector, update_history
from .traces import (
    AvailabilityTrace,
    build_scenario,
    generate_pool,
    is_available,
    parse_trace_file,
    rank_traces,
)

log = logging.getLogger(__name__)

REPORT_NOTES = (
    "training_time_s sums simulated round durations only; "
    "evaluation overhead is excluded."
)

# Summary rows, in rendering order.
METRIC_ROWS = (
    "Training time(s)",
    "Failed rounds",
    "Accuracy mean",
    "Accuracy std",
    "Average failed clients",
    "Unique participants",
    "Total participants",
)


@dataclass(frozen=True)
class RoundOutcome:
    round_index: int
    start_s: float
    duration_s: float
    selected: tuple[int, ...]
    failed: tuple[int, ...]
    skipped: bool
    accuracy: float | None   # percent; None on non-eval rounds


@dataclass
class World:
    """Everything the round loop needs, deterministically built from config."""

    client_ids: list[str]        # client c's entry in every per-client list
    traces: list[AvailabilityTrace]
    dataset: learning.Dataset
    shards: list[np.ndarray]
    round_times: list[float]
    horizon_s: float
    digest: str


@dataclass
class ExperimentReport:
    config: dict
    selector: str
    run_seed: int
    world_digest: str
    client_ids: list[str]
    metrics: dict
    rounds: list[RoundOutcome]
    accuracy_curve: list[tuple[int, float, float]]   # (round, time_s, accuracy %)
    notes: str = REPORT_NOTES

    def to_dict(self) -> dict:
        ids = self.client_ids
        return {
            "report_version": 1,
            "selector": self.selector,
            "run_seed": self.run_seed,
            "world_digest": self.world_digest,
            "notes": self.notes,
            "config": self.config,
            "metrics": self.metrics,
            "accuracy_curve": [
                {"round": r, "time_s": t, "accuracy": a} for r, t, a in self.accuracy_curve
            ],
            "rounds": [
                {
                    "round": o.round_index,
                    "start_s": o.start_s,
                    "duration_s": o.duration_s,
                    "selected": [ids[c] for c in o.selected],
                    "failed": [ids[c] for c in o.failed],
                    "skipped": o.skipped,
                    "accuracy": o.accuracy,
                }
                for o in self.rounds
            ],
        }


ROUND_LOG_COLUMNS = ("round", "start_s", "duration_s", "selected", "failed", "skipped", "accuracy")


def round_log_rows(report: ExperimentReport) -> list[list[str]]:
    """Per-round log rows (header first) in the CSV export format."""
    ids = report.client_ids
    rows = [list(ROUND_LOG_COLUMNS)]
    for o in report.rounds:
        rows.append(
            [
                str(o.round_index),
                repr(o.start_s),
                repr(o.duration_s),
                ";".join(ids[c] for c in o.selected),
                ";".join(ids[c] for c in o.failed),
                "true" if o.skipped else "false",
                "" if o.accuracy is None else repr(o.accuracy),
            ]
        )
    return rows


def _read_input(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _world_digest(profiles, traces, shards) -> str:
    h = hashlib.sha256()
    for profile, trace, shard in zip(profiles, traces, shards):
        h.update(profile.client_id.encode())
        h.update(
            np.array(
                [
                    profile.time_per_sample_s,
                    profile.down_bw_Bps,
                    profile.up_bw_Bps,
                    float(trace.start_available),
                    trace.horizon_s,
                ]
            ).tobytes()
        )
        h.update(np.asarray(trace.transitions, dtype=np.float64).tobytes())
        h.update(np.asarray(shard, dtype=np.int64).tobytes())
    return h.hexdigest()


def synthetic_pool(cfg: ExperimentConfig):
    """The synthetic trace pool exactly as build_world generates it."""
    seed_tracegen = np.random.SeedSequence(cfg.seeds.scenario_seed).spawn(3)[0]
    syn = cfg.scenario.synthetic
    pool_size = syn.pool_size if syn.pool_size is not None else 3 * cfg.population.num_clients
    return generate_pool(list(syn.classes), pool_size, synthetic_horizon_s(cfg), seed_tracegen)


def build_world(cfg: ExperimentConfig) -> World:
    """Deterministically realize traces, capabilities, data, and round times."""
    num_clients = cfg.population.num_clients
    _, seed_assign, seed_caps = np.random.SeedSequence(cfg.seeds.scenario_seed).spawn(3)

    if cfg.scenario.source == "file":
        pool = parse_trace_file(_read_input(cfg.scenario.trace_file, "trace file"))
    else:
        pool = synthetic_pool(cfg)

    ranked = [pool[i] for i in rank_traces(pool)]
    assigned = build_scenario(
        ranked, cfg.scenario.kind, num_clients, cfg.scenario.mix, seed_assign
    )

    if cfg.population.capability_source == "file":
        profiles = parse_capability_file(
            _read_input(cfg.population.capability_file, "capability file")
        )
        if len(profiles) < num_clients:
            raise ConfigError(
                f"capability file {cfg.population.capability_file} holds "
                f"{len(profiles)} profiles but num_clients={num_clients}"
            )
        profiles = profiles[:num_clients]
    else:
        profiles = generate_profiles(num_clients, cfg.population.synthetic, seed_caps)

    task = cfg.task
    dataset = learning.make_dataset(
        task.num_samples, task.features_d, task.classes_k, task.class_sep, task.seed
    )
    shards = learning.dirichlet_partition(
        dataset, num_clients, task.alpha, cfg.seeds.partition_seed
    )
    empty = sum(1 for shard in shards if len(shard) == 0)
    if empty:
        log.warning("%d of %d clients received empty data shards", empty, num_clients)

    dims = TaskDims(
        model_size_bytes=learning.model_size_bytes(task.classes_k, task.features_d),
        local_epochs=task.epochs,
        batch_size=task.batch_size,
    )
    round_times = [round_time(p, len(shard), dims) for p, shard in zip(profiles, shards)]

    if cfg.round.strict_availability_failures:
        slowest = max(range(num_clients), key=lambda c: round_times[c])
        if cfg.round.timeout_s <= round_times[slowest]:
            raise ConfigError(
                f"round.timeout_s={cfg.round.timeout_s} must exceed the slowest "
                f"client's round time ({round_times[slowest]:.3f}s, client "
                f"{profiles[slowest].client_id}) while strict_availability_failures is on"
            )

    return World(
        client_ids=[profile.client_id for profile in profiles],
        traces=assigned,
        dataset=dataset,
        shards=shards,
        round_times=round_times,
        horizon_s=min(trace.horizon_s for trace in assigned),
        digest=_world_digest(profiles, assigned, shards),
    )


def _client_fails(trace, clock: float, t_c: float, timeout: float) -> bool:
    # Fails if too slow outright, or if the first availability flip after the
    # selection instant lands inside (clock, clock + min(t_c, timeout)].
    if t_c > timeout:
        return True
    window_end = clock + min(t_c, timeout)
    i = bisect.bisect_right(trace.transitions, clock)
    return i < len(trace.transitions) and trace.transitions[i] <= window_end


def run_round(
    world: World,
    cfg: ExperimentConfig,
    state: SelectorState,
    select,
    model: np.ndarray,
    clock: float,
    round_index: int,
    run_seed: int,
    rng: np.random.Generator,
    eval_now: bool,
) -> tuple[RoundOutcome, np.ndarray, float]:
    """One round. State histories must already be updated for this round."""
    timeout = cfg.round.timeout_s
    task = cfg.task
    pool = state.available_clients(round_index)
    selected: list[int] = select(pool, cfg.round.clients_per_round, state, rng) if pool else []
    if not selected:
        # Nothing eligible: the server waits out its deadline.
        outcome = RoundOutcome(round_index, clock, timeout, (), (), True, None)
        return outcome, model, clock + timeout

    failed = tuple(
        c
        for c in selected
        if _client_fails(world.traces[c], clock, world.round_times[c], timeout)
    )
    duration = timeout if failed else max(world.round_times[c] for c in selected)

    failed_set = set(failed)
    survivors = [c for c in selected if c not in failed_set]
    if survivors:
        deltas = []
        for c in survivors:
            shard = world.shards[c]
            deltas.append(
                learning.local_train(
                    model,
                    world.dataset.features[shard],
                    world.dataset.labels[shard],
                    task.classes_k,
                    task.epochs,
                    task.batch_size,
                    task.lr,
                    np.random.SeedSequence([run_seed, round_index, c]),
                )
            )
        model = model + learning.fedavg(deltas)

    accuracy = None
    if eval_now:
        accuracy = 100.0 * learning.evaluate(
            model,
            world.dataset.features[world.dataset.test_idx],
            world.dataset.labels[world.dataset.test_idx],
            task.classes_k,
        )
    outcome = RoundOutcome(
        round_index, clock, duration, tuple(selected), failed, False, accuracy
    )
    return outcome, model, clock + duration


def run_experiment(
    cfg: ExperimentConfig, run_seed: int, world: World | None = None
) -> ExperimentReport:
    """Execute num_rounds rounds from clock 0 under one selection/training seed."""
    if world is None:
        world = build_world(cfg)
    num_rounds = cfg.round.num_rounds
    timeout = cfg.round.timeout_s
    state = SelectorState(len(world.client_ids))
    select = make_selector(
        cfg.selector.kind,
        round_times=world.round_times,
        fedcs=cfg.selector.fedcs,
        tifl=cfg.selector.tifl,
        mda=cfg.selector.mda,
    )
    rng = np.random.default_rng(np.random.SeedSequence([run_seed]))
    model = learning.init_params(cfg.task.classes_k, cfg.task.features_d)
    clock = 0.0
    prev_failed: tuple[int, ...] = ()
    outcomes: list[RoundOutcome] = []
    curve: list[tuple[int, float, float]] = []

    for r in range(num_rounds):
        if clock + timeout > world.horizon_s + 1e-9:
            raise SimulationError(
                f"round {r} (clock {clock:.1f}s + timeout {timeout}s) would pass the "
                f"trace horizon {world.horizon_s}s; regenerate traces with a horizon "
                f">= num_rounds * timeout_s = {num_rounds * timeout}s"
            )
        availability = [is_available(trace, clock) for trace in world.traces]
        update_history(state, r, clock, availability, prev_failed)
        eval_now = (r + 1) % cfg.round.eval_every == 0 or r == num_rounds - 1
        outcome, model, clock = run_round(
            world, cfg, state, select, model, clock, r, run_seed, rng, eval_now
        )
        outcomes.append(outcome)
        prev_failed = outcome.failed
        if outcome.accuracy is not None:
            curve.append((r, clock, outcome.accuracy))

    if curve:
        final_accuracy = curve[-1][2]
    else:
        final_accuracy = 100.0 * learning.evaluate(
            model,
            world.dataset.features[world.dataset.test_idx],
            world.dataset.labels[world.dataset.test_idx],
            cfg.task.classes_k,
        )
    survivors_per_round = [set(o.selected) - set(o.failed) for o in outcomes]
    metrics = {
        "training_time_s": float(sum(o.duration_s for o in outcomes)),
        "failed_rounds": sum(1 for o in outcomes if o.failed),
        "accuracy_mean": final_accuracy,
        "accuracy_std": 0.0,
        "avg_failed_clients": (
            sum(len(o.failed) for o in outcomes) / num_rounds if num_rounds else 0.0
        ),
        "unique_participants": len(set().union(*survivors_per_round) if survivors_per_round else set()),
        "total_participants": sum(len(s) for s in survivors_per_round),
    }
    return ExperimentReport(
        config=cfg.to_dict(),
        selector=cfg.selector.kind,
        run_seed=run_seed,
        world_digest=world.digest,
        client_ids=world.client_ids,
        metrics=metrics,
        rounds=outcomes,
        accuracy_curve=curve,
    )


def summarize_reports(reports: list[ExperimentReport]) -> dict[str, tuple[float, float | None]]:
    """Across-seed summary in report row order: label -> (value, spread).

    The two accuracy rows ARE the across-seed mean/std of final accuracy, so
    their spread column is None.
    """
    if not reports:
        raise ValueError("no reports to summarize")

    def stats(key: str) -> tuple[float, float]:
        values = [float(r.metrics[key]) for r in reports]
        return statistics.mean(values), statistics.pstdev(values)

    accuracies = [float(r.metrics["accuracy_mean"]) for r in reports]
    return {
        "Training time(s)": stats("training_time_s"),
        "Failed rounds": stats("failed_rounds"),
        "Accuracy mean": (statistics.mean(accuracies), None),
        "Accuracy std": (statistics.pstdev(accuracies), None),
        "Average failed clients": stats("avg_failed_clients"),
        "Unique participants": stats("unique_participants"),
        "Total participants": stats("total_participants"),
    }


@dataclass
class Comparison:
    selectors: list[str]
    reports: dict[str, list[ExperimentReport]]   # selector -> one report per seed
    summaries: dict[str, dict[str, tuple[float, float | None]]]
    fastest: str


def replace_selector(cfg: ExperimentConfig, kind: str) -> ExperimentConfig:
    """A copy of cfg with the selector kind swapped (world seeds untouched)."""
    return replace(cfg, selector=replace(cfg.selector, kind=kind))


# (cfg, world) of a worker process, set once by its initializer; it stays None
# in the calling process, which passes its world directly.
_worker_world: tuple[ExperimentConfig, World] | None = None


def _init_worker(cfg: ExperimentConfig, world: World) -> None:
    global _worker_world
    _worker_world = (cfg, world)


def _run_worker_cell(cell: tuple[str, int]) -> ExperimentReport:
    (cfg, world), (kind, seed) = _worker_world, cell
    return run_experiment(replace_selector(cfg, kind), seed, world=world)


def run_cells(
    cfg: ExperimentConfig, cells: list[tuple[str, int]], jobs: int = 1
) -> list[ExperimentReport]:
    """One report per (selector kind, run seed) cell, in order, over one world.

    The world is built once, here, so build errors surface in the caller. With
    ``jobs > 1`` each worker process receives it once through its initializer.
    """
    if not cells:
        raise ConfigError("at least one run seed is required")
    world = build_world(cfg)
    if jobs <= 1:
        return [run_experiment(replace_selector(cfg, k), s, world=world) for k, s in cells]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)), initializer=_init_worker, initargs=(cfg, world)
    ) as pool:
        return list(pool.map(_run_worker_cell, cells))


def run_many(cfg: ExperimentConfig, seeds: list[int], jobs: int = 1) -> list[ExperimentReport]:
    """One report per run seed of cfg's selector, sharing one world."""
    return run_cells(cfg, [(cfg.selector.kind, seed) for seed in seeds], jobs)


def compare_selectors(
    cfg: ExperimentConfig,
    selector_kinds: list[str],
    run_seeds: list[int] | None = None,
    jobs: int = 1,
) -> Comparison:
    """Run every (selector, seed) cell over one shared world and summarize."""
    if not selector_kinds:
        raise ConfigError("no selectors to compare")
    if len(set(selector_kinds)) != len(selector_kinds):
        raise ConfigError(f"duplicate selector names in {selector_kinds}")
    seeds = list(run_seeds) if run_seeds is not None else list(cfg.seeds.run_seeds)
    cells = [(kind, seed) for kind in selector_kinds for seed in seeds]

    reports: dict[str, list[ExperimentReport]] = {kind: [] for kind in selector_kinds}
    for report in run_cells(cfg, cells, jobs):
        reports[report.selector].append(report)
    summaries = {kind: summarize_reports(reports[kind]) for kind in selector_kinds}
    fastest = min(
        selector_kinds, key=lambda kind: summaries[kind]["Training time(s)"][0]
    )
    return Comparison(
        selectors=list(selector_kinds), reports=reports, summaries=summaries, fastest=fastest
    )
