"""The round loop: clock, selection, failures, timeouts, aggregation, metrics."""

from __future__ import annotations

import hashlib
import logging
import statistics
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import learning
from .config import ExperimentConfig, synthetic_horizon_s, synthetic_pool_size
from .cost import generate_profiles, parse_capability_file, round_time
from .errors import ConfigError, SimulationError
from .selectors import SelectorState, make_selector, update_history
from .traces import (
    AvailabilityTrace,
    TraceTable,
    build_scenario,
    generate_pool,
    is_available,
    next_flip,
    parse_trace_file,
    rank_traces,
)

log = logging.getLogger(__name__)

# The schema version of report documents (ExperimentReport.to_dict, cli run).
REPORT_VERSION = 1

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
    """Everything the round loop reads, deterministically built from config.

    rows[c] holds client c's shard and test the test split, each as C-contiguous
    (features, labels) views into one block: the train rows in client order,
    then the test rows.
    """

    client_ids: list[str]        # client c's entry in every per-client list
    traces: list[AvailabilityTrace]
    rows: list[tuple[np.ndarray, np.ndarray]]
    test: tuple[np.ndarray, np.ndarray]
    round_times: np.ndarray
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
            "report_version": REPORT_VERSION,
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


def _parse_input(path: str, what: str, parse):
    """parse(the open text file at path); a file that cannot be read is a ConfigError."""
    try:
        with open(path) as fh:
            return parse(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _world_digest(client_ids, caps, traces: TraceTable, order, offsets) -> str:
    """Client c is hashed with caps[c], row c of traces (its flips are a table
    slice) and its shard order[offsets[c]:offsets[c + 1]]."""
    head = np.column_stack((caps, traces.start, np.full(len(traces), traces.horizon_s)))
    h = hashlib.sha256()
    for c, (lo, hi) in enumerate(zip(traces.offsets, traces.offsets[1:])):
        h.update(client_ids[c].encode())
        h.update(head[c].tobytes())
        h.update(traces.flips[lo:hi].tobytes())
        h.update(order[offsets[c] : offsets[c + 1]].tobytes())
    return h.hexdigest()


def synthetic_pool(cfg: ExperimentConfig) -> TraceTable:
    """The synthetic trace pool exactly as build_world generates it."""
    seed_tracegen = np.random.SeedSequence(cfg.seeds.scenario_seed).spawn(3)[0]
    classes = list(cfg.scenario.synthetic.classes)
    return generate_pool(classes, synthetic_pool_size(cfg), synthetic_horizon_s(cfg), seed_tracegen)


def build_world(cfg: ExperimentConfig) -> World:
    """Deterministically realize traces, capabilities, data, and round times."""
    num_clients = cfg.population.num_clients
    _, seed_assign, seed_caps = np.random.SeedSequence(cfg.seeds.scenario_seed).spawn(3)

    if cfg.scenario.source == "file":
        path = cfg.scenario.trace_file
        pool = _parse_input(path, "trace file", parse_trace_file)
        if len(pool) == 0:
            raise ConfigError(f"trace file {path} holds no traces")
        # config_from_dict's check of a synthetic horizon, which it cannot make for a file.
        if cfg.round.num_rounds >= 1 and cfg.round.timeout_s > pool.horizon_s + 1e-9:
            raise ConfigError(
                f"trace file {path}: its horizon ({pool.horizon_s}) must be >= round.timeout_s "
                f"({cfg.round.timeout_s}): no round fits in the trace horizon"
            )
    else:
        pool = synthetic_pool(cfg)

    # build_scenario draws from the pool's indices in rank order; only the
    # assigned traces are cut from the pool, which goes before the data is built.
    traces = pool.take(
        build_scenario(
            rank_traces(pool), cfg.scenario.kind, num_clients, cfg.scenario.mix, seed_assign
        )
    )
    del pool

    if cfg.population.capability_source == "file":
        path = cfg.population.capability_file
        client_ids, caps = _parse_input(
            path, "capability file", lambda fh: parse_capability_file(fh.read())
        )
        if len(client_ids) < num_clients:
            raise ConfigError(
                f"capability file {path} holds "
                f"{len(client_ids)} profiles but num_clients={num_clients}"
            )
        client_ids, caps = client_ids[:num_clients], caps[:num_clients]
    else:
        client_ids, caps = generate_profiles(num_clients, cfg.population.synthetic, seed_caps)

    task = cfg.task
    split = learning.split_samples(task.num_samples, task.classes_k)
    order, offsets = learning.dirichlet_partition(
        split, num_clients, task.alpha, cfg.seeds.partition_seed
    )
    # The features are drawn straight into their rows: the train rows in
    # client order, then the test split.
    rows = np.concatenate((order, split.test_idx))
    features = learning.draw_features(
        task.num_samples, task.features_d, task.classes_k, task.class_sep, task.seed, rows
    )
    labels = split.labels[rows]
    del split, rows
    sizes = np.diff(offsets)
    empty = int(np.count_nonzero(sizes == 0))
    if empty:
        log.warning("%d of %d clients received empty data shards", empty, num_clients)

    size = learning.model_size_bytes(task.classes_k, task.features_d)
    round_times = round_time(caps, sizes, size, task.epochs)

    if cfg.round.strict_availability_failures:
        slowest = int(np.argmax(round_times))
        if cfg.round.timeout_s <= round_times[slowest]:
            raise ConfigError(
                f"round.timeout_s={cfg.round.timeout_s} must exceed the slowest "
                f"client's round time ({round_times[slowest]:.3f}s, client "
                f"{client_ids[slowest]}) while strict_availability_failures is on"
            )

    bounds = offsets.tolist()
    return World(
        client_ids=client_ids,
        traces=list(traces),
        rows=[(features[a:b], labels[a:b]) for a, b in zip(bounds, bounds[1:])],
        test=(features[bounds[-1] :], labels[bounds[-1] :]),
        round_times=round_times,
        horizon_s=traces.horizon_s,
        digest=_world_digest(client_ids, caps, traces, order, bounds),
    )


def _accuracy(world: World, model: np.ndarray, classes_k: int) -> float:
    """Test-set accuracy of model, in percent."""
    return 100.0 * learning.evaluate(model, *world.test, classes_k)


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
    selected = select(pool, cfg.round.clients_per_round, state, rng) if len(pool) else pool
    if len(selected) == 0:
        # Nothing eligible: the server waits out its deadline.
        outcome = RoundOutcome(round_index, clock, timeout, (), (), True, None)
        return outcome, model, clock + timeout

    # Too slow outright, or the first flip after the start lands in (clock, clock + t_c].
    times = world.round_times[selected]
    next_flips = np.array([next_flip(world.traces[c], clock) for c in selected])
    lost = (times > timeout) | (next_flips <= clock + times)
    duration = timeout if lost.any() else float(times.max())
    # The outcome holds Python ints, which the reports print as they are.
    failed = selected[lost].tolist()
    survivors = selected[~lost].tolist()
    if survivors:
        deltas = []
        for c in survivors:
            deltas.append(
                learning.local_train(
                    model,
                    *world.rows[c],
                    task.classes_k,
                    task.epochs,
                    task.batch_size,
                    task.lr,
                    # default_rng seeds it as SeedSequence([run_seed, round_index, c])
                    (run_seed, round_index, c),
                )
            )
        model = model + learning.fedavg(deltas)

    accuracy = _accuracy(world, model, task.classes_k) if eval_now else None
    outcome = RoundOutcome(
        round_index, clock, duration, tuple(selected.tolist()), tuple(failed), False, accuracy
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
    state = SelectorState(len(world.client_ids), cfg.selector.mda.memory_length)
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
        availability = np.fromiter(
            map(is_available, world.traces, repeat(clock)), bool, len(world.traces)
        )
        update_history(state, r, clock, availability, prev_failed)
        eval_now = (r + 1) % cfg.round.eval_every == 0 or r == num_rounds - 1
        outcome, model, clock = run_round(
            world, cfg, state, select, model, clock, r, run_seed, rng, eval_now
        )
        outcomes.append(outcome)
        prev_failed = outcome.failed
        if outcome.accuracy is not None:
            curve.append((r, clock, outcome.accuracy))

    # The last round is always due for evaluation, but a skipped round is not
    # scored: then (or with no rounds) score the final model here.
    final_accuracy = outcomes[-1].accuracy if outcomes else None
    if final_accuracy is None:
        final_accuracy = _accuracy(world, model, cfg.task.classes_k)
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
    # Imported here: it loads multiprocessing, which a single-process run never needs.
    from concurrent.futures import ProcessPoolExecutor

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
