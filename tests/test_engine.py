"""Round loop: clocks, failures, timeouts, aggregation, metrics, comparisons."""

import gc
import json
import os
import pickle
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fedselsim import engine, learning, selectors
from fedselsim.config import ExperimentConfig, FedcsConfig
from fedselsim.engine import (
    ROUND_LOG_COLUMNS,
    ExperimentReport,
    World,
    build_world,
    compare_selectors,
    replace_selector,
    round_log_rows,
    run_experiment,
    run_many,
    run_round,
    summarize_reports,
)
from fedselsim.errors import ConfigError, ParseError, SimulationError
from fedselsim.selectors import SelectorState, update_history
from fedselsim.traces import AvailabilityTrace, TraceTable, is_available, serialize_trace_file


def tiny_world(traces, round_times, horizon=1_000_000.0):
    """A hand-held world: empty shards, explicit round times."""
    dataset = learning.make_dataset(30, 3, 2, 1.0, 0)
    test = dataset.test_idx
    return World(
        client_ids=[f"c{i}" for i in range(len(traces))],
        traces=list(traces),
        rows=[(np.empty((0, 3)), np.empty(0, dtype=np.int64)) for _ in traces],
        test=(dataset.features[test], dataset.labels[test]),
        round_times=np.array(round_times, float),
        horizon_s=horizon,
        digest="tiny",
    )


def tiny_cfg(**round_overrides):
    cfg = ExperimentConfig()
    cfg.task.num_samples = 30
    cfg.task.features_d = 3
    cfg.task.classes_k = 2
    cfg.round.clients_per_round = 2
    for name, value in round_overrides.items():
        setattr(cfg.round, name, value)
    return cfg


def primed_state(world, clock=0.0):
    state = SelectorState(len(world.traces))
    availability = [is_available(trace, clock) for trace in world.traces]
    update_history(state, 0, clock, availability, [])
    return state


def take_all(pool, n, state, rng):
    return np.sort(pool)[:n]


MODEL2 = learning.init_params(2, 3)


def test_run_round_duration_is_slowest_survivor():
    # 2 always-available clients, T=(5, 8), timeout 860 -> duration 8.0
    world = tiny_world(
        [AvailabilityTrace(True, (), 1e6), AvailabilityTrace(True, (), 1e6)], [5.0, 8.0]
    )
    cfg = tiny_cfg(timeout_s=860.0)
    state = primed_state(world)
    outcome, model, clock = run_round(
        world, cfg, state, take_all, MODEL2, 0.0, 0, 1, np.random.default_rng(0), False
    )
    assert outcome.failed == ()
    assert outcome.duration_s == 8.0
    assert clock == 8.0
    assert not outcome.skipped
    assert outcome.selected == (0, 1)


def test_run_round_mid_round_departure_fails_and_costs_timeout():
    # second client flips offline at clock+3 while T_c=5 -> fails, duration 860
    world = tiny_world(
        [AvailabilityTrace(True, (), 1e6), AvailabilityTrace(True, (3.0,), 1e6)], [5.0, 5.0]
    )
    cfg = tiny_cfg(timeout_s=860.0)
    state = primed_state(world)
    outcome, model, clock = run_round(
        world, cfg, state, take_all, MODEL2, 0.0, 0, 1, np.random.default_rng(0), False
    )
    assert outcome.failed == (1,)
    assert outcome.duration_s == 860.0
    assert clock == 860.0


def test_run_round_failure_window_boundaries():
    base = [5.0, 5.0]
    cfg = tiny_cfg(timeout_s=860.0)
    # a flip exactly at clock + T_c is inside the window (closed right end)
    world = tiny_world(
        [AvailabilityTrace(True, (), 1e6), AvailabilityTrace(True, (5.0,), 1e6)], base
    )
    outcome, _, _ = run_round(
        world, cfg, primed_state(world), take_all, MODEL2, 0.0, 0, 1,
        np.random.default_rng(0), False,
    )
    assert outcome.failed == (1,)
    # just past the window: no failure
    world = tiny_world(
        [AvailabilityTrace(True, (), 1e6), AvailabilityTrace(True, (5.0001,), 1e6)], base
    )
    outcome, _, _ = run_round(
        world, cfg, primed_state(world), take_all, MODEL2, 0.0, 0, 1,
        np.random.default_rng(0), False,
    )
    assert outcome.failed == ()


def test_run_round_too_slow_fails_outright():
    world = tiny_world([AvailabilityTrace(True, (), 1e6)], [50.0])
    cfg = tiny_cfg(timeout_s=10.0, clients_per_round=1)
    outcome, _, _ = run_round(
        world, cfg, primed_state(world), take_all, MODEL2, 0.0, 0, 1,
        np.random.default_rng(0), False,
    )
    assert outcome.failed == (0,)
    assert outcome.duration_s == 10.0


def test_run_round_all_failed_leaves_model_unchanged():
    world = tiny_world(
        [AvailabilityTrace(True, (1.0,), 1e6), AvailabilityTrace(True, (2.0,), 1e6)], [5.0, 5.0]
    )
    cfg = tiny_cfg(timeout_s=860.0)
    model_in = np.arange(8, dtype=float)
    outcome, model_out, _ = run_round(
        world, cfg, primed_state(world), take_all, model_in, 0.0, 0, 1,
        np.random.default_rng(0), False,
    )
    assert outcome.failed == (0, 1)
    assert model_out is model_in


def test_run_round_empty_pool_is_a_skipped_round():
    world = tiny_world(
        [AvailabilityTrace(False, (), 1e6), AvailabilityTrace(False, (), 1e6)], [5.0, 5.0]
    )
    cfg = tiny_cfg(timeout_s=120.0)
    model_in = MODEL2.copy()
    outcome, model_out, clock = run_round(
        world, cfg, primed_state(world), take_all, model_in, 0.0, 0, 1,
        np.random.default_rng(0), True,
    )
    assert outcome.skipped
    assert outcome.selected == ()
    assert outcome.duration_s == 120.0
    assert outcome.accuracy is None  # nothing ran, nothing to score
    assert clock == 120.0
    assert model_out is model_in


def test_run_round_selector_returning_empty_skips():
    world = tiny_world([AvailabilityTrace(True, (), 1e6)], [5.0])
    cfg = tiny_cfg(timeout_s=120.0, clients_per_round=1)
    outcome, _, clock = run_round(
        world, cfg, primed_state(world), lambda pool, n, state, rng: [], MODEL2,
        0.0, 0, 1, np.random.default_rng(0), False,
    )
    assert outcome.skipped
    assert clock == 120.0


# -------------------------------------------------------------- run_experiment

def small_cfg(num_clients=12, num_rounds=40, kind="average"):
    cfg = ExperimentConfig()
    cfg.population.num_clients = num_clients
    cfg.round.num_rounds = num_rounds
    cfg.round.clients_per_round = 4
    cfg.round.eval_every = 10
    cfg.scenario.kind = kind
    # keep even a fully concentrated shard well under the default timeout
    cfg.task.num_samples = 400
    return cfg


def always_on_cfg(tmp_path, num_clients=10, num_rounds=30, clients_per_round=4):
    cfg = ExperimentConfig()
    cfg.population.num_clients = num_clients
    cfg.round.num_rounds = num_rounds
    cfg.round.clients_per_round = clients_per_round
    cfg.round.eval_every = 10
    cfg.task.num_samples = 400
    horizon = num_rounds * cfg.round.timeout_s * 2
    n = 3 * num_clients
    pool = TraceTable(np.ones(n, bool), np.zeros(n + 1, np.int64), np.empty(0), horizon)
    path = tmp_path / "always_on.txt"
    path.write_text("".join(serialize_trace_file(pool)))
    cfg.scenario.source = "file"
    cfg.scenario.trace_file = str(path)
    return cfg


def test_run_experiment_zero_rounds():
    cfg = small_cfg(num_rounds=0)
    report = run_experiment(cfg, 1)
    assert report.rounds == []
    assert report.accuracy_curve == []
    assert report.metrics["training_time_s"] == 0.0
    assert report.metrics["failed_rounds"] == 0
    assert report.metrics["avg_failed_clients"] == 0.0
    assert report.metrics["unique_participants"] == 0
    assert report.metrics["total_participants"] == 0
    assert 0.0 <= report.metrics["accuracy_mean"] <= 100.0  # zero-init model eval


def test_run_experiment_always_available_closed_form(tmp_path):
    # fast, permanently available clients: zero failures and an exact time sum
    cfg = always_on_cfg(tmp_path, num_clients=3, num_rounds=10, clients_per_round=3)
    world = build_world(cfg)
    report = run_experiment(cfg, 1, world=world)
    assert report.metrics["failed_rounds"] == 0
    assert report.metrics["avg_failed_clients"] == 0.0
    expected = 10 * max(world.round_times)
    assert report.metrics["training_time_s"] == pytest.approx(expected, abs=1e-9)
    assert report.metrics["unique_participants"] == 3
    assert report.metrics["total_participants"] == 30


def test_run_experiment_always_available_never_fails(tmp_path):
    cfg = always_on_cfg(tmp_path)
    for kind in ("random", "mda", "tifl"):
        report = run_experiment(replace_selector(cfg, kind), 3)
        assert report.metrics["failed_rounds"] == 0


def test_run_experiment_outcome_invariants():
    cfg = small_cfg(kind="low")
    report = run_experiment(cfg, 2)
    timeout = cfg.round.timeout_s
    previous_end = 0.0
    saw_failure = False
    for o in report.rounds:
        assert o.start_s == pytest.approx(previous_end)
        assert o.duration_s <= timeout + 1e-12
        if o.skipped:
            assert o.selected == ()
            assert o.duration_s == timeout
        else:
            assert set(o.failed) <= set(o.selected)
            assert len(o.selected) <= cfg.round.clients_per_round
            # duration hits the timeout exactly when someone failed
            assert (o.duration_s == timeout) == bool(o.failed)
        saw_failure = saw_failure or bool(o.failed)
        previous_end = o.start_s + o.duration_s
    assert saw_failure  # the low fixture must actually exercise failures


def test_round_outcomes_hold_python_scalars():
    # Selectors work on numpy arrays; the outcome must hold plain ints and
    # floats, or an np.int64(...) or np.float64(...) repr reaches the reports.
    cfg = small_cfg(num_rounds=20, kind="low")
    world = build_world(cfg)
    cells = [("random", "filter_first"), ("fedcs", "filter_first"), ("fedcs", "sample_first"),
             ("tifl", "filter_first"), ("mda", "filter_first"), ("tifl_mda", "filter_first")]
    outcomes = []
    for kind, order in cells:
        cell = replace_selector(cfg, kind)
        cell.selector.fedcs = FedcsConfig(order=order)
        rounds = run_experiment(cell, 1, world=world).rounds
        assert any(o.selected for o in rounds), (kind, order)
        outcomes += rounds
    assert any(o.failed for o in outcomes)
    for o in outcomes:
        assert all(type(c) is int for c in o.selected + o.failed), o
        assert type(o.start_s) is float and type(o.duration_s) is float, o
        assert o.accuracy is None or type(o.accuracy) is float, o


def test_run_experiment_metrics_recomputed_from_log():
    report = run_experiment(small_cfg(kind="low"), 5)
    survivors = [set(o.selected) - set(o.failed) for o in report.rounds]
    assert report.metrics["training_time_s"] == pytest.approx(
        sum(o.duration_s for o in report.rounds)
    )
    assert report.metrics["failed_rounds"] == sum(1 for o in report.rounds if o.failed)
    assert report.metrics["avg_failed_clients"] == pytest.approx(
        sum(len(o.failed) for o in report.rounds) / len(report.rounds)
    )
    assert report.metrics["unique_participants"] == len(set().union(*survivors))
    assert report.metrics["total_participants"] == sum(len(s) for s in survivors)
    assert report.metrics["accuracy_std"] == 0.0


def test_run_experiment_eval_cadence():
    cfg = small_cfg(num_rounds=25)
    cfg.round.eval_every = 7
    report = run_experiment(cfg, 1)
    for o in report.rounds:
        should_eval = (o.round_index + 1) % 7 == 0 or o.round_index == 24
        assert (o.accuracy is not None) == (should_eval and not o.skipped)
    assert report.accuracy_curve
    assert report.metrics["accuracy_mean"] == report.accuracy_curve[-1][2]
    times = [t for _, t, _ in report.accuracy_curve]
    assert times == sorted(times)


def test_run_experiment_deterministic():
    cfg = small_cfg()
    a = json.dumps(run_experiment(cfg, 9).to_dict(), sort_keys=True)
    b = json.dumps(run_experiment(cfg, 9).to_dict(), sort_keys=True)
    assert a == b
    c = json.dumps(run_experiment(cfg, 10).to_dict(), sort_keys=True)
    assert a != c


def test_run_experiment_horizon_guard():
    cfg = small_cfg()
    cfg.scenario.synthetic.horizon_s = 100.0  # far short of num_rounds * timeout
    with pytest.raises(SimulationError, match="horizon"):
        run_experiment(cfg, 1)


def accuracy_of(world, model, classes_k):
    return 100.0 * learning.evaluate(model, *world.test, classes_k)


def replay(cfg, world, report):
    """(final model, accuracies at scored rounds) from training every selected
    client of the log, failed ones too, and aggregating only the survivors."""
    model = learning.init_params(cfg.task.classes_k, cfg.task.features_d)
    scored = []
    for o in report.rounds:
        deltas = {}
        for c in o.selected:
            deltas[c] = learning.local_train(
                model,
                *world.rows[c],
                cfg.task.classes_k,
                cfg.task.epochs,
                cfg.task.batch_size,
                cfg.task.lr,
                np.random.SeedSequence([report.run_seed, o.round_index, c]),
            )
        kept = [deltas[c] for c in o.selected if c not in o.failed]
        if kept:
            model = model + learning.fedavg(kept)
        if o.accuracy is not None:
            scored.append(accuracy_of(world, model, cfg.task.classes_k))
    return model, scored


def test_failed_clients_never_touch_the_model():
    # replaying the log while computing-then-discarding failed deltas must give
    # the same trajectory the engine got by never computing them
    cfg = small_cfg(kind="low")
    world = build_world(cfg)
    report = run_experiment(cfg, 4, world=world)
    _, replayed = replay(cfg, world, report)
    assert replayed == [a for _, _, a in report.accuracy_curve]


def test_skipped_last_round_reports_the_final_model(tmp_path):
    # Every client leaves for good as round 9 begins. Round 9, the last, is
    # skipped and not scored, after rounds 5-8 trained past the round-4
    # evaluation, so the reported accuracy is the final model's.
    cfg = always_on_cfg(tmp_path, num_clients=6, num_rounds=10, clients_per_round=3)
    cfg.round.eval_every = 5
    leave = run_experiment(cfg, 2).rounds[9].start_s
    horizon = 2 * cfg.round.num_rounds * cfg.round.timeout_s
    pool = TraceTable(np.ones(18, bool), np.arange(19, dtype=np.int64), np.full(18, leave), horizon)
    Path(cfg.scenario.trace_file).write_text("".join(serialize_trace_file(pool)))
    world = build_world(cfg)
    report = run_experiment(cfg, 2, world=world)
    assert report.rounds[-1].skipped
    assert [r for r, _, _ in report.accuracy_curve] == [4]
    model, _ = replay(cfg, world, report)
    assert report.metrics["accuracy_mean"] == accuracy_of(world, model, cfg.task.classes_k)


def test_world_rows_and_test_are_the_gathered_splits():
    # The shards are rebuilt here from the task and seeds, apart from
    # build_world; alpha 0.05 over 40 clients leaves shards of 0 and 1 rows.
    cfg = small_cfg(num_clients=40)
    cfg.task.alpha = 0.05
    task = cfg.task
    dataset = learning.make_dataset(
        task.num_samples, task.features_d, task.classes_k, task.class_sep, task.seed
    )
    order, offsets = learning.dirichlet_partition(dataset, 40, task.alpha, cfg.seeds.partition_seed)
    shards = [order[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    assert {0, 1} <= {len(shard) for shard in shards}
    expected = [(dataset.features[shard], dataset.labels[shard]) for shard in shards]
    expected.append((dataset.features[dataset.test_idx], dataset.labels[dataset.test_idx]))
    world = build_world(cfg)
    # --jobs workers receive the World pickled
    for w in (world, pickle.loads(pickle.dumps(world))):
        assert len(w.rows) == len(shards)
        for got, want in zip([*w.rows, w.test], expected, strict=True):
            for a, b in zip(got, want, strict=True):
                assert a.flags.c_contiguous
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("source", ["synthetic", "file"])
def test_build_world_lets_each_large_array_go_once_read(monkeypatch, tmp_path, source):
    # The pool is gone before the features are drawn, and the split before the
    # digest. The features are drawn once: every shard and the test split are
    # views of that one block.
    cfg = small_cfg(num_clients=40)
    if source == "file":
        path = tmp_path / "traces.txt"
        path.write_text("".join(serialize_trace_file(engine.synthetic_pool(cfg))))
        cfg.scenario.source, cfg.scenario.trace_file = "file", str(path)
    read_pool = "generate_pool" if source == "synthetic" else "parse_trace_file"
    real = {name: getattr(engine, name) for name in (read_pool, "_world_digest")}
    real_split, real_draw = learning.split_samples, learning.draw_features
    pool_flips, split_labels, drawn, alive = [], [], [], {}

    def traced_pool(*args):
        pool = real[read_pool](*args)
        pool_flips.append(weakref.ref(pool.flips))
        return pool

    def traced_split(*args):
        split = real_split(*args)
        split_labels.append(weakref.ref(split.labels))
        return split

    def traced_draw(*args):
        alive["pool at draw"] = [ref() is not None for ref in pool_flips]
        drawn.append(real_draw(*args))
        return drawn[-1]

    def traced_digest(*args):
        alive["split at digest"] = [ref() is not None for ref in split_labels]
        return real["_world_digest"](*args)

    monkeypatch.setattr(engine, read_pool, traced_pool)
    monkeypatch.setattr(learning, "split_samples", traced_split)
    monkeypatch.setattr(learning, "draw_features", traced_draw)
    monkeypatch.setattr(engine, "_world_digest", traced_digest)
    world = build_world(cfg)
    assert alive == {"pool at draw": [False], "split at digest": [False]}
    assert len(drawn) == 1
    for features, _ in [*world.rows, world.test]:
        assert features.base is drawn[0]


def test_build_world_holds_the_features_once(monkeypatch):
    # A data-heavy world: 20 000 samples x 64 features are 10 MiB, and the
    # traces of 100 clients are small beside them. From the partition on, the
    # traced memory peaks at about one features block, not at two (the block
    # drawn in sample order and its rows gathered in client order).
    cfg = small_cfg(num_clients=100, num_rounds=10)
    cfg.round.timeout_s = 600.0
    cfg.task.num_samples, cfg.task.features_d, cfg.task.classes_k = 20_000, 64, 10
    real = learning.dirichlet_partition

    def partition(*args):
        tracemalloc.reset_peak()
        return real(*args)

    monkeypatch.setattr(learning, "dirichlet_partition", partition)
    tracemalloc.start()
    try:
        world = build_world(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = world.test[0].nbytes + sum(features.nbytes for features, _ in world.rows)
    assert nbytes == 20_000 * 64 * 8
    assert peak <= 1.3 * nbytes


def test_an_mda_cell_holds_memory_length_pings(tmp_path, monkeypatch):
    # 2 000 clients over 1 000 rounds: every ping would be N x rounds = 2 MB.
    # The state holds the last memory_length of them, m x N bytes, beside the
    # round start times (a float and a list slot per round). One trace in 20
    # is up, so the pools stay small and the traced run quick.
    cfg = always_on_cfg(tmp_path, num_clients=2000, num_rounds=1000)
    pool = TraceTable(np.arange(6000) % 20 == 0, np.zeros(6001, np.int64), np.empty(0), 1e6)
    Path(cfg.scenario.trace_file).write_text("".join(serialize_trace_file(pool)))
    cfg.task.num_samples = 4000
    cfg.selector.kind = "mda"
    world = build_world(cfg)
    states = []

    def kept(*args):
        states.append(SelectorState(*args))
        return states[-1]

    monkeypatch.setattr(engine, "SelectorState", kept)
    tracemalloc.start()
    try:
        run_experiment(cfg, 1, world=world)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, selectors.__file__)])
    nbytes = sum(stat.size for stat in held.statistics("filename"))
    assert [state.current_round for state in states] == [999]
    assert nbytes <= cfg.selector.mda.memory_length * 2000 + 40 * 1000


def test_build_world_closes_the_trace_file(tmp_path):
    # The file is parsed one line at a time while it is open, and closed
    # whether it parses or not.
    cfg = always_on_cfg(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text("!horizon 100\nc0 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        build_world(cfg)
        cfg.scenario.trace_file = str(bad)
        with pytest.raises(ParseError, match="line 2"):
            build_world(cfg)
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_strict_timeout_cross_check():
    cfg = small_cfg()
    cfg.round.timeout_s = 1.0
    with pytest.raises(ConfigError, match=r"timeout_s=1\.0.*slowest"):
        build_world(cfg)
    cfg.round.strict_availability_failures = False
    build_world(cfg)  # permissive mode lets slow clients simply fail


# ------------------------------------------------------- summaries/comparisons

def fake_report(**metrics):
    base = {
        "training_time_s": 0.0,
        "failed_rounds": 0,
        "accuracy_mean": 0.0,
        "accuracy_std": 0.0,
        "avg_failed_clients": 0.0,
        "unique_participants": 0,
        "total_participants": 0,
    }
    base.update(metrics)
    return ExperimentReport(
        config={}, selector="random", run_seed=0, world_digest="d", client_ids=[],
        metrics=base, rounds=[], accuracy_curve=[],
    )


def test_summarize_reports_mean_and_spread():
    reports = [
        fake_report(training_time_s=100.0, failed_rounds=1, accuracy_mean=60.0),
        fake_report(training_time_s=300.0, failed_rounds=3, accuracy_mean=70.0),
    ]
    summary = summarize_reports(reports)
    assert summary["Training time(s)"] == (200.0, 100.0)  # mean, population std
    assert summary["Failed rounds"] == (2.0, 1.0)
    assert summary["Accuracy mean"] == (65.0, None)
    assert summary["Accuracy std"] == (5.0, None)
    with pytest.raises(ValueError):
        summarize_reports([])


def test_round_log_rows_format():
    world = tiny_world(
        [AvailabilityTrace(True, (), 1e6), AvailabilityTrace(True, (3.0,), 1e6)], [5.0, 5.0]
    )
    cfg = tiny_cfg(timeout_s=860.0)
    outcome, _, _ = run_round(
        world, cfg, primed_state(world), take_all, MODEL2, 0.0, 0, 1,
        np.random.default_rng(0), False,
    )
    report = ExperimentReport(
        config={}, selector="random", run_seed=1, world_digest="d",
        client_ids=world.client_ids,
        metrics={}, rounds=[outcome], accuracy_curve=[],
    )
    rows = round_log_rows(report)
    assert rows[0] == list(ROUND_LOG_COLUMNS)
    assert rows[1] == ["0", "0.0", "860.0", "c0;c1", "c1", "false", ""]


def test_compare_selectors_single_cell_degenerates_to_run():
    cfg = small_cfg()
    comparison = compare_selectors(cfg, ["random"], run_seeds=[3])
    report = run_experiment(cfg, 3)
    assert comparison.fastest == "random"
    assert comparison.summaries["random"] == summarize_reports([report])
    assert comparison.reports["random"][0].metrics == report.metrics


def test_compare_selectors_share_one_world():
    cfg = small_cfg(kind="low")
    comparison = compare_selectors(cfg, ["random", "mda", "tifl"], run_seeds=[1, 2])
    digests = {
        report.world_digest
        for reports in comparison.reports.values()
        for report in reports
    }
    assert len(digests) == 1
    assert comparison.fastest in comparison.selectors
    for kind, reports in comparison.reports.items():
        assert [r.run_seed for r in reports] == [1, 2]
        assert all(r.selector == kind for r in reports)


def test_compare_selectors_duplicate_kind():
    with pytest.raises(ConfigError, match="duplicate"):
        compare_selectors(small_cfg(), ["random", "random"])
    with pytest.raises(ConfigError):
        compare_selectors(small_cfg(), [])


def test_parallel_jobs_match_sequential():
    cfg = small_cfg(num_rounds=15)
    seq = compare_selectors(cfg, ["random", "mda"], run_seeds=[1, 2], jobs=1)
    par = compare_selectors(cfg, ["random", "mda"], run_seeds=[1, 2], jobs=2)
    for kind in ("random", "mda"):
        for a, b in zip(seq.reports[kind], par.reports[kind]):
            assert a.to_dict() == b.to_dict()


def test_parallel_cells_build_the_world_once_in_the_caller(monkeypatch):
    # Workers are forked, so they inherit this wrapper: a build in any of them
    # raises there and comes back through the pool.
    pid, builds = os.getpid(), []
    real_build = engine.build_world

    def build_in_caller_only(cfg):
        if os.getpid() != pid:
            raise AssertionError("build_world ran in a worker process")
        builds.append(cfg)
        return real_build(cfg)

    monkeypatch.setattr(engine, "build_world", build_in_caller_only)
    cfg = small_cfg(num_rounds=5)
    compare_selectors(cfg, ["random", "mda", "tifl"], run_seeds=[1, 2], jobs=2)
    assert len(builds) == 1
    run_many(cfg, [1, 2, 3], jobs=2)
    assert len(builds) == 2


def test_run_many_requires_seeds():
    with pytest.raises(ConfigError):
        run_many(small_cfg(), [])
