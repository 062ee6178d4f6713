"""Tests of the benchmark itself: exact traced counts, digests, metric names.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from fedselsim import engine, learning, selectors, traces  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import DEFAULT_SEED, SELECTORS, WORKLOADS, config_dict, run_seeds  # noqa: E402

NUM_CLIENTS, NUM_ROUNDS, RUN_SEEDS = 60, 40, [3, 4]

SMALL = {
    "scenario": {"kind": "low"},
    "population": {"num_clients": NUM_CLIENTS},
    "round": {"clients_per_round": 5, "num_rounds": NUM_ROUNDS, "timeout_s": 30.0, "eval_every": 10},
    "seeds": {"run_seeds": RUN_SEEDS},
}


@pytest.fixture(scope="module")
def world():
    _, cfg, world = harness.setup(SMALL)
    return cfg, world


def test_traced_counts_repeat_exactly(world):
    cfg, world = world
    first = harness.study_layers(harness.traced_study(cfg, world)[2])
    second = harness.study_layers(harness.traced_study(cfg, world)[2])
    for key in harness.COUNT_UNITS:
        assert first[key] == second[key], key
    cells = len(SELECTORS) * len(RUN_SEEDS)
    assert first["traces.is_available.calls"] == NUM_CLIENTS * NUM_ROUNDS * cells
    assert first["engine.run_round.calls"] == NUM_ROUNDS * cells
    assert first["selectors.select.calls"] <= first["engine.run_round.calls"]


def test_traced_and_untraced_digests_are_identical(world):
    cfg, world = world
    _, plain = harness.run_study(cfg, world)
    _, traced, _ = harness.traced_study(cfg, world)
    assert [c.key for c in plain] == [c.key for c in traced]
    assert [c.digest for c in plain] == [c.digest for c in traced]
    assert all(c.digest for c in plain)


def test_instrument_restores_the_program():
    originals = (engine.is_available, engine.run_round, learning.local_train, selectors.mda_weights)
    with instrument(Tracer()):
        assert engine.is_available is not traces.is_available
    assert (engine.is_available, engine.run_round, learning.local_train,
            selectors.mda_weights) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    leaf = tracer.wrap_folded("leaf", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [leaf() for _ in range(5)])
    outer()
    assert tracer.calls("leaf") == 5
    assert len(tracer.by_name("leaf")) == 1   # consecutive calls fold into one record
    assert tracer.self_time("outer") == pytest.approx(
        tracer.busy("outer") - tracer.busy("leaf"), abs=1e-12
    )


def test_gate_counts_drift_and_raises_as_failures():
    gate = harness.Gate("w", 1, {"random:4": "a"})
    gate.check([harness.Cell("random", 4, 1.0, "a"), harness.Cell("mda", 4, 1.0, "b")])
    gate.check([harness.Cell("random", 4, 1.0, "x"), harness.Cell("mda", 4, 1.0, None)])
    gate.check([harness.Cell("mda", 4, 1.0, "c")])
    assert (gate.attempted, gate.failed) == (5, 3)


def test_default_seed_digests_are_recorded():
    table = json.loads(harness.DIGESTS_PATH.read_text())
    for workload in WORKLOADS:
        expected = {f"{kind}:{s}" for kind in SELECTORS for s in run_seeds(workload, DEFAULT_SEED)}
        assert set(table[workload][str(DEFAULT_SEED)]) == expected


def test_study_low_matches_its_recorded_digests():
    _, cfg, world = harness.setup(config_dict("study_low", DEFAULT_SEED))
    _, cells = harness.run_study(cfg, world)
    gate = harness.Gate.load("study_low", DEFAULT_SEED)
    gate.check(cells)
    assert gate.failed == 0, gate.problems


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
