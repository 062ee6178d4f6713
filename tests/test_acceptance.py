"""Acceptance gate: ten go/no-go checks on a frozen desk-scale fixture.

The fixture: 500 clients, 10 selected per round, 1,000 rounds, 30 s timeout,
seeds {1..5}, low- and high-availability scenarios over the default synthetic
trace pool. Every check prints one `criterion NN PASS|FAIL` line directly to
the terminal (capture bypassed) before asserting, so a red run still names
exactly which gate fell.
"""

import json
import statistics
import time

import numpy as np
import pytest

import oracles
from fedselsim import learning
from fedselsim.config import MdaConfig, config_from_dict
from fedselsim.engine import (
    build_world,
    compare_selectors,
    replace_selector,
    run_experiment,
    run_many,
)
from fedselsim.selectors import (
    assign_tiers,
    mda_weights,
    select_tifl,
    tier_probabilities,
)
from fedselsim.traces import AvailabilityTrace, serialize_trace_file
from selector_history import mda_raw_weight, state_from_history

SEEDS = [1, 2, 3, 4, 5]
SELECTORS = ["random", "fedcs", "tifl", "mda", "tifl_mda"]
TIMEOUT_S = 30.0
FEDCS_THRESHOLD_S = 14.0


def fixture_cfg(kind):
    return config_from_dict(
        {
            "scenario": {"kind": kind},
            "population": {"num_clients": 500},
            "round": {
                "clients_per_round": 10,
                "num_rounds": 1000,
                "timeout_s": TIMEOUT_S,
                "eval_every": 100,
            },
            "selector": {"fedcs": {"threshold_s": FEDCS_THRESHOLD_S}},
            "seeds": {"run_seeds": SEEDS},
        }
    )


@pytest.fixture(scope="module")
def low_matrix():
    started = time.perf_counter()
    comparison = compare_selectors(fixture_cfg("low"), SELECTORS, run_seeds=SEEDS)
    per_run = (time.perf_counter() - started) / (len(SELECTORS) * len(SEEDS))
    return comparison, per_run


@pytest.fixture(scope="module")
def high_reports():
    return run_many(fixture_cfg("high"), SEEDS)


@pytest.fixture(scope="module")
def low_world():
    return build_world(fixture_cfg("low"))


@pytest.fixture(scope="module")
def separable_reports(tmp_path_factory):
    # permanently available clients on an easily separable task: training must
    # converge and no round may fail
    path = tmp_path_factory.mktemp("acceptance") / "always_on.txt"
    path.write_text(
        serialize_trace_file([AvailabilityTrace(True, (), 10_000.0) for _ in range(300)])
    )
    cfg = config_from_dict(
        {
            "scenario": {"kind": "high", "source": "file", "trace_file": str(path)},
            "population": {"num_clients": 100},
            "round": {"clients_per_round": 10, "num_rounds": 50, "eval_every": 5},
            "task": {"class_sep": 2.0, "alpha": 1.0},
            "seeds": {"run_seeds": SEEDS},
        }
    )
    return run_many(cfg, SEEDS)


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def metric(reports, key):
    return [report.metrics[key] for report in reports]


def test_criterion_01_mda_weight_oracle(capsys):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        per_client, starts, m = oracles.random_mda_instance(rng)
        cfg = MdaConfig(memory_length=m)
        state = state_from_history([(h, f) for h, f, _ in per_client], starts)
        expected = oracles.mda_weights(per_client, m, cfg.default_weight)
        got = mda_weights(state, list(range(len(per_client))), cfg)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    # short history, one failure two rounds back of three: penalty factor 8/11
    state = state_from_history([([True] * 4, [1])], [0.0, 10.0, 20.0, 30.0])
    raw = mda_raw_weight(state, 0, MdaConfig(memory_length=10, default_weight=0.5))
    example_dev = abs(raw - 0.5 * (8.0 / 11.0))
    ok = worst <= 1e-12 and example_dev <= 1e-12
    verdict(
        capsys, 1, ok,
        f"MDA weights match brute force on 1000 instances "
        f"(max dev {worst:.1e}, worked example dev {example_dev:.1e})",
    )


def test_criterion_02_tier_geometry(capsys):
    probs = tier_probabilities(5, 1.4)
    expected = [0.3510, 0.2507, 0.1791, 0.1279, 0.0914]
    prob_dev = max(abs(a - b) for a, b in zip(probs, expected))
    tiers = assign_tiers(np.linspace(1.0, 20.0, 100).tolist(), 5)
    rng = np.random.default_rng(7)
    pool = list(range(100))
    hits = sum(
        tiers[select_tifl(pool, 1, tiers, probs, rng)[0]] == 0 for _ in range(100_000)
    )
    freq = hits / 100_000
    ok = prob_dev <= 1e-4 and abs(freq - 0.3510) <= 0.01
    verdict(
        capsys, 2, ok,
        f"tier probabilities dev {prob_dev:.1e}; tier-0 draw frequency {freq:.4f}",
    )


def test_criterion_03_low_availability_hurts(capsys, low_matrix, high_reports):
    comparison, per_run = low_matrix
    low = comparison.reports["random"]
    more_failures = all(
        l.metrics["failed_rounds"] > h.metrics["failed_rounds"]
        for l, h in zip(low, high_reports)
    )
    more_time = all(
        l.metrics["training_time_s"] > h.metrics["training_time_s"]
        for l, h in zip(low, high_reports)
    )
    ok = more_failures and more_time and per_run < 60.0
    verdict(
        capsys, 3, ok,
        f"random: low beats high on failed rounds and training time for every "
        f"seed ({per_run:.2f} s/run)",
    )


def test_criterion_04_mda_beats_random(capsys, low_matrix):
    comparison, _ = low_matrix
    random_failed = statistics.mean(metric(comparison.reports["random"], "failed_rounds"))
    mda_failed = statistics.mean(metric(comparison.reports["mda"], "failed_rounds"))
    random_time = statistics.mean(metric(comparison.reports["random"], "training_time_s"))
    mda_time = statistics.mean(metric(comparison.reports["mda"], "training_time_s"))
    ratio = mda_failed / random_failed
    ok = ratio <= 0.8 and mda_time < random_time
    verdict(
        capsys, 4, ok,
        f"MDA/random failed-round ratio {ratio:.3f} (<= 0.8); mean time "
        f"{mda_time:.0f}s < {random_time:.0f}s",
    )


def test_criterion_05_resource_aware_speedup(capsys, low_matrix):
    comparison, _ = low_matrix
    tifl_faster = all(
        t < r
        for t, r in zip(
            metric(comparison.reports["tifl"], "training_time_s"),
            metric(comparison.reports["random"], "training_time_s"),
        )
    )
    fedcs_narrower = all(
        f < t
        for f, t in zip(
            metric(comparison.reports["fedcs"], "unique_participants"),
            metric(comparison.reports["tifl"], "unique_participants"),
        )
    )
    ok = tifl_faster and fedcs_narrower
    verdict(
        capsys, 5, ok,
        "tifl faster than random and fedcs reaches fewer unique participants "
        "than tifl on every seed",
    )


def test_criterion_06_tifl_mda_fastest(capsys, low_matrix):
    comparison, _ = low_matrix
    means = {
        kind: statistics.mean(metric(reports, "training_time_s"))
        for kind, reports in comparison.reports.items()
    }
    fastest = min(means, key=means.get)
    fewer_failures = all(
        a < b
        for a, b in zip(
            metric(comparison.reports["tifl_mda"], "failed_rounds"),
            metric(comparison.reports["tifl"], "failed_rounds"),
        )
    )
    ok = fastest == "tifl_mda" and comparison.fastest == "tifl_mda" and fewer_failures
    verdict(
        capsys, 6, ok,
        f"tifl_mda has the lowest mean training time ({means[fastest]:.0f}s) and "
        f"fewer failed rounds than tifl on every seed",
    )


def test_criterion_07_fedcs_threshold_soundness(capsys, low_matrix, low_world):
    comparison, _ = low_matrix
    times = low_world.round_times
    selections = violations = 0
    for report in comparison.reports["fedcs"]:
        for outcome in report.rounds:
            selections += len(outcome.selected)
            violations += sum(1 for c in outcome.selected if times[c] > FEDCS_THRESHOLD_S)
    ok = selections > 0 and violations == 0
    verdict(
        capsys, 7, ok,
        f"fedcs selected {selections} clients across 5x1000 rounds with "
        f"{violations} above the {FEDCS_THRESHOLD_S}s threshold",
    )


def test_criterion_08_failure_semantics(capsys, low_matrix, high_reports, separable_reports):
    comparison, _ = low_matrix
    failed_rounds = off_timeout = 0
    for reports in list(comparison.reports.values()) + [high_reports]:
        for report in reports:
            for outcome in report.rounds:
                if outcome.failed:
                    failed_rounds += 1
                    if outcome.duration_s != TIMEOUT_S:
                        off_timeout += 1
    always_on_clean = all(r.metrics["failed_rounds"] == 0 for r in separable_reports)
    ok = failed_rounds > 0 and off_timeout == 0 and always_on_clean
    verdict(
        capsys, 8, ok,
        f"{failed_rounds} failed rounds all cost exactly {TIMEOUT_S}s; always-on "
        f"traces produced zero failed rounds on all 5 seeds",
    )


def test_criterion_09_learning_correctness(capsys, separable_reports):
    # gradient against central finite differences
    rng = np.random.default_rng(42)
    X = rng.normal(size=(1, 5))
    y = np.array([1])
    params = rng.normal(scale=0.5, size=learning.num_params(3, 5))
    delta = learning.local_train(params, X, y, 3, 1, 8, 0.1, 0)
    reference = oracles.finite_difference_grad(params, X, y, 3)
    rel = np.abs(-delta / 0.1 - reference) / np.maximum(np.abs(reference), 1e-12)
    grad_ok = rel.max() < 1e-4

    # aggregation is exactly the arithmetic mean
    rng = np.random.default_rng(23)
    deltas = [rng.normal(size=12) for _ in range(7)]
    fedavg_ok = np.array_equal(learning.fedavg(deltas), np.mean(np.stack(deltas), axis=0))

    # equal iid shards, full participation: federated == centralized descent
    classes_k, d, lr = 3, 4, 0.1
    rng = np.random.default_rng(3)
    Xc = rng.normal(size=(60, d))
    yc = rng.integers(0, classes_k, size=60)
    shards = [np.arange(i * 15, (i + 1) * 15) for i in range(4)]
    fed = np.zeros(learning.num_params(classes_k, d))
    central = fed.copy()
    fl_dev = 0.0
    for step in range(30):
        step_deltas = [
            learning.local_train(fed, Xc[s], yc[s], classes_k, 1, 15, lr, (step, i))
            for i, s in enumerate(shards)
        ]
        fed = fed + learning.fedavg(step_deltas)
        central = central - lr * oracles.softmax_grad(central, Xc, yc, classes_k)
        fl_dev = max(fl_dev, float(np.abs(fed - central).max()))
    fl_ok = fl_dev < 1e-9

    final_accuracies = [r.metrics["accuracy_mean"] for r in separable_reports]
    separable_ok = all(a >= 95.0 for a in final_accuracies)

    ok = grad_ok and fedavg_ok and fl_ok and separable_ok
    verdict(
        capsys, 9, ok,
        f"gradient rel dev {rel.max():.1e}; fedavg exact; federated-centralized "
        f"dev {fl_dev:.1e}; separable fixture accuracy min "
        f"{min(final_accuracies):.1f}%",
    )


def test_criterion_10_determinism(capsys):
    base = config_from_dict(
        {
            "scenario": {"kind": "low"},
            "population": {"num_clients": 100},
            "round": {"clients_per_round": 10, "num_rounds": 60, "eval_every": 20},
            "task": {"num_samples": 400},
        }
    )
    mismatched = []
    for kind in SELECTORS:
        cfg = replace_selector(base, kind)
        first = json.dumps(run_experiment(cfg, 3).to_dict(), sort_keys=True)
        second = json.dumps(run_experiment(cfg, 3).to_dict(), sort_keys=True)
        if first != second:
            mismatched.append(kind)
    ok = not mismatched
    verdict(
        capsys, 10, ok,
        "byte-identical reports for every selector"
        + (f" (mismatches: {mismatched})" if mismatched else ""),
    )
