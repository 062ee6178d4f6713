"""Availability traces: queries, stats, ranking, scenarios, generation, files."""

import math

import numpy as np
import pytest

import oracles
from fedselsim import traces
from fedselsim.config import DEFAULT_TRACE_CLASSES, TraceClassParams
from fedselsim.errors import ConfigError, ParseError
from fedselsim.traces import (
    AvailabilityTrace,
    build_scenario,
    generate_pool,
    generate_trace,
    is_available,
    next_flip,
    parse_trace_file,
    rank_traces,
    serialize_trace_file,
    trace_stats,
)


def random_trace(rng, horizon=1000.0):
    count = int(rng.integers(0, 20))
    times = tuple(sorted(rng.uniform(0.0, horizon, size=count).tolist()))
    while len(set(times)) != len(times):  # vanishing chance, but keep strictness
        times = tuple(sorted(rng.uniform(0.0, horizon, size=count).tolist()))
    return AvailabilityTrace(bool(rng.integers(2)), times, horizon)


# ---------------------------------------------------------------- is_available

def test_is_available_examples():
    assert is_available(AvailabilityTrace(True, (), 1000.0), 50.0) is True
    # a flip AT tau takes effect for t >= tau
    assert is_available(AvailabilityTrace(True, (100.0,), 1000.0), 100.0) is False
    assert is_available(AvailabilityTrace(True, (100.0,), 1000.0), 99.999) is True
    assert is_available(AvailabilityTrace(False, (10.0, 20.0), 1000.0), 15.0) is True


def test_is_available_returns_exactly_bool():
    # both start states x both flip parities, with t between flips and exactly
    # on a flip (which already counts); the state is start XOR parity
    flips = (10.0, 20.0, 30.0)
    cases = [(0.0, 0), (5.0, 0), (10.0, 1), (15.0, 1), (20.0, 2), (25.0, 2), (30.0, 3), (99.0, 3)]
    for start in (False, True):
        trace = AvailabilityTrace(start, flips, 100.0)
        for t, count in cases:
            got = is_available(trace, t)
            assert type(got) is bool, (start, t)
            assert got is (start != (count % 2 == 1)), (start, t)
    rng = np.random.default_rng(77)
    for _ in range(200):
        trace = random_trace(rng)
        for t in list(trace.transitions) + rng.uniform(0.0, trace.horizon_s, size=5).tolist():
            got = is_available(trace, t)
            assert type(got) is bool
            assert got == oracles.scan_available(trace.start_available, trace.transitions, t)


def test_is_available_out_of_range():
    trace = AvailabilityTrace(True, (), 100.0)
    with pytest.raises(ValueError):
        is_available(trace, -1.0)
    with pytest.raises(ValueError):
        is_available(trace, 100.5)


def test_next_flip_matches_brute_force():
    # t exactly on a flip, before the first, after the last, and flip-free traces
    rng = np.random.default_rng(31)
    with_flips = 0
    for _ in range(300):
        trace = random_trace(rng)
        flips = trace.transitions
        queries = [0.0, trace.horizon_s, *flips, *rng.uniform(0.0, trace.horizon_s, size=5)]
        if flips:
            queries += [flips[0] / 2, (flips[-1] + trace.horizon_s) / 2]
            with_flips += 1
        for t in queries:
            assert next_flip(trace, t) == min((x for x in flips if x > t), default=math.inf)
    assert 0 < with_flips < 300
    assert next_flip(AvailabilityTrace(True, (), 10.0), 5.0) == math.inf
    assert next_flip(AvailabilityTrace(True, (4.0, 6.0), 10.0), 4.0) == 6.0


def test_is_available_matches_scan_oracle():
    rng = np.random.default_rng(101)
    for _ in range(200):
        trace = random_trace(rng)
        for t in rng.uniform(0.0, trace.horizon_s, size=20):
            expected = oracles.scan_available(trace.start_available, trace.transitions, t)
            assert is_available(trace, float(t)) == expected
        # probe exactly at the flip instants too
        for tau in trace.transitions:
            expected = oracles.scan_available(trace.start_available, trace.transitions, tau)
            assert is_available(trace, tau) == expected


def test_trace_invariants_enforced():
    with pytest.raises(ValueError):
        AvailabilityTrace(True, (), 0.0)
    with pytest.raises(ValueError):
        AvailabilityTrace(True, (50.0, 50.0), 100.0)
    with pytest.raises(ValueError):
        AvailabilityTrace(True, (200.0,), 100.0)


# ----------------------------------------------------------------- trace_stats

def test_trace_stats_examples():
    assert trace_stats(AvailabilityTrace(True, (), 3600.0)) == (1.0, 0.0)
    assert trace_stats(AvailabilityTrace(True, (1800.0,), 3600.0)) == (0.5, 1.0)
    assert trace_stats(AvailabilityTrace(False, (), 3600.0)) == (0.0, 0.0)


def test_trace_stats_matches_integration_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        trace = random_trace(rng)
        up = oracles.integrate_available(
            trace.start_available, trace.transitions, trace.horizon_s
        )
        fraction, rate = trace_stats(trace)
        assert fraction == pytest.approx(up / trace.horizon_s, abs=1e-12)
        assert rate == pytest.approx(
            len(trace.transitions) / (trace.horizon_s / 3600.0)
        )


def test_trace_stats_one_second_sampling():
    # integer flip timestamps make the 1s Riemann sum exact up to the endpoint,
    # so the 1/horizon tolerance is a real bound rather than slack
    rng = np.random.default_rng(13)
    for _ in range(20):
        horizon = 500.0
        count = int(rng.integers(0, 12))
        times = tuple(sorted(rng.choice(np.arange(1, 500), size=count, replace=False).astype(float)))
        trace = AvailabilityTrace(bool(rng.integers(2)), times, horizon)
        sampled = np.mean([is_available(trace, float(t)) for t in range(int(horizon))])
        assert abs(trace_stats(trace)[0] - sampled) <= 1.0 / horizon + 1e-12


# ----------------------------------------------------------------- rank_traces

def fraction_trace(fraction, horizon=1000.0, extra_flips=()):
    """A trace with exactly the given available fraction (start up, one flip)."""
    if fraction >= 1.0:
        return AvailabilityTrace(True, tuple(extra_flips), horizon)
    return AvailabilityTrace(True, (fraction * horizon,) + tuple(extra_flips), horizon)


def test_rank_traces_by_fraction():
    traces = [fraction_trace(f) for f in (0.9, 0.1, 0.5)]
    assert rank_traces(traces) == [1, 2, 0]


def test_rank_traces_rate_tiebreak():
    # equal fraction 0.5; the flappier trace (3 flips -> rate 3x) ranks worse
    slow = AvailabilityTrace(True, (500.0,), 1000.0)
    flappy = AvailabilityTrace(True, (250.0, 500.0, 750.0), 1000.0)
    assert trace_stats(slow)[0] == trace_stats(flappy)[0]
    assert rank_traces([slow, flappy]) == [1, 0]


def test_rank_traces_index_tiebreak_and_permutation():
    traces = [AvailabilityTrace(True, (500.0,), 1000.0) for _ in range(4)]
    assert rank_traces(traces) == [0, 1, 2, 3]
    rng = np.random.default_rng(5)
    pool = [random_trace(rng) for _ in range(30)]
    order = rank_traces(pool)
    assert sorted(order) == list(range(30))
    assert order == rank_traces(pool)  # deterministic


def test_rank_traces_single_and_empty():
    assert rank_traces([AvailabilityTrace(True, (), 10.0)]) == [0]
    with pytest.raises(ValueError):
        rank_traces([])


# -------------------------------------------------------------- build_scenario

def ranked_pool(n, horizon=1000.0):
    """n traces whose ranked order equals their index (fractions ascending)."""
    return [fraction_trace((i + 0.5) / n, horizon) for i in range(n)]


def block_of(trace, pool_size):
    """Which third of the ranked pool a fraction_trace came from."""
    fraction = trace_stats(trace)[0]
    index = round(fraction * pool_size - 0.5)
    b = pool_size // 3
    mid = (pool_size - b) // 2
    if index < b:
        return 0
    if mid <= index < mid + b:
        return 1
    assert index >= pool_size - b
    return 2


def scenario_block_counts(kind, num_clients, pool_size=300, seed=0, mix=(0.6, 0.2, 0.2)):
    pool = ranked_pool(pool_size)
    assert rank_traces(pool) == list(range(pool_size))
    assigned = build_scenario(pool, kind, num_clients, mix, seed)
    assert len(assigned) == num_clients
    counts = [0, 0, 0]
    for trace in assigned:
        counts[block_of(trace, pool_size)] += 1
    return counts


def test_build_scenario_low_counts():
    # 300 ranked traces, low, 10 clients -> 6 worst-block, 2 middle, 2 best
    assert scenario_block_counts("low", 10) == [6, 2, 2]


def test_build_scenario_major_block_follows_kind():
    assert scenario_block_counts("average", 10) == [2, 6, 2]
    assert scenario_block_counts("high", 10) == [2, 2, 6]


def test_build_scenario_degenerate_mix():
    assert scenario_block_counts("high", 10, mix=(1.0, 0.0, 0.0)) == [0, 0, 10]


def test_build_scenario_odd_count_remainder_to_later_block():
    # n=7: major round(4.2)=4, remaining 3 splits 1 (earlier minor) + 2 (later)
    assert scenario_block_counts("low", 7) == [4, 1, 2]


def test_build_scenario_draws_without_replacement():
    pool = ranked_pool(300)
    assigned = build_scenario(pool, "low", 90, (0.6, 0.2, 0.2), 3)
    fractions = [trace_stats(t)[0] for t in assigned]
    assert len(set(fractions)) == len(fractions)


def test_build_scenario_deterministic():
    pool = ranked_pool(120)
    spec = ("average", 30, (0.6, 0.2, 0.2))
    assert build_scenario(pool, *spec, 42) == build_scenario(pool, *spec, 42)
    assert build_scenario(pool, *spec, 42) != build_scenario(pool, *spec, 43)


def test_build_scenario_insufficient_traces():
    pool = ranked_pool(9)
    with pytest.raises(ConfigError, match=r"10.*9|9.*10"):
        build_scenario(pool, "low", 10, (0.6, 0.2, 0.2), 0)


# -------------------------------------------------------------- generate_trace

def test_generate_trace_near_permanent_uptime():
    params = TraceClassParams(mean_up_s=3600.0 * 1e6, mean_down_s=600.0, start_available_prob=1.0)
    for seed in range(100):
        trace = generate_trace(params, 3600.0, seed)
        assert trace_stats(trace)[0] > 0.99


def test_generate_trace_deterministic():
    params = TraceClassParams(300.0, 300.0, 0.5)
    assert generate_trace(params, 10_000.0, 9) == generate_trace(params, 10_000.0, 9)


def test_generate_trace_symmetric_balance():
    params = TraceClassParams(600.0, 600.0, 0.5)
    fractions = [
        trace_stats(generate_trace(params, 36_000.0, seed))[0]
        for seed in range(1000)
    ]
    assert 0.45 <= np.mean(fractions) <= 0.55


def test_generate_trace_validation():
    for horizon in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            generate_trace(TraceClassParams(300.0, 300.0, 0.5), horizon, 1)
    with pytest.raises(ConfigError):
        TraceClassParams(0.0, 300.0, 0.5)
    with pytest.raises(ConfigError):
        TraceClassParams(300.0, math.nan, 0.5)
    with pytest.raises(ConfigError):
        TraceClassParams(300.0, 300.0, 1.5)
    with pytest.raises(ConfigError):
        TraceClassParams(1.0, 1.0, 0.5, weight=math.nan)


def assert_matches_loop_oracle(params, horizon, seed):
    trace = generate_trace(params, horizon, seed)
    expected = oracles.loop_generate_trace(params, horizon, seed)
    assert (trace.start_available, trace.transitions) == expected
    assert all(type(t) is float for t in trace.transitions)
    return trace


@pytest.mark.parametrize("params", DEFAULT_TRACE_CLASSES)
def test_generate_trace_matches_loop_oracle_default_classes(params):
    # The default horizon (300 rounds x 120 s) and a short one, per class.
    starts = set()
    for seed in range(150):
        for horizon in (36_000.0, 900.0):
            trace = assert_matches_loop_oracle(params, horizon, np.random.SeedSequence(seed))
            starts.add(trace.start_available)
    assert starts == {True, False}


@pytest.mark.parametrize("start_prob", [0.0, 1.0])
def test_generate_trace_matches_loop_oracle_each_start_state(start_prob):
    params = TraceClassParams(120.0, 480.0, start_prob)
    for seed in range(50):
        trace = assert_matches_loop_oracle(params, 7_200.0, seed)
        assert trace.start_available is (start_prob == 1.0)


def test_generate_trace_matches_loop_oracle_without_flips():
    # Horizons that end before the first duration does: the trace never flips.
    cases = [
        (TraceClassParams(1e9, 1e9, 0.5), 1_000.0),
        (TraceClassParams(300.0, 300.0, 0.5), 1e-6),
        (TraceClassParams(math.inf, 60.0, 1.0), 10.0),
    ]
    for params, horizon in cases:
        for seed in range(20):
            assert assert_matches_loop_oracle(params, horizon, seed).transitions == ()


def test_generate_trace_matches_loop_oracle_across_blocks():
    # About 10 000 flips: several blocks of traces._MAX_BLOCK draws.
    params = TraceClassParams(1.0, 1.0, 0.5)
    for seed in range(3):
        trace = assert_matches_loop_oracle(params, 10_000.0, seed)
        assert len(trace.transitions) > 2 * traces._MAX_BLOCK


def test_generate_trace_matches_loop_oracle_random_params():
    # Means from 0.01 s to 5 000 s and horizons from 10 s to 180 000 s, kept to
    # at most ~20 000 expected flips so the oracle stays quick.
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 300:
        up, down = 10 ** rng.uniform(-2.0, math.log10(5_000.0), size=2)
        horizon = float(10 ** rng.uniform(1.0, math.log10(180_000.0)))
        if 2.0 * horizon / (up + down) > 20_000:
            continue
        params = TraceClassParams(float(up), float(down), float(rng.uniform()))
        assert_matches_loop_oracle(params, horizon, np.random.SeedSequence(checked))
        checked += 1


def test_generate_pool_class_counts():
    # flip-free classes so membership is readable off the start state:
    # weight 3:1 over 10 -> raw 7.5/2.5, equal remainders, earlier class wins
    classes = [
        TraceClassParams(1e9, 1e9, 1.0, weight=3.0),
        TraceClassParams(1e9, 1e9, 0.0, weight=1.0),
    ]
    pool = generate_pool(classes, 10, 1000.0, 4)
    assert len(pool) == 10
    assert sum(trace.start_available for trace in pool) == 8
    assert all(trace.transitions == () for trace in pool)
    assert pool == generate_pool(classes, 10, 1000.0, 4)
    with pytest.raises(ConfigError):
        generate_pool([], 10, 1000.0, 4)


# ------------------------------------------------------------------ trace files

def test_parse_trace_file_example():
    text = "!horizon 1000\nc1 1 100 250\n"
    traces = parse_trace_file(text)
    assert traces == [AvailabilityTrace(True, (100.0, 250.0), 1000.0)]


def test_parse_trace_file_comments_and_blanks():
    text = "# a comment\n\n!horizon 500\n# another\nc0 0\nc1 1 10\n"
    traces = parse_trace_file(text)
    assert traces == [
        AvailabilityTrace(False, (), 500.0),
        AvailabilityTrace(True, (10.0,), 500.0),
    ]


def test_serialize_parse_roundtrip():
    rng = np.random.default_rng(55)
    pool = [random_trace(rng, horizon=2000.0) for _ in range(50)]
    assert parse_trace_file(serialize_trace_file(pool)) == pool


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("!horizon 1000\nc1 1 250 100\n", "line 2"),       # non-monotone
        ("c1 1 100\n", "line 1"),                          # data before header
        ("!horizon abc\n", "line 1"),                      # bad horizon value
        ("!horizon 1000\n!horizon 1000\n", "line 2"),      # duplicate header
        ("!horizon 1000\nc1 2 100\n", "line 2"),           # bad start state
        ("!horizon 1000\nc1 1 ten\n", "line 2"),           # non-numeric timestamp
        ("!horizon -5\n", "line 1"),                       # non-positive horizon
        ("# nothing\n", "horizon"),                        # no header at all
        ("!horizon 1000\nc1 1 100\nc1 0\n", "line 3: duplicate client id 'c1'"),
        ("!horizon nan\nc1 1\n", "line 1: horizon must be finite"),
        ("!horizon inf\nc1 1 100\n", "line 1: horizon must be finite"),
        ("!horizon 1000\nc1 1 nan\n", "line 2"),             # NaN timestamp
    ],
)
def test_parse_trace_file_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_trace_file(text)


def test_serialize_trace_file_validation():
    with pytest.raises(ValueError):
        serialize_trace_file([])
    mixed = [AvailabilityTrace(True, (), 10.0), AvailabilityTrace(True, (), 20.0)]
    with pytest.raises(ValueError):
        serialize_trace_file(mixed)
