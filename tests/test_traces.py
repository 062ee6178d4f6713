"""Availability traces: queries, stats, ranking, scenarios, generation, files."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from fedselsim import traces
from fedselsim.config import DEFAULT_TRACE_CLASSES, TraceClassParams
from fedselsim.errors import ConfigError, ParseError
from fedselsim.traces import (
    AvailabilityTrace,
    TraceTable,
    build_scenario,
    generate_pool,
    is_available,
    next_flip,
    parse_trace_file,
    rank_traces,
    serialize_trace_file,
)


def random_trace(rng, horizon=1000.0):
    count = int(rng.integers(0, 20))
    times = tuple(sorted(rng.uniform(0.0, horizon, size=count).tolist()))
    while len(set(times)) != len(times):  # vanishing chance, but keep strictness
        times = tuple(sorted(rng.uniform(0.0, horizon, size=count).tolist()))
    return AvailabilityTrace(bool(rng.integers(2)), times, horizon)


def raw_table(start, flip_lists, horizon):
    """A TraceTable from plain lists, so that it is the table's own pass that checks them."""
    offsets = np.concatenate(([0], np.cumsum([len(f) for f in flip_lists]))).astype(np.int64)
    flips = np.array([t for f in flip_lists for t in f], dtype=np.float64)
    return TraceTable(np.array(start, dtype=bool), offsets, flips, horizon)


def table_of(rows):
    """The checked table of AvailabilityTrace rows that share a horizon."""
    return raw_table(
        [tr.start_available for tr in rows], [tr.transitions for tr in rows], rows[0].horizon_s
    )


def assert_same_table(got, expected):
    assert got.horizon_s == expected.horizon_s
    for name in ("start", "offsets", "flips"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def stats_of(trace):
    """(available fraction, flips per hour) of one trace, as the ranking sees it."""
    fraction, rate = traces._table_stats(table_of([trace]))
    return float(fraction[0]), float(rate[0])


def generate_one(params, horizon_s, rng_seed):
    """One trace of the class, drawn from `default_rng(rng_seed)`'s state."""
    state = np.random.default_rng(rng_seed).bit_generator.state
    start, counts, flips = traces._generate_rows(params, horizon_s, [state])
    assert counts.tolist() == [len(flips)]
    return raw_table(start, [flips], horizon_s)[0]


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
    for flips, horizon in (([], 0.0), ([50.0, 50.0], 100.0), ([200.0], 100.0)):
        with pytest.raises(ValueError) as caught:
            raw_table([True], [flips], horizon)
        assert str(caught.value) == loop_error([flips], horizon)


# ----------------------------------------------------------------- trace stats

def test_trace_stats_examples():
    assert stats_of(AvailabilityTrace(True, (), 3600.0)) == (1.0, 0.0)
    assert stats_of(AvailabilityTrace(True, (1800.0,), 3600.0)) == (0.5, 1.0)
    assert stats_of(AvailabilityTrace(False, (), 3600.0)) == (0.0, 0.0)


def test_trace_stats_matches_integration_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        trace = random_trace(rng)
        up = oracles.integrate_available(
            trace.start_available, trace.transitions, trace.horizon_s
        )
        fraction, rate = stats_of(trace)
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
        assert abs(stats_of(trace)[0] - sampled) <= 1.0 / horizon + 1e-12


# ----------------------------------------------------------------- rank_traces

def fraction_trace(fraction, horizon=1000.0, extra_flips=()):
    """A trace with exactly the given available fraction (start up, one flip)."""
    if fraction >= 1.0:
        return AvailabilityTrace(True, tuple(extra_flips), horizon)
    return AvailabilityTrace(True, (fraction * horizon,) + tuple(extra_flips), horizon)


def test_rank_traces_by_fraction():
    pool = [fraction_trace(f) for f in (0.9, 0.1, 0.5)]
    assert rank_traces(table_of(pool)).tolist() == [1, 2, 0]


def test_rank_traces_rate_tiebreak():
    # equal fraction 0.5; the flappier trace (3 flips -> rate 3x) ranks worse
    slow = AvailabilityTrace(True, (500.0,), 1000.0)
    flappy = AvailabilityTrace(True, (250.0, 500.0, 750.0), 1000.0)
    assert stats_of(slow)[0] == stats_of(flappy)[0]
    assert rank_traces(table_of([slow, flappy])).tolist() == [1, 0]


def test_rank_traces_index_tiebreak_and_permutation():
    assert rank_traces(raw_table([True] * 4, [[500.0]] * 4, 1000.0)).tolist() == [0, 1, 2, 3]
    rng = np.random.default_rng(5)
    pool = table_of([random_trace(rng) for _ in range(30)])
    order = rank_traces(pool).tolist()
    assert sorted(order) == list(range(30))
    assert order == rank_traces(pool).tolist()  # deterministic


def test_rank_traces_single_and_empty():
    assert rank_traces(raw_table([True], [[]], 10.0)) == [0]
    with pytest.raises(ValueError):
        rank_traces(raw_table([], [], 10.0))


# -------------------------------------------------------------- build_scenario

def ranked_pool(n, horizon=1000.0):
    """n traces whose ranked order equals their index (fractions ascending)."""
    return [fraction_trace((i + 0.5) / n, horizon) for i in range(n)]


def block_of(trace, pool_size):
    """Which third of the ranked pool a fraction_trace came from."""
    fraction = stats_of(trace)[0]
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
    ranked = rank_traces(table_of(pool))
    assert ranked.tolist() == list(range(pool_size))
    assigned = [pool[i] for i in build_scenario(ranked, kind, num_clients, mix, seed)]
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
    assigned = [pool[i] for i in build_scenario(np.arange(300), "low", 90, (0.6, 0.2, 0.2), 3)]
    fractions = [stats_of(t)[0] for t in assigned]
    assert len(set(fractions)) == len(fractions)


def test_build_scenario_deterministic():
    ranked = np.arange(120)
    spec = ("average", 30, (0.6, 0.2, 0.2))
    assert build_scenario(ranked, *spec, 42).tolist() == build_scenario(ranked, *spec, 42).tolist()
    assert build_scenario(ranked, *spec, 42).tolist() != build_scenario(ranked, *spec, 43).tolist()


def test_build_scenario_insufficient_traces():
    with pytest.raises(ConfigError, match=r"10.*9|9.*10"):
        build_scenario(np.arange(9), "low", 10, (0.6, 0.2, 0.2), 0)


# ------------------------------------------------------------ one-trace draws

def test_generate_trace_near_permanent_uptime():
    params = TraceClassParams(mean_up_s=3600.0 * 1e6, mean_down_s=600.0, start_available_prob=1.0)
    for seed in range(100):
        trace = generate_one(params, 3600.0, seed)
        assert stats_of(trace)[0] > 0.99


def test_generate_trace_deterministic():
    params = TraceClassParams(300.0, 300.0, 0.5)
    assert generate_one(params, 10_000.0, 9) == generate_one(params, 10_000.0, 9)


def test_generate_trace_symmetric_balance():
    params = TraceClassParams(600.0, 600.0, 0.5)
    fractions = [
        stats_of(generate_one(params, 36_000.0, seed))[0]
        for seed in range(1000)
    ]
    assert 0.45 <= np.mean(fractions) <= 0.55


def test_generate_trace_validation():
    for horizon in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            generate_one(TraceClassParams(300.0, 300.0, 0.5), horizon, 1)
    with pytest.raises(ConfigError):
        TraceClassParams(0.0, 300.0, 0.5)
    with pytest.raises(ConfigError):
        TraceClassParams(300.0, math.nan, 0.5)
    with pytest.raises(ConfigError):
        TraceClassParams(300.0, 300.0, 1.5)
    with pytest.raises(ConfigError):
        TraceClassParams(1.0, 1.0, 0.5, weight=math.nan)


def assert_matches_loop_oracle(params, horizon, seed):
    trace = generate_one(params, horizon, seed)
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


def test_generate_trace_takes_any_default_rng_seed():
    # _generate_rows draws from the states of other bit generators than PCG64 too.
    params = TraceClassParams(30.0, 20.0, 0.5)
    for make in (np.random.default_rng, np.random.PCG64, np.random.MT19937, np.random.Philox):
        trace = generate_one(params, 3_000.0, make(5))
        expected = oracles.loop_generate_trace(params, 3_000.0, make(5))
        assert (trace.start_available, trace.transitions) == expected


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
    assert_same_table(pool, generate_pool(classes, 10, 1000.0, 4))
    with pytest.raises(ConfigError):
        generate_pool([], 10, 1000.0, 4)


# ------------------------------------------------------------------ trace table

def edge_traces(rng, count, horizon=1000.0):
    """random_trace draws whose first flip is sometimes exactly 0.0, and last exactly the horizon."""
    pool = []
    for _ in range(count):
        trace = random_trace(rng, horizon)
        flips = list(trace.transitions)
        if flips and rng.random() < 0.25:
            flips[0] = 0.0
        if flips and rng.random() < 0.25:
            flips[-1] = horizon
        pool.append(AvailabilityTrace(trace.start_available, tuple(flips), horizon))
    return pool


def loop_error(flip_lists, horizon):
    """The message of the first ValueError a trace-by-trace loop check raises, or None."""
    try:
        for flips in flip_lists:
            oracles.loop_check_trace(flips, horizon)
    except ValueError as exc:
        return str(exc)
    return None


def mutate(flips, kind, rng, horizon):
    """flips with one fault of the given kind put in at a random place."""
    flips = list(flips)
    i = int(rng.integers(len(flips) + 1)) if kind != "equal pair" else int(rng.integers(len(flips)))
    if kind == "equal pair":
        flips.insert(i, flips[i])
    elif kind == "negative flip":
        flips.insert(i, -float(rng.uniform(1e-9, horizon)))
    elif kind == "above the horizon":
        flips.insert(i, horizon * (1.0 + float(rng.uniform(1e-9, 1.0))))
    else:
        flips.insert(i, math.nan)
    return flips


@pytest.mark.parametrize("kind", ["equal pair", "negative flip", "above the horizon", "NaN"])
def test_table_check_raises_exactly_when_the_loop_does(kind):
    # Faults in one to three traces of a pool: the table's one pass raises the
    # loop's first message, and each faulty trace alone raises its own.
    rng = np.random.default_rng(["equal pair", "negative flip", "above the horizon", "NaN"].index(kind))
    for _ in range(150):
        pool = edge_traces(rng, int(rng.integers(1, 12)))
        start = [tr.start_available for tr in pool]
        flip_lists = [list(tr.transitions) for tr in pool]
        assert loop_error(flip_lists, 1000.0) is None
        assert list(raw_table(start, flip_lists, 1000.0)) == pool
        candidates = [i for i, f in enumerate(flip_lists) if f or kind != "equal pair"]
        if not candidates:
            continue
        for i in rng.choice(candidates, size=min(len(candidates), int(rng.integers(1, 4))), replace=False):
            flip_lists[i] = mutate(flip_lists[i], kind, rng, 1000.0)
            with pytest.raises(ValueError) as one:
                raw_table([start[i]], [flip_lists[i]], 1000.0)
            assert str(one.value) == loop_error([flip_lists[i]], 1000.0)
        expected = loop_error(flip_lists, 1000.0)
        assert expected is not None
        with pytest.raises(ValueError) as caught:
            raw_table(start, flip_lists, 1000.0)
        assert str(caught.value) == expected


def test_table_check_rejects_the_loops_horizons():
    for horizon in (0.0, -1.0, math.inf, math.nan):
        expected = loop_error([[]], horizon)
        with pytest.raises(ValueError) as caught:
            raw_table([True], [[]], horizon)
        assert str(caught.value) == expected


def assert_stats_match_loop(table):
    fraction, rate = traces._table_stats(table)
    expected = [oracles.loop_trace_stats(tr.start_available, tr.transitions, tr.horizon_s) for tr in table]
    assert fraction.tobytes() == np.array([e[0] for e in expected]).tobytes()
    assert rate.tobytes() == np.array([e[1] for e in expected]).tobytes()
    for tr, pair in zip(table, expected):
        assert stats_of(tr) == pair


@pytest.mark.parametrize("block_elements", [16, traces._BLOCK_ELEMENTS])
def test_table_stats_equal_the_loop_bit_for_bit(monkeypatch, block_elements):
    # Small blocks split the pool into many padded pieces of unequal width.
    monkeypatch.setattr(traces, "_BLOCK_ELEMENTS", block_elements)
    cases = [
        AvailabilityTrace(True, (), 1000.0),
        AvailabilityTrace(False, (), 1000.0),
        AvailabilityTrace(True, (0.0,), 1000.0),
        AvailabilityTrace(False, (0.0, 1000.0), 1000.0),
        AvailabilityTrace(True, (0.1, 0.2, 1000.0), 1000.0),
        AvailabilityTrace(False, (1000.0,), 1000.0),
    ]
    assert_stats_match_loop(table_of(cases))
    rng = np.random.default_rng(8)
    for _ in range(60):
        assert_stats_match_loop(table_of(edge_traces(rng, int(rng.integers(1, 40)))))


# Generated pools: a class of several-block traces (about 10 000 flips, over
# 2 * _MAX_BLOCK), one of weight 0 that gets no trace, and two short ones.
POOL_CLASSES = [
    TraceClassParams(1.0, 1.0, 0.5, weight=2.0),
    TraceClassParams(300.0, 300.0, 0.5, weight=0.0),
    TraceClassParams(300.0, 900.0, 0.0, weight=1.0),
    TraceClassParams(50.0, 20.0, 1.0, weight=1.0),
]


@pytest.mark.parametrize("block_elements", [16, traces._BLOCK_ELEMENTS])
def test_generated_pool_matches_the_per_trace_oracle(monkeypatch, block_elements):
    monkeypatch.setattr(traces, "_BLOCK_ELEMENTS", block_elements)
    horizon = 10_000.0
    pool = generate_pool(POOL_CLASSES, 12, horizon, 21)
    assert isinstance(pool, TraceTable) and len(pool) == 12
    seeds = np.random.SeedSequence(21).spawn(12)
    classes = [POOL_CLASSES[0]] * 6 + [POOL_CLASSES[2]] * 3 + [POOL_CLASSES[3]] * 3
    for trace, params, seed in zip(pool, classes, seeds):
        assert (trace.start_available, trace.transitions) == oracles.block_generate_trace(
            params, horizon, seed
        )
    assert min(len(pool[i].transitions) for i in range(6)) > 2 * traces._MAX_BLOCK
    assert {tr.start_available for tr in pool} == {True, False}
    assert_stats_match_loop(pool)


def test_generated_default_pool_matches_the_per_trace_oracle():
    pool = generate_pool(list(DEFAULT_TRACE_CLASSES), 300, 36_000.0, 4)
    seeds = np.random.SeedSequence(4).spawn(300)
    for i, (trace, seed) in enumerate(zip(pool, seeds)):
        expected = oracles.block_generate_trace(DEFAULT_TRACE_CLASSES[i // 100], 36_000.0, seed)
        assert (trace.start_available, trace.transitions) == expected


def test_generated_pool_matches_the_oracle_for_every_kind_of_seed():
    # synthetic_pool's seed is the first of three that SeedSequence(s) spawns;
    # large ints take more than one 32-bit word, and 2**128 + 1 is longer than
    # the pool, so the spawned children's entropy is not zero-padded.
    for seed in (np.random.SeedSequence(7).spawn(3)[0], 2**32, 2**128 + 1):
        pool = generate_pool(list(DEFAULT_TRACE_CLASSES), 30, 36_000.0, seed)
        parent = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        for i, (trace, child) in enumerate(zip(pool, parent.spawn(30))):
            expected = oracles.block_generate_trace(DEFAULT_TRACE_CLASSES[i // 10], 36_000.0, child)
            assert (trace.start_available, trace.transitions) == expected


def test_generated_pool_continues_after_the_children_already_spawned():
    # The pool is drawn from the children that spawn would hand out next, as
    # the pool of spawned seeds was, but the caller's SeedSequence spawns none.
    parent = np.random.SeedSequence(11)
    parent.spawn(5)
    pool = generate_pool(POOL_CLASSES, 12, 10_000.0, parent)
    assert parent.n_children_spawned == 5
    twin = np.random.SeedSequence(11)
    twin.spawn(5)
    classes = [POOL_CLASSES[0]] * 6 + [POOL_CLASSES[2]] * 3 + [POOL_CLASSES[3]] * 3
    for trace, params, child in zip(pool, classes, twin.spawn(12)):
        assert (trace.start_available, trace.transitions) == oracles.block_generate_trace(
            params, 10_000.0, child
        )


# About 16 MiB of flips (600 traces of about 3 600 flips each), so that the
# blocks of about 512 KiB that the table code works through are small beside it,
# and the per-trace arrays are smaller still.
MEMORY_POOL = ([TraceClassParams(10.0, 10.0, 0.5)], 600, 36_000.0, 3)


def traced_peak(call):
    """call()'s result and the most memory it held at once, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_pool_holds_the_flips_about_once():
    pool, peak = traced_peak(lambda: generate_pool(*MEMORY_POOL))
    assert pool.flips.nbytes > 1 << 23
    assert peak <= 1.4 * pool.flips.nbytes


def test_rank_traces_does_not_copy_the_flips():
    pool = generate_pool(*MEMORY_POOL)
    ranked, peak = traced_peak(lambda: rank_traces(pool))
    assert sorted(ranked) == list(range(len(pool)))
    assert pool.flips.nbytes > 1 << 23
    assert peak <= 0.6 * (1 << 20)   # one block of about 512 KiB at a time


def test_trace_files_are_written_and_parsed_one_line_at_a_time(tmp_path):
    # The file is about 2.3 times the flips; neither side holds it whole. A
    # parse holds the flips (a growing array), then the flip check's masks.
    pool = generate_pool(MEMORY_POOL[0], 100, *MEMORY_POOL[2:])
    path = tmp_path / "traces.txt"

    def write():
        with open(path, "w") as fh:
            fh.writelines(serialize_trace_file(pool))

    def parse():
        with open(path) as fh:
            return parse_trace_file(fh)

    _, written = traced_peak(write)
    assert path.stat().st_size > 2 * pool.flips.nbytes > 1 << 22
    assert written < pool.flips.nbytes / 4
    parsed, peak = traced_peak(parse)
    assert_same_table(parsed, pool)
    assert peak <= 1.6 * pool.flips.nbytes


def test_rank_order_equals_sorted_with_exact_ties():
    # Copies tie exactly on (fraction, rate), and the half-up traces tie on
    # fraction alone; both ways of ranking give sorted()'s order.
    rng = np.random.default_rng(12)
    half = [AvailabilityTrace(True, tuple(np.linspace(0.0, 1000.0, n + 1)[1:-1]), 1000.0)
            for n in (2, 4, 8)]
    assert len({stats_of(tr)[0] for tr in half}) == 1
    for _ in range(40):
        base = edge_traces(rng, 15)
        pool = base + [base[i] for i in rng.integers(0, 15, size=8)] + half
        pool = [pool[i] for i in rng.permutation(len(pool))]
        stats = [oracles.loop_trace_stats(tr.start_available, tr.transitions, 1000.0) for tr in pool]
        expected = sorted(range(len(pool)), key=lambda i: (stats[i][0], -stats[i][1], i))
        assert rank_traces(table_of(pool)).tolist() == expected


def test_trace_table_items_and_arrays():
    rng = np.random.default_rng(3)
    pool = edge_traces(rng, 25)
    table = table_of(pool)
    assert len(table) == 25 and list(table) == pool
    assert table[-1] == pool[-1] and table[np.int64(3)] == pool[3]
    assert all(type(t) is float for tr in table for t in tr.transitions)
    for i in (25, -26):
        with pytest.raises(IndexError):
            table[i]
    for array in (table.start, table.offsets, table.flips):
        with pytest.raises(ValueError):
            array[0] = array[-1]   # checked once, then read-only


def test_take_equals_the_rows_it_names():
    # Repeated indices, a negative one, rows without flips and an empty selection.
    rng = np.random.default_rng(5)
    pool = edge_traces(rng, 30) + [AvailabilityTrace(True, (), 1000.0)] * 2
    table = table_of(pool)
    for indices in ([], [31], [3, 3, 0, 31, 30, 3], [-1, 7], rng.integers(0, 32, size=50).tolist()):
        rows = [pool[i] for i in indices]
        cut = table.take(indices)
        assert_same_table(
            cut, raw_table([tr.start_available for tr in rows], [tr.transitions for tr in rows], 1000.0)
        )
        assert [cut[c] for c in range(len(cut))] == rows
    assert len(raw_table([True], [[]], 10.0).take([0, 0]).flips) == 0
    for bad in ([32], [-33]):
        with pytest.raises(IndexError):
            table.take(bad)


def test_take_checks_the_table_it_makes(monkeypatch):
    calls = []
    monkeypatch.setattr(traces, "_check_flips", lambda *args: calls.append(args))
    raw_table([True, False], [[1.0], [2.0, 3.0]], 10.0).take([1, 0])
    assert len(calls) == 2 and calls[1][0].tolist() == [2.0, 3.0, 1.0]


# ------------------------------------------------------------------ trace files

def test_parse_trace_file_example():
    table = parse_trace_file("!horizon 1000\nc1 1 100 250\n".splitlines())
    assert isinstance(table, TraceTable)
    assert list(table) == [AvailabilityTrace(True, (100.0, 250.0), 1000.0)]


def test_parse_trace_file_comments_and_blanks():
    text = "# a comment\n\n!horizon 500\n# another\nc0 0\nc1 1 10\n"
    assert list(parse_trace_file(text.splitlines())) == [
        AvailabilityTrace(False, (), 500.0),
        AvailabilityTrace(True, (10.0,), 500.0),
    ]


def test_serialize_parse_roundtrip():
    rng = np.random.default_rng(55)
    pool = table_of([random_trace(rng, horizon=2000.0) for _ in range(50)])
    assert_same_table(parse_trace_file(serialize_trace_file(pool)), pool)


def test_serialize_parse_roundtrip_keeps_every_array():
    # A generated pool, then traces with a flip at 0.0, one at the horizon and
    # none at all: the file holds each float64 exactly.
    generated = generate_pool(list(DEFAULT_TRACE_CLASSES), 60, 36_000.0, 3)
    edges = [[0.0], [36_000.0], [0.0, 1.5, 36_000.0], []]
    pool = raw_table(
        [*generated.start.tolist(), True, False, True, False],
        [*(tr.transitions for tr in generated), *edges],
        36_000.0,
    )
    text = "".join(serialize_trace_file(pool))
    assert_same_table(parse_trace_file(text.splitlines()), pool)
    assert "".join(serialize_trace_file(parse_trace_file(text.splitlines()))) == text


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_parse_trace_file_reads_an_open_file_line_by_line(tmp_path, newline):
    # A file read line by line gives the table and the line numbers of its text.
    rng = np.random.default_rng(8)
    pool = table_of([random_trace(rng) for _ in range(20)])
    path = tmp_path / "traces.txt"
    with open(path, "w", newline=newline) as fh:
        fh.writelines(serialize_trace_file(pool))
    with open(path) as fh:
        assert_same_table(parse_trace_file(fh), pool)
    path.write_text("# pool\n\n!horizon 100\nc0 1 5\n\nc1 0 7 7\n", newline=newline)
    with open(path) as fh, pytest.raises(ParseError, match="^line 6: transitions must"):
        parse_trace_file(fh)


def test_a_file_line_ends_only_at_a_newline(tmp_path):
    # str.splitlines also ends a line at VT, FF, FS, GS, RS, NEL, LS and PS; a
    # text file does not, and str.split reads them as whitespace in its line.
    path = tmp_path / "traces.txt"
    for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        path.write_text(f"!horizon 100\nc0 1 5{sep}c1 0 6\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError, match="^line 2: non-numeric"):
            parse_trace_file(fh)
        path.write_text(f"!horizon 100\nc0 1 5{sep}6\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            assert [tr.transitions for tr in parse_trace_file(fh)] == [(5.0, 6.0)]


def test_parsing_checks_the_flips_once_per_file(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return check(*args)

    check = traces._check_flips
    monkeypatch.setattr(traces, "_check_flips", counted)
    table = parse_trace_file("!horizon 100\nc0 1 5 6\nc1 0\nc2 0 1 2 3\n".splitlines())
    assert calls == [5] and len(table) == 3
    assert [tr.transitions for tr in table] == [(5.0, 6.0), (), (1.0, 2.0, 3.0)]


@pytest.mark.parametrize(
    "text, message",
    [
        # comments and blank lines before the faulty trace count as lines
        (
            "# pool\n\n!horizon 100\n\n# first\nc0 1 5\n\nc1 0 7 7\n",
            "line 8: transitions must be strictly increasing (at 7.0)",
        ),
        # the fault is on the last trace
        (
            "!horizon 100\nc0 1 5\nc1 0 1\nc2 1 2 101\n",
            "line 4: transition 101.0 outside [0, 100.0]",
        ),
        # traces without flips before and after the faulty one
        (
            "!horizon 100\nc0 1\nc1 0\nc2 1 -1\nc3 0\n",
            "line 4: transition -1.0 outside [0, 100.0]",
        ),
        # a trace's first flip is not compared with the trace before it
        (
            "!horizon 100\nc0 1 50\nc1 0 10 nan\n",
            "line 3: transition nan outside [0, 100.0]",
        ),
        # the first faulty flip in file order wins
        (
            "!horizon 100\nc0 1 5\nc1 0 9 8\nc2 1 200\n",
            "line 3: transitions must be strictly increasing (at 8.0)",
        ),
    ],
    ids=["comments before", "last trace", "flipless traces", "first flip of a trace", "file order"],
)
def test_parse_trace_file_reports_the_line_of_the_first_faulty_flip(text, message):
    with pytest.raises(ParseError) as caught:
        parse_trace_file(text.splitlines())
    assert str(caught.value) == message


def test_parse_trace_file_reports_a_syntax_fault_before_a_flip_fault():
    # The lines are scanned first and the flips checked after, so a later
    # line's syntax fault wins over an earlier line's flip fault.
    text = "!horizon 100\nc0 1 50 40\nc1 2\n"
    with pytest.raises(ParseError, match="^line 3: expected '<client_id> <0|1>"):
        parse_trace_file(text.splitlines())
    with pytest.raises(ParseError, match="^line 2: transitions must be strictly increasing"):
        parse_trace_file(text.replace("c1 2", "c1 1").splitlines())
    with pytest.raises(ParseError, match="^line 3: non-numeric timestamp"):
        parse_trace_file(text.replace("c1 2", "c1 1 x").splitlines())
    with pytest.raises(ParseError, match="^line 3: duplicate client id 'c0'"):
        parse_trace_file(text.replace("c1 2", "c0 1").splitlines())


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
        ("!horizon 1000 5\n", "line 1"),                   # extra header field
    ],
)
def test_parse_trace_file_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_trace_file(text.splitlines())


def test_serialize_trace_file_validation():
    with pytest.raises(ValueError, match="empty"):
        serialize_trace_file(raw_table([], [], 10.0))
