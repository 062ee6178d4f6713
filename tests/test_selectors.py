"""Selection strategies: history bookkeeping, MDA weights, sampling, tiers."""

import numpy as np
import pytest

import oracles
from fedselsim.config import FedcsConfig, MdaConfig, TiflConfig
from fedselsim.errors import ConfigError
from fedselsim.selectors import (
    SelectorState,
    assign_tiers,
    make_selector,
    mda_weights,
    select_fedcs,
    select_mda,
    select_random,
    select_tifl,
    select_tifl_mda,
    tier_probabilities,
    update_history,
    weighted_sample_without_replacement,
)
from selector_history import (
    client_availability,
    client_failures,
    mda_raw_weight,
    state_from_history,
)


def all_on_state(num_clients, rounds, spacing=10.0):
    starts = [i * spacing for i in range(rounds)]
    return state_from_history([([True] * rounds, []) for _ in range(num_clients)], starts)


# -------------------------------------------------------------- update_history

def test_update_history_round_zero():
    state = SelectorState(3)
    update_history(state, 0, 0.0, [True, False, True], [])
    assert all(len(client_availability(state, c)) == 1 for c in range(3))
    assert client_availability(state, 1) == [False]
    assert all(client_failures(state, c) == [] for c in range(3))
    assert state.round_start_times == [0.0]
    assert state.current_round == 0


def test_update_history_appends_failure_as_previous_round():
    state = SelectorState(2)
    for r in range(5):
        update_history(state, r, r * 10.0, [True, True], [])
    # client 0 failed round 4; reported when round 5 begins
    update_history(state, 5, 50.0, [True, True], [0])
    assert client_failures(state, 0) == [4]
    assert client_failures(state, 1) == []
    assert len(client_availability(state, 0)) == 6


def test_update_history_stores_an_ndarray_ping_like_a_list():
    # run_experiment hands over a bool ndarray; tests and callers may pass lists
    rng = np.random.default_rng(17)
    from_list, from_array = SelectorState(9), SelectorState(9)
    for r in range(12):
        ping = [bool(v) for v in rng.integers(0, 2, size=9)]
        failed = [c for c in from_list.available_clients(r - 1) if rng.random() < 0.3] if r else []
        array = np.array(ping, dtype=bool)
        update_history(from_list, r, r * 10.0, ping, failed)
        update_history(from_array, r, r * 10.0, array, failed)
        array[:] = ~array   # the state keeps a copy, not the caller's array
        row_list, row_array = from_list.ping(r), from_array.ping(r)
        assert row_array.dtype == row_list.dtype == np.bool_
        assert row_array.tobytes() == row_list.tobytes() == np.array(ping).tobytes()
        assert from_array.available_clients(r).tolist() == from_list.available_clients(r).tolist()
    for c in range(9):
        assert client_failures(from_array, c) == client_failures(from_list, c)


def test_update_history_guards():
    state = SelectorState(2)
    update_history(state, 0, 0.0, [True, True], [])
    with pytest.raises(ValueError):  # repeated round index
        update_history(state, 0, 1.0, [True, True], [])
    with pytest.raises(ValueError):  # gap in round indices
        update_history(state, 2, 1.0, [True, True], [])
    with pytest.raises(ValueError):  # clock must advance
        update_history(state, 1, 0.0, [True, True], [])
    with pytest.raises(ValueError):  # wrong vector width
        update_history(state, 1, 1.0, [True], [])
    with pytest.raises(ValueError):  # failure index out of range
        update_history(state, 1, 1.0, [True, True], [5])

    fresh = SelectorState(1)
    with pytest.raises(ValueError):  # no failures can precede round 0
        update_history(fresh, 0, 0.0, [True], [0])

    offline = SelectorState(2)
    update_history(offline, 0, 0.0, [True, False], [])
    with pytest.raises(ValueError):  # the failed client was not even available
        update_history(offline, 1, 1.0, [True, True], [1])


@pytest.mark.parametrize("seed", [31, 32])
def test_a_ring_of_m_pings_weighs_and_draws_as_the_whole_history(seed):
    # The state holds only the last m pings; MDA must weigh and draw as the
    # list loops do over every ping, before m rounds exist and long after the
    # first pings were overwritten.
    rng = np.random.default_rng(seed)
    for _ in range(12):
        m = int(rng.integers(2, 21))
        num_clients = int(rng.integers(1, 12))
        cfg = MdaConfig(memory_length=m, default_weight=float(rng.uniform(0.01, 1.0)))
        ring = SelectorState(num_clients, m)
        ref = oracles.ListState([([], [])] * num_clients, [])
        failed = []
        for r in range(int(rng.integers(m + 1, 3 * m + 3))):
            ping = (rng.random(num_clients) < 0.7).tolist()
            now = 10.0 * r + float(rng.uniform(0.0, 5.0))
            update_history(ring, r, now, ping, failed)
            for c in range(num_clients):
                ref.availability[c].append(ping[c])
            for c in failed:
                ref.failures[c].append(r - 1)
            ref.round_start_times.append(now)
            pool = ring.available_clients(r)
            clients = pool.tolist()
            assert clients == [c for c in range(num_clients) if ping[c]]
            if clients:
                weights = oracles.loop_mda_weights(ref, clients, cfg)
                assert mda_weights(ring, pool, cfg).tolist() == weights
                n = int(rng.integers(1, num_clients + 1))
                got_rng, ref_rng = np.random.default_rng(r), np.random.default_rng(r)
                picks = select_mda(pool, n, ring, cfg, got_rng).tolist()
                assert picks == sorted(oracles.loop_weighted_sample(clients, weights, n, ref_rng))
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            failed = [c for c in clients if rng.random() < 0.3]


def test_a_state_answers_only_for_the_rounds_it_holds():
    state = SelectorState(2, 3)
    for r in range(5):
        update_history(state, r, r * 10.0, [True, r % 2 == 0], [])
    assert [state.available_clients(r).tolist() for r in (2, 3, 4)] == [[0, 1], [0], [0, 1]]
    for r in (-1, 0, 1, 5):   # overwritten, or not begun
        with pytest.raises(ValueError, match="not held"):
            state.available_clients(r)
    assert len(mda_weights(state, [0, 1], MdaConfig(memory_length=3))) == 2
    with pytest.raises(ValueError, match="exceeds the 3 pings"):
        mda_weights(state, [0, 1], MdaConfig(memory_length=4))
    with pytest.raises(ValueError, match="window"):
        SelectorState(2, 1)   # the failure check reads the ping before the current one


# ----------------------------------------------------------------- MDA weights

def test_mda_default_weight_until_m_rounds():
    cfg = MdaConfig(memory_length=3)
    state = all_on_state(1, rounds=2)  # length(A) = m - 1
    assert mda_raw_weight(state, 0, cfg) == 0.5
    custom = MdaConfig(memory_length=3, default_weight=0.8)
    assert mda_raw_weight(state, 0, custom) == 0.8


def test_mda_all_available_window_is_one():
    cfg = MdaConfig(memory_length=4)
    state = all_on_state(1, rounds=6)
    assert mda_raw_weight(state, 0, cfg) == 1.0


def test_mda_worked_example_eight_elevenths():
    # r=3, F=[1], full availability: maxPen = 1/3+1/2+1 = 11/6, pen = 1/2
    cfg = MdaConfig(memory_length=4)
    state = state_from_history([([True] * 4, [1])], [0.0, 10.0, 20.0, 30.0])
    assert mda_raw_weight(state, 0, cfg) == pytest.approx(8 / 11, abs=1e-12)


def test_mda_interval_needs_both_endpoints():
    # m=3, starts 0/100/250, A=[T,F,T]: neither interval counts -> factor 0
    cfg = MdaConfig(memory_length=3)
    state = state_from_history([([True, False, True], [])], [0.0, 100.0, 250.0])
    assert mda_raw_weight(state, 0, cfg) == 0.0


def test_mda_never_failed_client_unpenalized():
    # penalty loop is skipped entirely on an empty F, even though maxPen > 0
    cfg = MdaConfig(memory_length=2)
    state = all_on_state(1, rounds=8)
    assert mda_raw_weight(state, 0, cfg) == 1.0


def test_mda_weights_normalization_and_range():
    rng = np.random.default_rng(303)
    cfg_cache = {}
    for _ in range(200):
        per_client, starts, m = oracles.random_mda_instance(rng)
        state = state_from_history([(h, f) for h, f, _ in per_client], starts)
        cfg = cfg_cache.setdefault(m, MdaConfig(memory_length=m))
        weights = mda_weights(state, list(range(len(per_client))), cfg)
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= w <= 1.0 for w in weights)


def test_mda_weights_match_brute_force_oracle():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        per_client, starts, m = oracles.random_mda_instance(rng)
        state = state_from_history([(h, f) for h, f, _ in per_client], starts)
        cfg = MdaConfig(memory_length=m)
        ours = mda_weights(state, list(range(len(per_client))), cfg)
        ref = oracles.mda_weights(per_client, m, cfg.default_weight)
        assert ours == pytest.approx(ref, abs=1e-12)


def test_mda_penalty_bounded():
    rng = np.random.default_rng(505)
    for _ in range(300):
        per_client, starts, m = oracles.random_mda_instance(rng, num_clients=1)
        state = state_from_history([(h, f) for h, f, _ in per_client], starts)
        raw = mda_raw_weight(state, 0, MdaConfig(memory_length=m))
        assert 0.0 <= raw <= 1.0


def test_mda_recency_monotonicity():
    cfg = MdaConfig(memory_length=4)
    starts = [float(i * 10) for i in range(9)]  # current round r = 8
    base = state_from_history([([True] * 9, [])], starts)
    clean = mda_raw_weight(base, 0, cfg)
    previous = clean
    for i in range(8):
        failed = state_from_history([([True] * 9, [i])], starts)
        w = mda_raw_weight(failed, 0, cfg)
        assert w <= clean  # adding a failure never helps
        assert w <= previous + 1e-15  # ...and a more recent one hurts at least as much
        previous = w
    assert previous < clean  # strictly, for the most recent failure


def test_mda_all_zero_falls_back_to_uniform():
    cfg = MdaConfig(memory_length=3)
    # both candidates flapped through the whole window -> raw weights all zero
    state = state_from_history(
        [([True, False, True], []), ([True, False, True], [])],
        [0.0, 100.0, 250.0],
    )
    assert mda_raw_weight(state, 0, cfg) == 0.0
    assert mda_raw_weight(state, 1, cfg) == 0.0
    assert mda_weights(state, np.array([0, 1]), cfg).tolist() == [0.5, 0.5]


def test_mda_weights_argument_guards():
    state = all_on_state(2, rounds=3)
    with pytest.raises(ValueError):
        mda_weights(state, [], MdaConfig())
    with pytest.raises(ValueError):
        mda_weights(SelectorState(2), [0], MdaConfig())


def test_mda_config_validation():
    with pytest.raises(ConfigError):
        MdaConfig(memory_length=1)
    with pytest.raises(ConfigError):
        MdaConfig(default_weight=0.0)
    with pytest.raises(ConfigError):
        MdaConfig(default_weight=1.5)


# ------------------------------------------------------------ weighted sampling

def test_weighted_sample_covers_all_when_budget_large():
    rng = np.random.default_rng(1)
    picks = weighted_sample_without_replacement(np.array([4, 7, 9]), [0.2, 0.3, 0.5], 10, rng)
    assert sorted(picks.tolist()) == [4, 7, 9]


def test_weighted_sample_unit_weight():
    rng = np.random.default_rng(2)
    for _ in range(50):
        picks = weighted_sample_without_replacement(np.array([3, 5, 8]), [1.0, 0.0, 0.0], 1, rng)
        assert picks.tolist() == [3]


def test_weighted_sample_first_pick_frequency():
    rng = np.random.default_rng(1234)
    hits = sum(
        weighted_sample_without_replacement(np.array([0, 1]), [0.75, 0.25], 1, rng).tolist() == [0]
        for _ in range(10_000)
    )
    assert hits / 10_000 == pytest.approx(0.75, abs=0.02)


def test_weighted_sample_zero_weight_exhaustion():
    # positive mass runs out after one pick; the rest come uniformly
    rng = np.random.default_rng(3)
    picks = weighted_sample_without_replacement(np.array([1, 2, 3]), [1.0, 0.0, 0.0], 3, rng)
    assert picks[0] == 1
    assert sorted(picks.tolist()) == [1, 2, 3]


def test_weighted_sample_deterministic():
    a = weighted_sample_without_replacement(
        np.arange(20), list(range(1, 21)), 6, np.random.default_rng(77)
    ).tolist()
    b = weighted_sample_without_replacement(
        np.arange(20), list(range(1, 21)), 6, np.random.default_rng(77)
    ).tolist()
    assert a == b
    assert len(set(a)) == 6


def test_weighted_sample_guards():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        weighted_sample_without_replacement([], [], 1, rng)
    with pytest.raises(ValueError):
        weighted_sample_without_replacement([1, 2], [0.5], 1, rng)
    with pytest.raises(ValueError):
        weighted_sample_without_replacement([1, 2], [0.5, -0.1], 1, rng)
    with pytest.raises(ValueError):
        weighted_sample_without_replacement([1, 2], [0.5, 0.5], 0, rng)


# ----------------------------------- exact equality with the list-based loops

def random_instances(seed, count, num_clients=None):
    """(per_client, starts, cfg, candidates) draws; candidates in random order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        per_client, starts, m = oracles.random_mda_instance(rng, num_clients)
        cfg = MdaConfig(memory_length=m, default_weight=float(rng.uniform(0.01, 1.0)))
        k = int(rng.integers(1, len(per_client) + 1))
        candidates = [int(c) for c in rng.choice(len(per_client), size=k, replace=False)]
        yield [(h, f) for h, f, _ in per_client], starts, cfg, candidates


@pytest.mark.parametrize("seed, count, num_clients", [(606, 1000, None), (607, 100, 40)])
def test_mda_weights_equal_list_loops_exactly(seed, count, num_clients):
    for per_client, starts, cfg, candidates in random_instances(seed, count, num_clients):
        state = state_from_history(per_client, starts)
        ref = oracles.ListState(per_client, starts)
        for c in range(len(per_client)):
            assert mda_raw_weight(state, c, cfg) == oracles.loop_mda_raw_weight(ref, c, cfg)
        weights = mda_weights(state, np.array(candidates), cfg).tolist()
        assert weights == oracles.loop_mda_weights(ref, candidates, cfg)


def assert_same_draw(candidates, weights, n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = weighted_sample_without_replacement(np.array(candidates), np.array(weights), n, rng)
    assert picks.tolist() == oracles.loop_weighted_sample(candidates, weights, n, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed, count, num_clients", [(707, 1000, None), (708, 100, 40)])
def test_weighted_sample_equals_list_loop_exactly(seed, count, num_clients):
    rng = np.random.default_rng(seed + 100)
    instances = random_instances(seed, count, num_clients)
    for i, (per_client, starts, cfg, candidates) in enumerate(instances):
        state = state_from_history(per_client, starts)
        weights = mda_weights(state, np.array(candidates), cfg).tolist()
        assert_same_draw(candidates, weights, int(rng.integers(1, len(candidates) + 3)), i)


@pytest.mark.parametrize(
    "candidates, weights, n",
    [
        ([4, 7, 9, 2], [0.0, 0.3, 0.0, 0.7], 2),      # zero weights among positive ones
        ([4, 7, 9, 2], [0.0, 0.3, 0.0, 0.7], 4),      # ...running out of positive mass
        ([4, 7, 9], [0.0, 0.0, 0.0], 2),              # all zero: uniform draws
        ([4, 7, 9], [0.2, 0.3, 0.5], 3),              # n == len(candidates)
        ([4, 7, 9], [0.2, 0.3, 0.5], 10),             # n > len(candidates)
        ([5], [1.0], 3),                              # single candidate
        ([5], [0.0], 1),                              # single zero-weight candidate
        (list(range(50)), [float(i % 7) for i in range(50)], 12),
    ],
)
def test_weighted_sample_edge_cases_equal_list_loop_exactly(candidates, weights, n):
    for seed in range(20):
        assert_same_draw(candidates, weights, n, seed)


class TopRng:
    """Draws u = 1.0, so x = u * total lands on the end of the cumulative sum.

    A real generator draws u < 1; this reaches the round-off guard directly.
    """

    def random(self):
        return 1.0

    def integers(self, high):
        return high - 1


def test_weighted_sample_round_off_falls_back_like_list_loop():
    weights = [0.1, 0.2, 0.0]
    picks = weighted_sample_without_replacement(np.array([4, 7, 9]), weights, 1, TopRng())
    assert picks.tolist() == [7]
    assert oracles.loop_weighted_sample([4, 7, 9], weights, 1, TopRng()) == [7]


def test_from_history_round_trips_and_guards():
    per_client = [([True, True, False, True], [0, 1]), ([False, True, True, True], [2])]
    state = state_from_history(per_client, [0.0, 5.0, 9.0, 20.0])
    assert state.current_round == 3
    assert state.round_start_times == [0.0, 5.0, 9.0, 20.0]
    for c, (hist, fails) in enumerate(per_client):
        assert client_availability(state, c) == hist
        assert client_failures(state, c) == fails
    assert state.available_clients(0).tolist() == [0]
    assert state.available_clients(3).tolist() == [0, 1]
    with pytest.raises(ValueError):  # history shorter than the round count
        state_from_history([([True], [])], [0.0, 1.0])
    with pytest.raises(ValueError):  # failure at the current round
        state_from_history([([True, True], [1])], [0.0, 1.0])
    with pytest.raises(ValueError):  # failure while unavailable
        state_from_history([([False, True], [0])], [0.0, 1.0])


# --------------------------------------------------------------- select_random

def test_select_random_identity_when_pool_equals_budget():
    rng = np.random.default_rng(5)
    assert select_random(np.array([9, 3, 6]), 3, rng).tolist() == [3, 6, 9]


def test_select_random_uniform_frequency():
    rng = np.random.default_rng(99)
    counts = np.zeros(5)
    for _ in range(10_000):
        counts[select_random(np.arange(5), 1, rng)[0]] += 1
    assert counts / 10_000 == pytest.approx([0.2] * 5, abs=0.02)


def test_select_random_properties():
    rng = np.random.default_rng(6)
    pool = [2, 4, 8, 16, 32, 64]
    for _ in range(100):
        picks = select_random(np.array(pool), 4, rng).tolist()
        assert len(picks) == 4
        assert picks == sorted(picks)
        assert set(picks) <= set(pool)
    with pytest.raises(ValueError):
        select_random([], 3, rng)


# ---------------------------------------------------------------- select_fedcs

def test_fedcs_filter_first_postcondition_sweep():
    rng = np.random.default_rng(7)
    times = rng.uniform(1.0, 40.0, size=30).tolist()
    cfg = FedcsConfig(threshold_s=20.0)
    for _ in range(1000):
        pool = sorted(rng.choice(30, size=12, replace=False).tolist())
        picks = select_fedcs(np.array(pool), 5, cfg, np.array(times), rng).tolist()
        assert all(times[c] <= 20.0 for c in picks)
        assert set(picks) <= set(pool)
        eligible = sum(times[c] <= 20.0 for c in pool)
        assert len(picks) == min(5, eligible)


def test_fedcs_threshold_below_everyone_skips():
    rng = np.random.default_rng(8)
    cfg = FedcsConfig(threshold_s=0.5)
    assert select_fedcs(np.arange(3), 2, cfg, np.array([1.0, 2.0, 3.0]), rng).tolist() == []


def test_fedcs_identity_filter_matches_random():
    # when nobody crosses the threshold the filter is a no-op, so the draw
    # sequence is bitwise the same as select_random's
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    cfg = FedcsConfig(threshold_s=100.0)
    pool = np.arange(5)
    for seed in range(50):
        a = select_fedcs(pool, 2, cfg, times, np.random.default_rng(seed))
        b = select_random(pool, 2, np.random.default_rng(seed))
        assert a.tolist() == b.tolist()


def test_fedcs_sample_first_can_underfill():
    times = np.array([1.0, 50.0, 1.0, 50.0, 1.0])
    cfg = FedcsConfig(threshold_s=10.0, order="sample_first")
    rng = np.random.default_rng(9)
    sizes = set()
    for _ in range(200):
        picks = select_fedcs(np.arange(5), 3, cfg, times, rng)
        assert all(times[c] <= 10.0 for c in picks)
        sizes.add(len(picks))
    assert min(sizes) < 3  # under-filled at least once
    with pytest.raises(ValueError):
        select_fedcs([], 3, cfg, times, rng)


def test_fedcs_config_validation():
    with pytest.raises(ConfigError):
        FedcsConfig(threshold_s=0.0)
    with pytest.raises(ConfigError):
        FedcsConfig(threshold_s=float("nan"))
    with pytest.raises(ConfigError):
        FedcsConfig(order="filtered")


# ----------------------------------------------------------------------- tiers

def test_assign_tiers_even_split():
    times = [float(10 - i) for i in range(10)]  # speeds 10..1, fastest last
    tiers = assign_tiers(times, 5)
    # two clients per tier, tier 0 = fastest (smallest round time)
    assert tiers.tolist() == [4, 4, 3, 3, 2, 2, 1, 1, 0, 0]


def test_assign_tiers_identical_speeds_index_tiebreak():
    tiers = assign_tiers([3.0] * 6, 3)
    assert tiers.tolist() == [0, 0, 1, 1, 2, 2]


def test_assign_tiers_remainder_to_fastest():
    times = [float(i) for i in range(11)]
    tiers = assign_tiers(times, 5)
    sizes = [tiers.tolist().count(k) for k in range(5)]
    assert sizes == [3, 2, 2, 2, 2]


def test_assign_tiers_sorted_bands():
    rng = np.random.default_rng(10)
    for _ in range(50):
        times = rng.uniform(1.0, 100.0, size=int(rng.integers(5, 40))).tolist()
        num_tiers = int(rng.integers(1, 6))
        if num_tiers > len(times):
            continue
        tiers = assign_tiers(times, num_tiers)
        for k in range(num_tiers - 1):
            upper = [times[c] for c in range(len(times)) if tiers[c] == k]
            lower = [times[c] for c in range(len(times)) if tiers[c] == k + 1]
            assert max(upper) <= min(lower)


def test_assign_tiers_too_many():
    with pytest.raises(ValueError):
        assign_tiers([1.0, 2.0], 3)


def test_tier_probabilities_examples():
    assert tier_probabilities(1, 1.4) == [1.0]
    probs = tier_probabilities(5, 1.4)
    assert probs == pytest.approx([0.3510, 0.2507, 0.1791, 0.1279, 0.0914], abs=1e-4)
    assert tier_probabilities(2, 1.4) == pytest.approx([7 / 12, 5 / 12])


def test_tier_probabilities_adjacent_ratio_exact():
    for ratio in (1.4, 2.0, 0.5):
        probs = tier_probabilities(4, ratio)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        for k in range(3):
            assert probs[k] / probs[k + 1] == pytest.approx(ratio, rel=1e-12)


# ----------------------------------------------------------------- select_tifl

def test_tifl_single_populated_tier_always_chosen():
    tiers = [0, 0, 1, 1, 2, 2]
    probs = tier_probabilities(3, 1.4)
    rng = np.random.default_rng(11)
    for _ in range(100):
        picks = select_tifl(np.array([4, 5]), 1, np.array(tiers), probs, rng).tolist()
        assert picks and all(tiers[c] == 2 for c in picks)


def test_tifl_selection_stays_in_one_tier():
    rng = np.random.default_rng(12)
    times = rng.uniform(1.0, 50.0, size=40).tolist()
    tiers = assign_tiers(times, 5)
    probs = tier_probabilities(5, 1.4)
    for _ in range(1000):
        pool = sorted(rng.choice(40, size=15, replace=False).tolist())
        picks = select_tifl(np.array(pool), 4, tiers, probs, rng)
        assert len({tiers[c] for c in picks}) == 1
        assert set(picks) <= set(pool)


def test_tifl_tier_zero_frequency():
    times = np.linspace(1.0, 20.0, 100).tolist()
    tiers = assign_tiers(times, 5)
    probs = tier_probabilities(5, 1.4)
    rng = np.random.default_rng(7)
    pool = np.arange(100)
    hits = sum(tiers[select_tifl(pool, 1, tiers, probs, rng)[0]] == 0 for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(0.3510, abs=0.01)


def test_tifl_empty_pool():
    with pytest.raises(ValueError):
        select_tifl([], 3, [0, 1], [0.5, 0.5], np.random.default_rng(13))


# ------------------------------------------------------------- select_tifl_mda

def test_tifl_mda_equal_histories_match_tifl_frequencies():
    tiers = np.zeros(4, dtype=np.int64)
    probs = [1.0]
    state = all_on_state(4, rounds=12)
    cfg = MdaConfig()
    counts_mda = np.zeros(4)
    counts_tifl = np.zeros(4)
    rng_a = np.random.default_rng(14)
    rng_b = np.random.default_rng(15)
    for _ in range(10_000):
        counts_mda[select_tifl_mda(np.arange(4), 1, tiers, probs, state, cfg, rng_a)[0]] += 1
        counts_tifl[select_tifl(np.arange(4), 1, tiers, probs, rng_b)[0]] += 1
    assert counts_mda / 10_000 == pytest.approx([0.25] * 4, abs=0.02)
    assert counts_tifl / 10_000 == pytest.approx([0.25] * 4, abs=0.02)


def test_tifl_mda_penalizes_recent_failures():
    state = SelectorState(4)
    update_history(state, 0, 0.0, [True] * 4, [])
    for r in range(1, 12):
        # client 0 failed rounds 0..2; clients 1-3 are clean twins
        update_history(state, r, r * 10.0, [True] * 4, [0] if r <= 3 else [])
    cfg = MdaConfig()
    rng = np.random.default_rng(5)
    counts, tiers = np.zeros(4), np.zeros(4, dtype=np.int64)
    for _ in range(10_000):
        counts[select_tifl_mda(np.arange(4), 1, tiers, [1.0], state, cfg, rng)[0]] += 1
    assert counts[0] < counts[1:].min()


def test_tifl_mda_single_available_client():
    state = all_on_state(6, rounds=3)
    picks = select_tifl_mda(
        np.array([5]), 4, np.array([0, 0, 0, 1, 1, 1]), tier_probabilities(2, 1.4), state,
        MdaConfig(), np.random.default_rng(16),
    )
    assert picks.tolist() == [5]


# ------------------------- exact equality with the parent's grouped tier draw

def tier_instances(seed, count, num_clients):
    """(per_client, starts, cfg, tiers, probs, pool, n) draws for the tier draw.

    Tiers are drawn at random, so some hold one client and some none, and the
    pool may miss more; pools come in random order, and budgets run past the
    size of the drawn tier and of the pool.
    """
    rng = np.random.default_rng(seed + 100)
    for per_client, starts, cfg, pool in random_instances(seed, count, num_clients):
        size = len(per_client)
        num_tiers = int(rng.integers(1, size + 3))
        tiers = rng.integers(0, num_tiers, size=size).tolist()
        probs = tier_probabilities(num_tiers, float(rng.uniform(0.2, 3.0)))
        yield per_client, starts, cfg, tiers, probs, pool, int(rng.integers(1, size + 3))


def assert_same_tier_draws(pool, n, tiers, probs, state, cfg, seed):
    for select, parent, extra in (
        (select_tifl, oracles.parent_select_tifl, ()),
        (select_tifl_mda, oracles.parent_select_tifl_mda, (state, cfg)),
    ):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = select(np.array(pool), n, np.array(tiers), probs, *extra, rng).tolist()
        assert picks == parent(pool, n, tiers, probs, *extra, ref_rng)
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed, count, num_clients", [(808, 3000, None), (809, 300, 40)])
def test_tier_selectors_equal_the_parent_grouping_exactly(seed, count, num_clients):
    for i, (per_client, starts, cfg, tiers, probs, pool, n) in enumerate(
        tier_instances(seed, count, num_clients)
    ):
        state = state_from_history(per_client, starts)
        assert_same_tier_draws(pool, n, tiers, probs, state, cfg, i)


@pytest.mark.parametrize(
    "pool, n, tiers",
    [
        ([5, 0, 3, 1], 2, [0, 0, 2, 2, 4, 4]),          # unsorted pool, gaps in the tiers
        ([4, 1], 3, [0, 0, 1, 1, 2, 2]),                # only tiers 0 and 2 available
        ([2, 0, 5, 3, 1, 4], 2, [0, 1, 2, 3, 4, 5]),    # one client per tier
        ([5, 4, 3, 2, 1, 0], 9, [3, 3, 0, 1, 0, 3]),    # budget beyond every tier
        ([3], 1, [1, 1, 1, 0, 1, 1]),                    # a one-client pool
    ],
)
def test_tier_selectors_edge_cases_equal_the_parent_grouping_exactly(pool, n, tiers):
    state = all_on_state(6, rounds=12)
    probs = tier_probabilities(max(tiers) + 1, 1.4)
    for seed in range(20):
        assert_same_tier_draws(pool, n, tiers, probs, state, MdaConfig(), seed)


# ------------------------------------------------------------------ select_mda

def test_select_mda_properties():
    state = all_on_state(10, rounds=5)
    rng = np.random.default_rng(17)
    pool = [1, 3, 5, 7, 9]
    for _ in range(200):
        picks = select_mda(np.array(pool), 3, state, MdaConfig(), rng).tolist()
        assert len(picks) == 3
        assert picks == sorted(picks)
        assert set(picks) <= set(pool)
    with pytest.raises(ValueError):
        select_mda([], 3, state, MdaConfig(), rng)


def test_select_mda_prefers_clean_history():
    state = SelectorState(2)
    update_history(state, 0, 0.0, [True, True], [])
    for r in range(1, 10):
        update_history(state, r, r * 10.0, [True, True], [0] if r <= 4 else [])
    rng = np.random.default_rng(18)
    counts = np.zeros(2)
    for _ in range(5000):
        counts[select_mda([0, 1], 1, state, MdaConfig(), rng)[0]] += 1
    assert counts[0] < counts[1]


# --------------------------------------------------------------- make_selector

def test_make_selector_binds_kinds():
    state = all_on_state(6, rounds=4)
    times = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    for kind in ("random", "fedcs", "tifl", "mda", "tifl_mda"):
        select = make_selector(kind, round_times=times, tifl=TiflConfig(num_tiers=2))
        picks = select(np.arange(6), 3, state, np.random.default_rng(19))
        assert set(picks) <= {0, 1, 2, 3, 4, 5}
        assert len(picks) <= 3


def test_make_selector_unknown_kind():
    with pytest.raises(ConfigError, match="unknown selector"):
        make_selector("greedy")


def test_make_selector_requires_round_times():
    for kind in ("fedcs", "tifl", "tifl_mda"):
        with pytest.raises(ValueError):
            make_selector(kind)


def test_tifl_config_validation():
    with pytest.raises(ConfigError):
        TiflConfig(num_tiers=0)
    with pytest.raises(ConfigError):
        TiflConfig(ratio=0.0)
    with pytest.raises(ConfigError):
        TiflConfig(ratio=float("nan"))
