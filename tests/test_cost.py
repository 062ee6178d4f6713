"""Round-time model and capability file/synthesis."""

import numpy as np
import pytest

import oracles
from fedselsim.config import CapabilityBounds
from fedselsim.cost import (
    CAPABILITY_FIELDS,
    generate_profiles,
    parse_capability_file,
    round_time,
)
from fedselsim.errors import ConfigError, ParseError


def caps(tps=0.05, down=1e6, up=5e5):
    """One client's (1, 3) capability array."""
    return np.array([[tps, down, up]])


def one_round_time(row, samples, size, epochs):
    """The round time of the one client in `row`, as a Python float."""
    (time,) = round_time(row, [samples], size, epochs).tolist()
    return time


TASK = (1e6, 1)   # model size in bytes, local epochs


def test_round_time_worked_example():
    # 1e6/1e6 download + 1*100*0.05 compute + 1e6/5e5 upload = 1 + 5 + 2
    assert one_round_time(caps(), 100, *TASK) == pytest.approx(8.0)


def test_round_time_bandwidth_halving():
    base = one_round_time(caps(), 100, *TASK)
    doubled = one_round_time(caps(down=2e6, up=1e6), 100, *TASK)
    compute = 1 * 100 * 0.05
    assert doubled - compute == pytest.approx((base - compute) / 2)


def test_round_time_zero_samples_is_pure_communication():
    assert one_round_time(caps(), 0, *TASK) == pytest.approx(1.0 + 2.0)


def test_round_time_negative_samples():
    with pytest.raises(ValueError, match="num_samples"):
        one_round_time(caps(), -1, *TASK)
    # one negative entry among valid ones is enough
    with pytest.raises(ValueError, match="num_samples"):
        round_time(np.vstack([caps(), caps()]), [3, -1], *TASK)


def test_round_time_monotonicity():
    rng = np.random.default_rng(21)
    for _ in range(200):
        tps = rng.uniform(0.01, 0.5)
        down = rng.uniform(1e3, 1e6)
        up = rng.uniform(1e3, 1e6)
        samples = int(rng.integers(0, 500))
        size, epochs = rng.uniform(1e3, 1e7), int(rng.integers(1, 4))
        base = one_round_time(caps(tps, down, up), samples, size, epochs)
        assert one_round_time(caps(tps, down * 2, up), samples, size, epochs) <= base
        assert one_round_time(caps(tps, down, up * 2), samples, size, epochs) <= base
        assert one_round_time(caps(tps * 2, down, up), samples, size, epochs) >= base
        assert one_round_time(caps(tps, down, up), samples + 1, size, epochs) >= base
        assert one_round_time(caps(tps, down, up), samples, size * 2, epochs) >= base
        assert one_round_time(caps(tps, down, up), samples, size, epochs + 1) >= base
        assert base > 0.0


def test_round_time_matches_the_per_profile_oracle():
    # Every client's entry must be the per-profile sum, bit for bit, over
    # capabilities spread across many decades, empty shards and 0 epochs.
    rng = np.random.default_rng(22)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        rows = np.exp(rng.uniform(np.log(1e-6), np.log(1e9), size=(n, 3)))
        sizes = rng.integers(0, 2000, size=n)
        sizes[rng.random(n) < 0.2] = 0
        model_size = float(np.exp(rng.uniform(np.log(8.0), np.log(1e9))))
        epochs = int(rng.integers(0, 5))
        expected = [
            oracles.profile_round_time(
                oracles.Profile(f"c{c}", *rows[c].tolist()), int(sizes[c]), model_size, epochs
            )
            for c in range(n)
        ]
        got = round_time(rows, sizes, model_size, epochs)
        assert got.tobytes() == np.array(expected).tobytes()


def test_round_time_overflow_is_infinite_without_a_warning():
    # pytest turns a RuntimeWarning into an error; a bandwidth this small
    # overflows the division, as the per-profile float division does.
    row = caps(down=5e-324)
    expected = oracles.profile_round_time(oracles.Profile("c0", *row[0].tolist()), 10, *TASK)
    assert expected == float("inf")
    assert one_round_time(row, 10, *TASK) == expected


def test_profile_and_dims_validation():
    # The per-value check lives in the parser, the one place values enter
    # unchecked; synthetic values come from validated bounds.
    with pytest.raises(ValueError, match="time_per_sample_s"):
        parse_capability_file("c 0.0 1e6 1e6\n")
    with pytest.raises(ValueError, match="down_bw_Bps"):
        parse_capability_file("c 0.05 -1.0 1e6\n")
    with pytest.raises(ValueError):
        one_round_time(caps(0.05, 1e6, 1e6), -1, *TASK)


# ------------------------------------------------------------ capability files

def test_parse_capability_example():
    ids, parsed = parse_capability_file("c1 0.05 1000000 500000\n")
    assert ids == ["c1"]
    assert CAPABILITY_FIELDS == ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps")
    assert parsed.dtype == np.float64
    assert parsed.shape == (1, 3)   # nothing else bound
    time_per_sample_s, down_bw_Bps, up_bw_Bps = parsed[0].tolist()
    assert time_per_sample_s == 0.05
    assert down_bw_Bps == 1_000_000.0
    assert up_bw_Bps == 500_000.0


def test_parse_capability_comments():
    text = "# speed sheet\nc1 0.05 1e6 5e5\n\nc2 0.1 2e5 2e5\n"
    ids, parsed = parse_capability_file(text)
    assert ids == ["c1", "c2"]
    assert parsed.tolist() == [[0.05, 1e6, 5e5], [0.1, 2e5, 2e5]]


def test_parse_capability_empty_file_is_an_empty_array():
    ids, parsed = parse_capability_file("# nobody\n")
    assert ids == []
    assert parsed.shape == (0, 3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("c1 0.05 1e6\n", "line 1"),                      # missing field
        ("c1 0.05 1e6 5e5 9\n", "line 1"),                # extra field
        ("c1 0.05 1e6 5e5\nc1 0.1 1e6 5e5\n", "line 2"),  # duplicate id
        ("c1 fast 1e6 5e5\n", "line 1"),                  # non-numeric
        ("c1 -0.05 1e6 5e5\n", "line 1"),                 # invalid value
        ("c0 nan 1e6 5e5\n", "line 1: c0: time_per_sample_s must be finite"),
        ("c0 0.05 inf 5e5\n", "line 1: c0: down_bw_Bps must be finite"),
        ("c0 0.05 1e6 nan\n", "line 1: c0: up_bw_Bps must be finite"),
    ],
)
def test_parse_capability_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_capability_file(text)


def test_generate_profiles_within_bounds():
    bounds = CapabilityBounds(
        time_per_sample_s=(0.02, 0.2), down_bw_Bps=(100.0, 1000.0), up_bw_Bps=(50.0, 5000.0)
    )
    ids, drawn = generate_profiles(1000, bounds, 6)
    assert drawn.shape == (1000, 3)
    assert ((0.02 <= drawn[:, 0]) & (drawn[:, 0] <= 0.2)).all()
    assert ((100.0 <= drawn[:, 1]) & (drawn[:, 1] <= 1000.0)).all()
    assert ((50.0 <= drawn[:, 2]) & (drawn[:, 2] <= 5000.0)).all()
    assert ids[:3] == ["c0", "c1", "c2"]
    assert len(ids) == 1000


def test_generate_profiles_deterministic():
    bounds = CapabilityBounds()
    a, b, c = (generate_profiles(20, bounds, seed) for seed in (11, 11, 12))
    assert a[0] == b[0] and a[1].tobytes() == b[1].tobytes()
    assert a[1].tobytes() != c[1].tobytes()


def _random_bounds(rng):
    def pair():
        # from subnormal to near the largest double, and equal ends
        lo, hi = sorted(np.exp(rng.uniform(-744.0, 709.0, size=2)).tolist())
        if rng.random() < 0.1:
            hi = lo
        return (lo, hi)

    return CapabilityBounds(time_per_sample_s=pair(), down_bw_Bps=pair(), up_bw_Bps=pair())


def test_generate_profiles_matches_the_per_value_oracle():
    # Array exp and per-value exp may take different code paths in numpy, so
    # bit equality is checked, not assumed.
    rng = np.random.default_rng(23)
    cases = [(1, CapabilityBounds(), 0), (3000, CapabilityBounds(), 1)]
    for _ in range(300):
        n = int(rng.integers(1, 3001)) if rng.random() < 0.2 else int(rng.integers(1, 40))
        cases.append((n, _random_bounds(rng), int(rng.integers(0, 2**63))))
    for n, bounds, seed in cases:
        expected = oracles.loop_generate_profiles(n, bounds, seed)
        ids, drawn = generate_profiles(n, bounds, seed)
        assert ids == [p.client_id for p in expected]
        assert drawn.tobytes() == np.array([p[1:] for p in expected]).tobytes(), (n, seed)


def test_capability_bounds_validation():
    with pytest.raises(ConfigError):
        CapabilityBounds(time_per_sample_s=(0.2, 0.02))
    with pytest.raises(ConfigError):
        CapabilityBounds(down_bw_Bps=(0.0, 10.0))
    with pytest.raises(ConfigError):
        CapabilityBounds(time_per_sample_s=(float("nan"), 1.0))
    with pytest.raises(ValueError):
        generate_profiles(0, CapabilityBounds(), 1)
