"""Round-time model and capability file/synthesis."""

import numpy as np
import pytest

from fedselsim.config import CapabilityBounds
from fedselsim.cost import (
    ClientProfile,
    generate_profiles,
    parse_capability_file,
    round_time,
)
from fedselsim.errors import ConfigError, ParseError


def profile(tps=0.05, down=1e6, up=5e5):
    return ClientProfile("c", tps, down, up)


TASK = (1e6, 1)   # model size in bytes, local epochs


def test_round_time_worked_example():
    # 1e6/1e6 download + 1*100*0.05 compute + 1e6/5e5 upload = 1 + 5 + 2
    assert round_time(profile(), 100, *TASK) == pytest.approx(8.0)


def test_round_time_bandwidth_halving():
    base = round_time(profile(), 100, *TASK)
    doubled = round_time(profile(down=2e6, up=1e6), 100, *TASK)
    compute = 1 * 100 * 0.05
    assert doubled - compute == pytest.approx((base - compute) / 2)


def test_round_time_zero_samples_is_pure_communication():
    assert round_time(profile(), 0, *TASK) == pytest.approx(1.0 + 2.0)


def test_round_time_negative_samples():
    with pytest.raises(ValueError, match="num_samples"):
        round_time(profile(), -1, *TASK)


def test_round_time_monotonicity():
    rng = np.random.default_rng(21)
    for _ in range(200):
        tps = rng.uniform(0.01, 0.5)
        down = rng.uniform(1e3, 1e6)
        up = rng.uniform(1e3, 1e6)
        samples = int(rng.integers(0, 500))
        size, epochs = rng.uniform(1e3, 1e7), int(rng.integers(1, 4))
        base = round_time(ClientProfile("c", tps, down, up), samples, size, epochs)
        assert round_time(ClientProfile("c", tps, down * 2, up), samples, size, epochs) <= base
        assert round_time(ClientProfile("c", tps, down, up * 2), samples, size, epochs) <= base
        assert round_time(ClientProfile("c", tps * 2, down, up), samples, size, epochs) >= base
        assert round_time(ClientProfile("c", tps, down, up), samples + 1, size, epochs) >= base
        assert round_time(ClientProfile("c", tps, down, up), samples, size * 2, epochs) >= base
        assert round_time(ClientProfile("c", tps, down, up), samples, size, epochs + 1) >= base
        assert base > 0.0


def test_profile_and_dims_validation():
    with pytest.raises(ValueError):
        ClientProfile("c", 0.0, 1e6, 1e6)
    with pytest.raises(ValueError):
        ClientProfile("c", 0.05, -1.0, 1e6)
    with pytest.raises(ValueError):
        round_time(ClientProfile("c", 0.05, 1e6, 1e6), -1, *TASK)


# ------------------------------------------------------------ capability files

def test_parse_capability_example():
    profiles = parse_capability_file("c1 0.05 1000000 500000\n")
    assert len(profiles) == 1
    assert profiles[0].client_id == "c1"
    assert profiles[0].time_per_sample_s == 0.05
    assert profiles[0].down_bw_Bps == 1_000_000.0
    assert profiles[0].up_bw_Bps == 500_000.0
    assert profiles[0] == ClientProfile("c1", 0.05, 1_000_000.0, 500_000.0)  # nothing else bound


def test_parse_capability_comments():
    text = "# speed sheet\nc1 0.05 1e6 5e5\n\nc2 0.1 2e5 2e5\n"
    assert [p.client_id for p in parse_capability_file(text)] == ["c1", "c2"]


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
    profiles = generate_profiles(1000, bounds, 6)
    for p in profiles:
        assert 0.02 <= p.time_per_sample_s <= 0.2
        assert 100.0 <= p.down_bw_Bps <= 1000.0
        assert 50.0 <= p.up_bw_Bps <= 5000.0
    assert [p.client_id for p in profiles][:3] == ["c0", "c1", "c2"]


def test_generate_profiles_deterministic():
    bounds = CapabilityBounds()
    assert generate_profiles(20, bounds, 11) == generate_profiles(20, bounds, 11)
    assert generate_profiles(20, bounds, 11) != generate_profiles(20, bounds, 12)


def test_capability_bounds_validation():
    with pytest.raises(ConfigError):
        CapabilityBounds(time_per_sample_s=(0.2, 0.02))
    with pytest.raises(ConfigError):
        CapabilityBounds(down_bw_Bps=(0.0, 10.0))
    with pytest.raises(ConfigError):
        CapabilityBounds(time_per_sample_s=(float("nan"), 1.0))
    with pytest.raises(ValueError):
        generate_profiles(0, CapabilityBounds(), 1)
