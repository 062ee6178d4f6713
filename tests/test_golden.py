"""Golden reports: pinned SHA-256 of every selector's canonical report JSON.

The acceptance gate's reproducibility criterion only checks that a run matches
itself, so a change that shifts selection or weights by one ulp would pass it.
This test pins the exact bytes of `report.to_dict()` (canonical JSON, sorted
keys) for all five selectors on two run seeds. The fixture is small but uses
scenario `low`, a 10-round MDA window over 200 rounds and a 30 s timeout, so it
covers the full-window availability factor, the failure penalty and rounds
with failures.

The synthetic trace pools of the same fixture and of the all-defaults config
are pinned the same way, as the bytes of their trace file, so a change to trace
generation shows here even where it would not change a report.

That fixture's shards hold about 8 rows, so each local training is one batch
of one epoch. A second fixture pins the reports of a training-bound world:
shards of 28 to 365 rows, batch size 20 (ragged last batches), two epochs and
64 features x 10 classes, so multi-batch SGD shows here too.

A change that is meant to alter the reports or the pools must update the
hashes below and say why; a change that is not must leave them as they are.
"""

import hashlib
import json

import pytest

from fedselsim.config import config_from_dict
from fedselsim.engine import compare_selectors, synthetic_pool
from fedselsim.traces import serialize_trace_file

SELECTORS = ["random", "fedcs", "tifl", "mda", "tifl_mda"]
RUN_SEEDS = [1, 2]

GOLDEN = {
    ("random", 1): "ee6ee392a6b50ceb3d2304575fdeb563b327972955324f586457c6b1459cbf79",
    ("random", 2): "2b31f95d8cb7ee477242b2cb770a2a6c181184d9c2ae9a01debe9c88bbc82301",
    ("fedcs", 1): "1e11b959e68f73e46efecf43cb1ebc729a02b2191f3773b2511bee639939aade",
    ("fedcs", 2): "704120d777431e773077ae78ae8c4ffac3f9cafbbb4e582aafb49f66720aafaf",
    ("tifl", 1): "963ebd16d0206b2ccf51467b5612ea96dca3a83e485481185b3b00751efd4f74",
    ("tifl", 2): "95ea1afe2568a8638a0df38c140df0efc5b1bbc44856408b791da8c5b8bdc9bb",
    ("mda", 1): "e8e5aeffcc8ae3b2713bc33603c8560bc32394b7f96c82c74dcae732395a34fe",
    ("mda", 2): "2085621440584d8ae777feddea4b562e0cef37adf3f1ce7a0d93a778434e93d8",
    ("tifl_mda", 1): "a9a4dac11acb42a3e750305dbea4d963d67d04b882c9f24f5c96ae87880e2cb1",
    ("tifl_mda", 2): "348b0ca7ee4c4cb4295cc1da6f290bb58b451ecc174b590a8fa8d85a5ea04c76",
}


FIXTURE = {
    "scenario": {"kind": "low"},
    "population": {"num_clients": 60},
    "round": {
        "clients_per_round": 5,
        "num_rounds": 200,
        "timeout_s": 30.0,
        "eval_every": 50,
    },
    "task": {"num_samples": 600},
    "selector": {"mda": {"memory_length": 10}, "fedcs": {"threshold_s": 14.0}},
    "seeds": {"run_seeds": RUN_SEEDS},
}

# SHA-256 of the lines of serialize_trace_file(synthetic_pool(cfg)): 180 traces over a
# 6 000 s horizon for the fixture, 300 over 36 000 s for the defaults.
GOLDEN_POOLS = {
    "fixture": "ca8eaac95e403d8a90268883ba5e8cf0a8faf9a899df2e7e5aeb6fc240f86d84",
    "defaults": "3f9bf11df50f2d271d9c32ea28af4729c04fa058f38c3196b8f422a9a5174393",
}


MULTIBATCH_FIXTURE = {
    "scenario": {"kind": "high"},
    "population": {"num_clients": 20},
    "round": {
        "clients_per_round": 5,
        "num_rounds": 40,
        "timeout_s": 600.0,
        "eval_every": 10,
    },
    "task": {"num_samples": 4000, "features_d": 64, "classes_k": 10, "epochs": 2},
    "selector": {"fedcs": {"threshold_s": 60.0}, "tifl": {"num_tiers": 4}},
    "seeds": {"run_seeds": RUN_SEEDS},
}

GOLDEN_MULTIBATCH = {
    ("random", 1): "5789970a1f968663d68dd6996bbdbf6308507e69f018c81860ebcbc6cc3eb613",
    ("random", 2): "c494180943d44b117f2a7190cbeeed09e0f72decb94cf629df04e45a081448cc",
    ("fedcs", 1): "603edc77e9ec0292e624dc20336586f704987308d56114ea0a2ddd9395ca6294",
    ("fedcs", 2): "72fa666d79c66f1c0ee8d1b3fb533999498329601d44a4e2cc9775bef1e641a8",
    ("tifl", 1): "68c449262f9c6523e6faffc41dd9dc44d5059dceea225eeba6e32354329665ce",
    ("tifl", 2): "25543be4e216abc37726935678f58ed6d33e10b1c74521105dde3d46f39f3285",
    ("mda", 1): "92b21f7b20ce9df2705b4ac6e118f3f9e16b48d9f0427159661c1ab2b48adf6f",
    ("mda", 2): "489e4b22fe08b204f5d45d30b48597877f8356df61aec32ea3baeb2743a32401",
    ("tifl_mda", 1): "f081a9e57c90a0befcdea269e505b2d89283e7a8877abffd4f24dacf15bbeeb6",
    ("tifl_mda", 2): "cb91f9b0f81e5ec17e61553245051a9e588bb2e393be4d5a4516ea33365bb34d",
}


def _report_sha256(comparison, kind, seed):
    (report,) = [r for r in comparison.reports[kind] if r.run_seed == seed]
    canonical = json.dumps(report.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


@pytest.fixture(scope="module")
def comparison():
    return compare_selectors(config_from_dict(FIXTURE), SELECTORS)


@pytest.mark.parametrize("kind", SELECTORS)
@pytest.mark.parametrize("seed", RUN_SEEDS)
def test_report_bytes_match_golden(comparison, kind, seed):
    assert _report_sha256(comparison, kind, seed) == GOLDEN[(kind, seed)]


@pytest.fixture(scope="module")
def multibatch_comparison():
    return compare_selectors(config_from_dict(MULTIBATCH_FIXTURE), SELECTORS)


@pytest.mark.parametrize("kind", SELECTORS)
@pytest.mark.parametrize("seed", RUN_SEEDS)
def test_multibatch_report_bytes_match_golden(multibatch_comparison, kind, seed):
    assert _report_sha256(multibatch_comparison, kind, seed) == GOLDEN_MULTIBATCH[(kind, seed)]


def test_fixture_exercises_failures(comparison):
    # Without failures the MDA penalty path would go untested.
    for kind in SELECTORS:
        for report in comparison.reports[kind]:
            assert any(o.failed for o in report.rounds), (kind, report.run_seed)


@pytest.mark.parametrize("name, data", [("fixture", FIXTURE), ("defaults", {})])
def test_synthetic_pool_bytes_match_golden(name, data):
    text = "".join(serialize_trace_file(synthetic_pool(config_from_dict(data))))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_POOLS[name]
