"""Config schema: defaults, coercion, strict rejection. CLI: artifacts and exit codes."""

import csv
import json
import math
import random
import re
import textwrap
from pathlib import Path

import pytest
import yaml

import oracles
from fedselsim.cli import main
from fedselsim.config import SELECTOR_KINDS, ExperimentConfig, config_from_dict, load_config
from fedselsim.engine import ROUND_LOG_COLUMNS, synthetic_pool
from fedselsim.errors import ConfigError
from fedselsim.traces import parse_trace_file

BASE_YAML = textwrap.dedent(
    """\
    population:
      num_clients: 12
    round:
      clients_per_round: 4
      num_rounds: 8
      eval_every: 4
    task:
      num_samples: 400
    seeds:
      run_seeds: [1, 2]
    """
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SUMMARY_LABELS = (
    "Training time(s)",
    "Failed rounds",
    "Accuracy mean",
    "Accuracy std",
    "Average failed clients",
    "Unique participants",
    "Total participants",
)


def write_cfg(tmp_path, text=BASE_YAML, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------- config

def test_empty_config_is_all_defaults():
    assert config_from_dict({}) == ExperimentConfig()
    assert config_from_dict(None) == ExperimentConfig()


def test_defaults_round_trip_through_to_dict():
    echo = ExperimentConfig().to_dict()
    assert echo["round"]["timeout_s"] == 120.0
    assert echo["selector"]["kind"] == "random"
    assert echo["seeds"]["run_seeds"] == (1, 2, 3)
    assert set(echo) == {
        "scenario", "population", "round", "task", "selector", "seeds", "output"
    }


def test_scientific_notation_strings_coerce():
    cfg = config_from_dict(
        {
            "round": {"timeout_s": "1e3"},
            "population": {"synthetic": {"down_bw_Bps": ["1e5", "1e6"]}},
        }
    )
    assert cfg.round.timeout_s == 1000.0
    assert cfg.population.synthetic.down_bw_Bps == (1e5, 1e6)


def test_unknown_root_key_suggests_close_match():
    with pytest.raises(ConfigError, match=r"'selctor'.*did you mean 'selector'"):
        config_from_dict({"selctor": {"kind": "mda"}})


def test_unknown_nested_key_suggests_close_match():
    with pytest.raises(ConfigError, match=r"scenario\.synthetic\.'pool_siz'.*'pool_size'"):
        config_from_dict({"scenario": {"synthetic": {"pool_siz": 9}}})


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"round": {"num_rounds": "ten"}}, "round.num_rounds.*integer"),
        ({"round": {"num_rounds": True}}, "round.num_rounds.*integer"),
        ({"round": {"timeout_s": "soon"}}, "round.timeout_s.*number"),
        ({"round": {"timeout_s": 0}}, "timeout_s must be > 0"),
        ({"round": {"eval_every": 0}}, "eval_every must be >= 1"),
        ({"round": {"clients_per_round": 0}}, "clients_per_round must be >= 1"),
        ({"round": {"strict_availability_failures": "yes"}}, "true/false"),
        ({"round": 7}, "section 'round' must be a mapping"),
        ({"scenario": {"kind": "worst"}}, "scenario.kind.*expected one of"),
        ({"scenario": {"mix": [0.5, 0.5]}}, "three fractions"),
        ({"scenario": {"mix": [0.5, 0.4, 0.2]}}, "sum to 1"),
        ({"scenario": {"mix": [1.2, -0.1, -0.1]}}, ">= 0"),
        ({"scenario": {"source": "file"}}, "trace_file is required"),
        ({"scenario": {"synthetic": {"classes": []}}}, "non-empty list"),
        (
            {"scenario": {"synthetic": {"classes": [{"mean_up_s": 1.0}]}}},
            "mean_down_s is required",
        ),
        ({"population": {"num_clients": 0}}, "num_clients must be >= 1"),
        ({"population": {"capability_source": "file"}}, "capability_file is required"),
        ({"population": {"synthetic": {"up_bw_Bps": [3.0]}}}, r"expected \[lo, hi\]"),
        ({"task": {"classes_k": 1}}, "classes_k must be >= 2"),
        ({"task": {"num_samples": 10}}, "num_samples must be >= 25"),
        ({"task": {"alpha": 0}}, "alpha must be > 0"),
        ({"task": {"batch_size": 0}}, "batch_size must be >= 1"),
        ({"selector": {"kind": "greedy"}}, "selector.kind.*expected one of"),
        ({"selector": {"tifl": {"num_tiers": 0}}}, "num_tiers"),
        ({"seeds": {"run_seeds": []}}, "non-empty list"),
        ({"seeds": {"run_seeds": 5}}, "non-empty list"),
        ({"seeds": {"run_seeds": [1, -2]}}, ">= 0"),
        ({"output": {"formats": ["xml"]}}, "output.formats.*expected one of"),
        ({"output": {"formats": []}}, "non-empty list"),
        ({"selector": {"tifl": {"num_tiers": 101}}}, r"num_tiers \(101\) must be <= .*\(100\)"),
        (
            {"population": {"num_clients": 300}, "task": {"num_samples": 100}},
            r"num_clients \(300\) must be <= the 80 training samples",
        ),
        (
            {"scenario": {"synthetic": {"horizon_s": 119.0}}},
            r"horizon_s \(119\.0\) must be >= round\.timeout_s \(120\.0\)",
        ),
        ({"scenario": {"synthetic": {"horizon_s": "inf"}}}, "horizon_s must be finite"),
        (
            {"scenario": {"synthetic": {"classes": [
                {"mean_up_s": "nan", "mean_down_s": 1.0, "start_available_prob": 0.5}
            ]}}},
            "mean_up_s must be finite",
        ),
    ],
)
def test_rejected_configs(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        {"scenario": {"synthetic": {"horizon_s": 120.0}}},
        {"scenario": {"synthetic": {"horizon_s": 120.0 - 1e-10}}},
        {"scenario": {"synthetic": {"horizon_s": 50.0}}, "round": {"num_rounds": 0}},
        {"scenario": {"source": "file", "trace_file": "t.txt", "synthetic": {"horizon_s": 50.0}}},
    ],
)
def test_horizon_that_can_finish_a_run_is_accepted(data):
    # Only a horizon the engine would refuse at round 0 is a config error.
    config_from_dict(data)


def test_population_must_cover_cohort():
    with pytest.raises(ConfigError, match=r"num_clients \(5\).*clients_per_round \(10\)"):
        config_from_dict({"population": {"num_clients": 5}})


def test_custom_trace_classes_parse():
    cfg = config_from_dict(
        {
            "scenario": {
                "synthetic": {
                    "classes": [
                        {
                            "mean_up_s": 50,
                            "mean_down_s": 150,
                            "start_available_prob": 0.25,
                            "weight": 2,
                        }
                    ]
                }
            }
        }
    )
    (cls,) = cfg.scenario.synthetic.classes
    assert (cls.mean_up_s, cls.mean_down_s) == (50.0, 150.0)
    assert cls.start_available_prob == 0.25
    assert cls.weight == 2.0


@pytest.mark.parametrize(
    "data",
    [
        {name: None for name in ("scenario", "population", "round", "task", "selector",
                                 "seeds", "output")},
        {"scenario": {"synthetic": None}, "population": {"synthetic": None}},
        {"selector": {"mda": None, "fedcs": None, "tifl": None}},
        {"scenario": {"trace_file": None}, "population": {"capability_file": None}},
        {"scenario": {"synthetic": {"pool_size": None, "horizon_s": None, "classes": None}}},
    ],
)
def test_null_takes_the_default(data):
    assert config_from_dict(data) == ExperimentConfig()


@pytest.mark.parametrize(
    "data, path",
    [
        ({"scenario": {"kind": None}}, "scenario.kind"),
        ({"round": {"num_rounds": None}}, "round.num_rounds"),
        ({"scenario": {"mix": None}}, "scenario.mix"),
        ({"seeds": {"run_seeds": None}}, "seeds.run_seeds"),
        ({"output": {"directory": None}}, "output.directory"),
    ],
)
def test_null_is_rejected_where_it_is_no_default(data, path):
    with pytest.raises(ConfigError, match="^" + re.escape(path)):
        config_from_dict(data)


# Random config mappings for the differential test below. Each key draws from
# values of its own (mostly valid, some out of range) or, one time in eight,
# from NASTY; sections are sometimes null or not mappings, and some mappings
# carry misspelt keys. Integers stay inside float range: beyond it the parent
# loader raises OverflowError for a float key.
NASTY = (
    None, True, False, 0, 1, -1, 3, 0.0, 0.5, -0.5, 2.5, 1e9, -1e9, "1e3", "7", " 2 ",
    "abc", "", "nan", "inf", "-inf", math.nan, math.inf, -math.inf, [], [1], [0.5, 1.5],
    (0.5, 1.5), [0.6, 0.2, 0.2], ["json"], {}, {"x": 1}, "low", "file",
)


def _class_entry(rnd):
    values = {
        "mean_up_s": (90.0, 600, "4e3", 0, -5.0, "nan", math.inf),
        "mean_down_s": (210.0, 150, "3e2", 0.0, -1, math.nan),
        "start_available_prob": (0.3, 0, 1, 0.96, "0.5", 1.5, -0.1),
        "weight": (1.0, 2, 0, "0.5", -1.0, math.nan),
    }
    return {k: rnd.choice(v) for k, v in values.items() if rnd.random() < 0.93}


def _class_list(rnd):
    if rnd.random() < 0.1:
        return rnd.choice(([], [None], [3], ({"mean_up_s": 1.0},)))
    return [_class_entry(rnd) for _ in range(rnd.randint(1, 3))]


def _seed_list(rnd):
    if rnd.random() < 0.15:
        return rnd.choice(([], (1, 2), [1, -2], [0, -1], [1.0], ["1"], [True], 4))
    return [rnd.randint(0, 9) for _ in range(rnd.randint(1, 4))]


def _formats(rnd):
    return rnd.choice((["json"], ["csv"], ["csv", "json"], ["json", "json"], ["xml"], [],
                       ("json",), [1], "json"))


def _pair(rnd):
    return rnd.choice(([0.02, 0.2], [100, 1000], ("1e2", "1e3"), (5.0, 5.0), [0.2, 0.02],
                       [0, 1], [1.0], [1, 2, 3], [math.nan, 1.0], [1.0, math.inf]))


SCHEMA = {
    "scenario": {
        "kind": ("low", "average", "high", "worst", "LOW"),
        "source": ("synthetic", "synthetic", "file", "files"),
        "trace_file": (None, "t.txt", "", 5),
        "mix": ([0.6, 0.2, 0.2], [1, 0, 0], (0.2, 0.2, 0.6), ["0.5", "0.25", "0.25"],
                [0.5, 0.5], [0.5, 0.4, 0.2], [1.2, -0.1, -0.1], [0.6, 0.2, 0.2, 0.0]),
        "synthetic": {
            "pool_size": (None, 1, 40, 300, 0, -3, "300", 30.0),
            "horizon_s": (None, 120.0, 600, 36000.0, "1e5", 119.0, 50, 0, "inf", "nan"),
            "classes": _class_list,
        },
    },
    "population": {
        "num_clients": (1, 2, 12, 40, 100, 300, 5000, 0, -1, "12", 12.0),
        "capability_source": ("synthetic", "synthetic", "file", "disk"),
        "capability_file": (None, "caps.txt", 3),
        "synthetic": {"time_per_sample_s": _pair, "down_bw_Bps": _pair, "up_bw_Bps": _pair},
    },
    "round": {
        "clients_per_round": (1, 2, 5, 10, 20, 0, "4", 2.0),
        "num_rounds": (0, 1, 8, 300, -1, "ten", 3.0),
        "timeout_s": (120.0, 30, "1e3", 600.0, 0, -1.0, "soon", "inf"),
        "eval_every": (1, 4, 25, 0, -2),
        "strict_availability_failures": (True, False, "yes", 1, 0),
    },
    "task": {
        "num_samples": (400, 2000, 100, 25, 24, 10, 0, "2000"),
        "features_d": (1, 3, 32, 0, -1),
        "classes_k": (2, 5, 10, 1, 0),
        "alpha": (0.2, 1, "0.5", 0, -0.2, "nan"),
        "lr": (0.05, 0, "1e-2", -0.1, "nan"),
        "epochs": (1, 2, 0),
        "batch_size": (1, 20, 0),
        "seed": (0, 11, -1),
        "class_sep": (0.3, 0, 2, -0.5, "inf"),
    },
    "selector": {
        "kind": ("random", "fedcs", "tifl", "mda", "tifl_mda", "greedy"),
        "mda": {
            "memory_length": (2, 10, 1, 0, "10"),
            "default_weight": (0.5, 1, 1.0, 0, 0.0, 1.5, "0.5", "nan"),
        },
        "fedcs": {
            "threshold_s": (15.0, 14, "1e1", 0, -1.0, "nan"),
            "order": ("filter_first", "sample_first", "filtered"),
        },
        "tifl": {
            "num_tiers": (1, 4, 5, 10, 101, 0),
            "ratio": (1.4, 1, "2", 0, -1.0, "nan"),
        },
    },
    "seeds": {
        "scenario_seed": (0, 1, 7, -1),
        "partition_seed": (0, 2, -3),
        "run_seeds": _seed_list,
    },
    "output": {
        "directory": ("out", "", "results/x", 5),
        "formats": _formats,
    },
}


def random_config(rnd, schema=SCHEMA):
    data = {}
    for key, choices in schema.items():
        if rnd.random() >= 0.4:
            continue
        if rnd.random() < 0.125:
            data[key] = rnd.choice(NASTY)
        elif isinstance(choices, dict):
            data[key] = random_config(rnd, choices)
        elif callable(choices):
            data[key] = choices(rnd)
        else:
            data[key] = rnd.choice(choices)
    if rnd.random() < 0.04:
        key = rnd.choice(sorted(schema))
        data[rnd.choice((key[:-1], key + "s", key.upper(), "extra"))] = 1
    return data


def _outcome(load, data):
    try:
        return repr(load(data).to_dict()), None
    except ConfigError as exc:
        return "rejected", str(exc)


# A rejection is one line that starts with the key path it is about.
PATH_FIRST = re.compile(r"('[^'\n]*'|scenario|population|round|task|selector|seeds|output)[.:\[ ]")


# The keys that take a float, with list indices as [i].
FLOAT_KEY = re.compile(
    r"(scenario\.mix|population\.synthetic\.\w+)\[\d+\]|scenario\.synthetic\.horizon_s"
    r"|scenario\.synthetic\.classes\[\d+\]\.\w+|round\.timeout_s|task\.(alpha|lr|class_sep)"
    r"|selector\.(mda\.default_weight|fedcs\.threshold_s|tifl\.ratio)"
)


def _at(data, path):
    for key, index in re.findall(r"(\w+)|\[(\d+)\]", path):
        data = data[key] if key else data[int(index)]
    return data


def _is_finite(value):
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def test_config_loader_matches_the_parent_loader():
    # One difference is allowed: the package takes only finite numbers at float
    # keys. Otherwise both accept the same mappings, with the same to_dict(),
    # and reject the rest.
    rnd = random.Random(20261018)
    counts = {"accepted": 0, "rejected": 0, "non-finite": 0}
    for _ in range(20_000):
        data = random_config(rnd)
        expected, _ = _outcome(oracles.parent_config_from_dict, data)
        got, message = _outcome(config_from_dict, data)
        assert message is None or (PATH_FIRST.match(message) and "\n" not in message), message
        counts["rejected" if message else "accepted"] += 1
        if got != expected:
            assert got == "rejected" and expected != "rejected", data
            path, finite, _ = message.partition(" must be finite, got ")
            assert finite and FLOAT_KEY.fullmatch(path), message
            assert not _is_finite(_at(data, path)), message
            counts["non-finite"] += 1
    assert counts["non-finite"] >= 1, counts
    assert min(counts["accepted"], counts["rejected"]) >= 2_000, counts


def test_load_config_reads_yaml(tmp_path):
    path = write_cfg(tmp_path)
    cfg = load_config(path)
    assert cfg == config_from_dict(yaml.safe_load(BASE_YAML))
    assert cfg.population.num_clients == 12
    assert cfg.seeds.run_seeds == (1, 2)


def test_shipped_configs_load_and_example_holds_every_default():
    configs = sorted(CONFIGS.glob("*.yaml"))
    assert [path.name for path in configs] == ["example.yaml", "low_availability.yaml"]
    loaded = {path.name: load_config(path) for path in configs}
    assert loaded["example.yaml"] == ExperimentConfig()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.yaml")


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("round: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(path)


# -------------------------------------------------------------------- cli run

def test_cli_run_writes_report_and_round_logs(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0

    document = json.loads((out / "report.json").read_text())
    assert document["report_version"] == 1
    assert document["run_seeds"] == [1, 2]
    assert set(document["summary"]) == set(SUMMARY_LABELS)
    for label in ("Accuracy mean", "Accuracy std"):
        assert document["summary"][label]["std"] is None
    assert [r["run_seed"] for r in document["reports"]] == [1, 2]
    for report in document["reports"]:
        assert report["selector"] == "random"
        assert len(report["rounds"]) == 8
        assert report["config"]["population"]["num_clients"] == 12

    for seed in (1, 2):
        with (out / f"rounds_seed{seed}.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(ROUND_LOG_COLUMNS)
        assert len(rows) == 1 + 8

    stdout = capsys.readouterr().out
    assert "selector: random" in stdout
    for label in SUMMARY_LABELS:
        assert label in stdout


def test_cli_run_is_reproducible_byte_for_byte(tmp_path):
    cfg_path = write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_cli_run_parallel_jobs_match(tmp_path):
    cfg_path = write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "s")]) == 0
    assert (
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "p"), "--jobs", "2"])
        == 0
    )
    assert (tmp_path / "s" / "report.json").read_bytes() == (
        tmp_path / "p" / "report.json"
    ).read_bytes()


def test_cli_run_seed_override(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--seed-override", "7"]) == 0
    document = json.loads((out / "report.json").read_text())
    assert document["run_seeds"] == [7]
    assert (out / "rounds_seed7.csv").exists()
    assert not (out / "rounds_seed1.csv").exists()


def test_cli_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "ghost.yaml")]) == 1
    assert "error: cannot read config" in capsys.readouterr().err


def test_cli_run_more_tiers_than_clients_exits_1(tmp_path, capsys):
    text = (
        "population:\n  num_clients: 4\nround:\n  clients_per_round: 2\n"
        "selector:\n  kind: tifl\n  tifl:\n    num_tiers: 10\n"
    )
    cfg_path = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: selector.tifl.num_tiers (10) must be <= population.num_clients (4)"
    ]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, command, jobs):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --jobs must be >= 1, got {jobs}"]
    assert not out.exists()


def test_cli_run_short_horizon_exits_2(tmp_path, capsys):
    # Round 0 fits (150 s >= the 120 s timeout), but every round lasts at least
    # the fastest client's ~7 s, so by round 5 the next deadline passes 150 s.
    text = BASE_YAML + "scenario:\n  synthetic:\n    horizon_s: 150\n"
    cfg_path = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            "scenario:\n  synthetic:\n    horizon_s: 50\n",
            "error: scenario.synthetic.horizon_s (50.0) must be >= round.timeout_s "
            "(120.0): no round fits in the trace horizon",
        ),
        (
            "population:\n  num_clients: 300\ntask:\n  num_samples: 100\n",
            "error: population.num_clients (300) must be <= the 80 training samples "
            "of task.num_samples (100)",
        ),
    ],
)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_unrunnable_config_exits_1(tmp_path, capsys, command, extra, message):
    text = "round:\n  num_rounds: 3\n" + extra
    cfg_path = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def _trace_class(weight):
    return {"mean_up_s": 90, "mean_down_s": 210, "start_available_prob": 0.3, "weight": weight}


@pytest.mark.parametrize(
    "key, value, path",
    [
        ("selector.fedcs.threshold_s", "nan", "selector.fedcs.threshold_s"),
        ("selector.tifl.ratio", "nan", "selector.tifl.ratio"),
        ("selector.tifl.ratio", "inf", "selector.tifl.ratio"),
        (
            "population.synthetic.time_per_sample_s", ["nan", 0.2],
            "population.synthetic.time_per_sample_s[0]",
        ),
        ("population.synthetic.down_bw_Bps", [100, "inf"], "population.synthetic.down_bw_Bps[1]"),
        ("scenario.synthetic.classes", [_trace_class("nan")], "scenario.synthetic.classes[0].weight"),
        ("scenario.synthetic.classes", [_trace_class("inf")], "scenario.synthetic.classes[0].weight"),
        ("round.timeout_s", "inf", "round.timeout_s"),
        pytest.param("round.timeout_s", 10**400, "round.timeout_s", id="timeout_s-10**400"),
        ("task.lr", "inf", "task.lr"),
        ("task.class_sep", "inf", "task.class_sep"),
        ("task.alpha", "inf", "task.alpha"),
        ("scenario.synthetic.classes", [_trace_class(0), _trace_class(0)], "scenario.synthetic.classes"),
        pytest.param(
            "round.num_rounds", 10**400, "scenario.synthetic.horizon_s", id="num_rounds-10**400"
        ),
    ],
)
def test_cli_run_value_out_of_range_is_one_error_line(tmp_path, capsys, key, value, path):
    data = yaml.safe_load(BASE_YAML)
    *sections, name = key.split(".")
    section = data
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = value
    cfg_path = write_cfg(tmp_path, yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(re.escape(f"error: {path}") + "[ :]", err[0]), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_world_build_error_under_jobs_exits_1(tmp_path, capfd, command):
    # capfd, not capsys: a worker's traceback would go to file descriptor 2
    missing = tmp_path / "missing.txt"
    text = BASE_YAML + f"scenario:\n  source: file\n  trace_file: {missing}\n"
    cfg_path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out), "--jobs", "2"]) == 1
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot read trace file {missing}: ")
    assert not out.exists()


# ---------------------------------------------------------------- cli compare

def test_cli_compare_two_selectors(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", cfg_path, "--out", str(out), "--selectors", "random,mda"]
    )
    assert code == 0
    with (out / "compare.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "random", "mda"]
    assert len(rows) == 1 + 7 + 5 + 1
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:8]] == list(SUMMARY_LABELS)
    assert [row[0] for row in rows[8:13]] == [
        "Training time(s) std",
        "Failed rounds std",
        "Average failed clients std",
        "Unique participants std",
        "Total participants std",
    ]
    fastest = rows[13]
    assert fastest[0] == "Fastest"
    assert sorted(fastest[1:]) == ["", "*"]
    assert "fastest: " in capsys.readouterr().out


def test_cli_compare_defaults_to_all_five(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0
    with (out / "compare.csv").open(newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["metric", *SELECTOR_KINDS]
    assert set(header[1:]) == {"random", "fedcs", "tifl", "mda", "tifl_mda"}


@pytest.mark.parametrize("selectors", ["random,random", "bogus", "random,,"])
def test_cli_compare_bad_selector_lists(tmp_path, capsys, selectors):
    cfg_path = write_cfg(tmp_path)
    code = main(
        ["compare", "--config", cfg_path, "--out", str(tmp_path / "c"), "--selectors", selectors]
    )
    if selectors == "random,,":
        assert code == 0  # trailing commas are just ignored
    else:
        assert code == 1
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------- cli gen-traces/plotdata

def test_cli_gen_traces_round_trips(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "traces.txt"
    assert main(["gen-traces", "--config", cfg_path, "--out", str(out)]) == 0
    parsed = parse_trace_file(out.read_text())
    assert parsed == synthetic_pool(load_config(cfg_path))
    assert len(parsed) == 36  # 3 * num_clients
    assert "wrote 36 traces" in capsys.readouterr().out


def test_cli_gen_traces_default_location(tmp_path):
    text = BASE_YAML + f"output:\n  directory: {tmp_path / 'gen'}\n"
    cfg_path = write_cfg(tmp_path, text)
    assert main(["gen-traces", "--config", cfg_path]) == 0
    assert (tmp_path / "gen" / "traces.txt").exists()


def test_cli_plotdata_from_run_reports(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    pd = tmp_path / "pd.csv"
    assert main(["plotdata", str(out / "report.json"), "--out", str(pd)]) == 0

    with pd.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "time_s", "accuracy"]
    series: dict[str, list[float]] = {}
    for label, t, acc in rows[1:]:
        float(acc)
        series.setdefault(label, []).append(float(t))
    assert set(series) == {"report:random:seed1", "report:random:seed2"}
    for times in series.values():
        assert times == sorted(times)


def test_cli_plotdata_accepts_bare_curve(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(
        json.dumps(
            {"accuracy_curve": [{"round": 0, "time_s": 4.0, "accuracy": 50.0}]}
        )
    )
    pd = tmp_path / "pd.csv"
    assert main(["plotdata", str(path), "--out", str(pd)]) == 0
    with pd.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["curve", "4.0", "50.0"]


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("{}", "no accuracy curves"),
        ("not json at all", "malformed report JSON"),
        (None, "cannot read report"),
        ('{"accuracy_curve": [{"time_s": 1.0}]}', "point 0 of bad needs a numeric 'accuracy'"),
        ('{"accuracy_curve": [{"accuracy": 50.0}]}', "point 0 of bad needs a numeric 'time_s'"),
        ('{"accuracy_curve": [{"time_s": 1.0, "accuracy": 5.0}, '
         '{"time_s": "late", "accuracy": 5.0}]}',
         "point 1 of bad needs a numeric 'time_s'"),
        ('{"accuracy_curve": [{"time_s": true, "accuracy": 5.0}]}', "numeric 'time_s'"),
        ('{"accuracy_curve": [3]}', "point 0 of bad needs a numeric 'time_s', got 3"),
        ('{"accuracy_curve": 7}', "accuracy_curve of bad is not a list"),
        ('{"reports": [5]}', "reports[0] is not an object"),
        ('{"reports": 5}', "'reports' is not a list"),
        ('{"reports": [{"selector": "mda", "run_seed": 1, '
         '"accuracy_curve": [{"time_s": 1.0, "accuracy": null}]}]}',
         "point 0 of bad:mda:seed1 needs a numeric 'accuracy'"),
    ],
)
def test_cli_plotdata_bad_inputs(tmp_path, capsys, content, fragment):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "pd.csv"
    assert main(["plotdata", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert fragment in err
    assert str(path) in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])
