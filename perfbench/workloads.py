"""The benchmark's workloads: fixed fedselsim configs, one study each.

A study runs every (selector, run seed) cell over one shared world, exactly
as ``compare_selectors(cfg, SELECTORS, jobs=1)`` does with the run seeds the
workload seed gives. The seed changes only the selection and training draws;
the world (traces, devices, data) is the same for every seed, so the work per
study stays comparable.
Why each workload was chosen is in README.md beside this file.
"""

import copy

SELECTORS = ("random", "fedcs", "tifl", "mda", "tifl_mda")

DEFAULT_SEED = 0

WORKLOADS = {
    # The acceptance fixture of tests/test_acceptance.py (scenario "low").
    "study_low": {
        "scenario": {"kind": "low"},
        "population": {"num_clients": 500},
        "round": {
            "clients_per_round": 10,
            "num_rounds": 1000,
            "timeout_s": 30.0,
            "eval_every": 100,
        },
        "selector": {"fedcs": {"threshold_s": 14.0}},
    },
    # N = 1 000: per-client work per round (ping, history, pool, MDA weights).
    "population_1k": {
        "scenario": {"kind": "average"},
        "population": {"num_clients": 1000},
        "task": {"num_samples": 4000},
    },
    # Local training dominates; ping and selection are under 2 %.
    "train_heavy": {
        "scenario": {"kind": "high"},
        "population": {"num_clients": 100},
        "round": {
            "clients_per_round": 20,
            "num_rounds": 300,
            "timeout_s": 600.0,
            "eval_every": 10,
        },
        "task": {"num_samples": 20000, "features_d": 64, "classes_k": 10, "epochs": 2},
        "selector": {"fedcs": {"threshold_s": 60.0}},
    },
}


# A study runs every selector with k run seeds: workload seed s gives run seeds
# k*s + 1 ... k*s + k, so seed 0 starts at run seed 1 as the acceptance fixture
# does. Three run seeds average out the work that differs between seeds, which
# is large for mda on study_low; train_heavy varies little between seeds, so
# one seed a study leaves room for more studies in a run.
RUN_SEEDS_PER_STUDY = {"study_low": 3, "population_1k": 3, "train_heavy": 1}


def run_seeds(workload: str, seed: int) -> list[int]:
    k = RUN_SEEDS_PER_STUDY[workload]
    return [k * seed + i for i in range(1, k + 1)]


def config_dict(workload: str, seed: int) -> dict:
    """The config mapping of one workload for workload seed ``seed``."""
    data = copy.deepcopy(WORKLOADS[workload])
    data["seeds"] = {"run_seeds": run_seeds(workload, seed)}
    return data
