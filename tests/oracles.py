"""Independent brute-force oracles the tests check the package against.

Everything here is written naively and separately from the package code on
purpose: linear scans instead of bisect, per-sample loops instead of matrix
algebra, and a line-by-line transcription of the availability/failure weight
recipe. Slow is fine; agreeing with the fast path is the point.
"""

import dataclasses
import difflib
import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from fedselsim import selectors
from fedselsim.config import (
    CapabilityBounds,
    ExperimentConfig,
    FedcsConfig,
    MdaConfig,
    OutputCfg,
    PopulationCfg,
    RoundCfg,
    ScenarioCfg,
    SeedsCfg,
    SelectorCfg,
    SyntheticTracesCfg,
    TaskCfg,
    TiflConfig,
    TraceClassParams,
)
from fedselsim.errors import ConfigError
from fedselsim.learning import train_split_size


def scan_available(start_state, transitions, t):
    """State at time t by walking every flip in order (no bisect)."""
    state = start_state
    for tau in transitions:
        if tau <= t:
            state = not state
        else:
            break
    return state


def integrate_available(start_state, transitions, horizon):
    """Total available seconds by summing constant segments one by one."""
    edges = [0.0] + list(transitions) + [horizon]
    state = start_state
    up = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if state:
            up += b - a
        state = not state
    return up


def mda_weight(avail_hist, failures, start_times, m, default_weight):
    """One candidate's pre-normalization weight, transcribed step by step.

    avail_hist: booleans, one per recorded round (current round last).
    failures:   round indices the client failed at (all < current round).
    start_times: simulated clock at each recorded round start.
    """
    r = len(start_times) - 1  # current round index

    if len(avail_hist) < m:
        factor = default_weight
    else:
        window = avail_hist[-m:]
        times = start_times[-m:]
        total_time = 0.0
        available_time = 0.0
        for k in range(1, m):
            span = times[k] - times[k - 1]
            total_time += span
            if window[k - 1] and window[k]:
                available_time += span
        factor = available_time / total_time

    if failures:
        max_pen = 0.0
        for i in range(r):
            max_pen += 1.0 / (r - i)
        pen = 0.0
        for i in failures:
            pen += 1.0 / (r - i)
        factor *= 1.0 - pen / max_pen
    return factor


def mda_weights(per_client, m, default_weight):
    """Normalized weights for a candidate list of (avail_hist, failures) pairs."""
    raw = [
        mda_weight(hist, fails, starts, m, default_weight)
        for hist, fails, starts in per_client
    ]
    total = sum(raw)
    if total <= 0:
        return [1.0 / len(raw)] * len(raw)
    return [w / total for w in raw]


def softmax_loss(params, features, labels, classes_k):
    """Mean cross-entropy, one sample at a time."""
    d = features.shape[1]
    w = params[: classes_k * d].reshape(classes_k, d)
    b = params[classes_k * d :]
    total = 0.0
    for x, y in zip(features, labels):
        logits = [float(w[k] @ x + b[k]) for k in range(classes_k)]
        top = max(logits)
        z = sum(math.exp(v - top) for v in logits)
        total += -(logits[y] - top - math.log(z))
    return total / len(labels)


def softmax_grad(params, features, labels, classes_k):
    """Mean gradient of softmax_loss, accumulated sample by sample."""
    d = features.shape[1]
    w = params[: classes_k * d].reshape(classes_k, d)
    b = params[classes_k * d :]
    grad_w = np.zeros_like(w)
    grad_b = np.zeros_like(b)
    for x, y in zip(features, labels):
        logits = np.array([w[k] @ x + b[k] for k in range(classes_k)])
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        p[y] -= 1.0
        for k in range(classes_k):
            grad_w[k] += p[k] * x
            grad_b[k] += p[k]
    n = len(labels)
    return np.concatenate([(grad_w / n).ravel(), grad_b / n])


def finite_difference_grad(params, features, labels, classes_k, h=1e-5):
    """Central finite differences of softmax_loss."""
    grad = np.zeros_like(params)
    for j in range(len(params)):
        bump = np.zeros_like(params)
        bump[j] = h
        grad[j] = (
            softmax_loss(params + bump, features, labels, classes_k)
            - softmax_loss(params - bump, features, labels, classes_k)
        ) / (2 * h)
    return grad


def random_mda_instance(rng, num_clients=None):
    """A random (state history, m) instance for the weight-equivalence check.

    Returns (per_client, starts, m) where per_client holds one
    (avail_hist, failures) pair per candidate; every candidate is available at
    the current round and failures only happen at rounds the client was
    available for (the engine's invariants).
    """
    rounds = int(rng.integers(1, 25))
    starts = np.cumsum(rng.uniform(1.0, 50.0, size=rounds)).tolist()
    m = int(rng.integers(2, 13))
    if num_clients is None:
        num_clients = int(rng.integers(1, 8))
    per_client = []
    for _ in range(num_clients):
        hist = [bool(rng.random() < 0.7) for _ in range(rounds)]
        hist[-1] = True  # candidates are available at the current round
        eligible = [i for i in range(rounds - 1) if hist[i]]
        k = int(rng.integers(0, len(eligible) + 1)) if eligible else 0
        fails = sorted(rng.choice(eligible, size=k, replace=False).tolist()) if k else []
        per_client.append((hist, [int(i) for i in fails], starts))
    return per_client, starts, m


# The list-based MDA weighting and draw that the package's array code replaced,
# copied unchanged apart from their names. The package must match them exactly:
# same weights, same picks, and the same RNG state afterwards.


class ListState:
    """The per-client list layout the loops below read."""

    def __init__(self, per_client, starts):
        self.availability = [[bool(v) for v in hist] for hist, _ in per_client]
        self.failures = [sorted(int(i) for i in fails) for _, fails in per_client]
        self.round_start_times = [float(t) for t in starts]

    @property
    def current_round(self):
        return len(self.round_start_times) - 1


def loop_availability_factor(state, c, cfg):
    hist = state.availability[c]
    m = cfg.memory_length
    if len(hist) < m:
        return cfg.default_weight
    recent = hist[-m:]
    times = state.round_start_times[-m:]
    total = times[-1] - times[0]
    up = 0.0
    for k in range(m - 1):
        # an inter-round interval counts only if available at BOTH endpoints
        if recent[k] and recent[k + 1]:
            up += times[k + 1] - times[k]
    return up / total


def loop_failure_penalty(state, c):
    r = state.current_round
    fails = state.failures[c]
    if not fails:
        return 1.0   # a never-failed client is never penalized
    max_pen = sum(1.0 / (r - i) for i in range(r))
    pen = sum(1.0 / (r - i) for i in fails)
    return 1.0 - pen / max_pen


def loop_mda_raw_weight(state, c, cfg):
    return loop_availability_factor(state, c, cfg) * loop_failure_penalty(state, c)


def loop_mda_weights(state, candidates, cfg):
    if not candidates:
        raise ValueError("mda_weights needs a non-empty candidate set")
    if state.current_round < 0:
        raise ValueError("no round history recorded yet")
    raw = [loop_mda_raw_weight(state, c, cfg) for c in candidates]
    total = sum(raw)
    if total <= 0.0:
        return [1.0 / len(candidates)] * len(candidates)
    return [w / total for w in raw]


def loop_weighted_sample(candidates, weights, n, rng):
    if not candidates:
        raise ValueError("cannot sample from an empty candidate set")
    if len(weights) != len(candidates):
        raise ValueError(f"{len(candidates)} candidates but {len(weights)} weights")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")

    remaining = list(candidates)
    w = [float(x) for x in weights]
    picks = []
    while remaining and len(picks) < n:
        total = sum(w)
        if total > 0.0:
            x = rng.random() * total
            idx = max(j for j, wj in enumerate(w) if wj > 0)  # guard float round-off
            acc = 0.0
            for j, wj in enumerate(w):
                acc += wj
                if x < acc:
                    idx = j
                    break
        else:
            idx = int(rng.integers(len(remaining)))
        picks.append(remaining.pop(idx))
        w.pop(idx)
    return picks


# The tiered selectors as they stood before the tier draw stopped grouping
# every available client by tier each round, copied unchanged apart from their
# names; the in-tier draws are the package's, which have their own references
# above. The package must match them exactly: same picks, and the same RNG
# state afterwards.


def _parent_draw_tier(tiers_present, probs, rng):
    # Restrict to tiers that actually have available clients, renormalized.
    mass = sum(probs[k] for k in tiers_present)
    x = rng.random() * mass
    acc = 0.0
    for k in tiers_present:
        acc += probs[k]
        if x < acc:
            return k
    return tiers_present[-1]


def _group_by_tier(available, tiers):
    grouped = {}
    for c in available:
        grouped.setdefault(tiers[c], []).append(c)
    return grouped


def parent_select_tifl(available, n, tiers, probs, rng):
    """Draw one tier (renormalized over non-empty tiers), then sample uniformly in it."""
    if not available:
        raise ValueError("empty availability pool")
    grouped = _group_by_tier(available, tiers)
    tier = _parent_draw_tier(sorted(grouped), probs, rng)
    return selectors.select_random(np.array(sorted(grouped[tier])), n, rng).tolist()


def parent_select_tifl_mda(available, n, tiers, probs, state, cfg, rng):
    """TiFL's tier draw with MDA weights replacing the uniform in-tier sample."""
    if not available:
        raise ValueError("empty availability pool")
    grouped = _group_by_tier(available, tiers)
    tier = _parent_draw_tier(sorted(grouped), probs, rng)
    members = np.array(sorted(grouped[tier]))
    weights = selectors.mda_weights(state, members, cfg)
    return sorted(selectors.weighted_sample_without_replacement(members, weights, n, rng).tolist())


# The one-draw-per-flip trace generator that the package's block-drawn one
# replaced, copied unchanged apart from its name and its return value (the start
# state and the flips, not an AvailabilityTrace). The package must match it
# exactly: same start state, same flip times.


def loop_generate_trace(params, horizon_s, rng_seed):
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
    rng = np.random.default_rng(rng_seed)
    state = bool(rng.random() < params.start_available_prob)
    start = state
    flips: list[float] = []
    t = 0.0
    while True:
        t += rng.exponential(params.mean_up_s if state else params.mean_down_s)
        if t >= horizon_s:
            break
        flips.append(t)
        state = not state
    return start, tuple(flips)


# The per-trace block-drawn generator that the class-by-class table build
# replaced, copied unchanged apart from its name, a private copy of
# `_MAX_BLOCK` and its return value (the start state and the flips, not an
# AvailabilityTrace). The package must match it exactly, trace by trace.

_MAX_BLOCK = 4096


def block_generate_trace(params, horizon_s, rng_seed):
    if not 0 < horizon_s < math.inf:
        raise ValueError(f"horizon_s must be finite and > 0, got {horizon_s}")
    rng = np.random.default_rng(rng_seed)
    state = bool(rng.random() < params.start_available_prob)
    first, second = (
        (params.mean_up_s, params.mean_down_s) if state else (params.mean_down_s, params.mean_up_s)
    )
    expected = min(float(_MAX_BLOCK), 2.0 * horizon_s / (first + second))
    k = min(_MAX_BLOCK, 2 * (int(expected + 3.0 * expected**0.5) // 2 + 4))
    blocks: list[np.ndarray] = []
    t = 0.0
    while True:
        times = rng.standard_exponential(k)
        times[0::2] *= first
        times[1::2] *= second
        times[0] += t
        times.cumsum(out=times)
        cut = int(times.searchsorted(horizon_s))
        if cut < k:
            blocks.append(times[:cut])
            break
        blocks.append(times)
        t = float(times[-1])
    return state, tuple(np.concatenate(blocks).tolist())


# The per-flip check of `AvailabilityTrace.__post_init__` that the one pass over
# the trace table replaced, copied unchanged apart from taking the flips and the
# horizon as arguments in place of `self`. The package must raise exactly when
# this raises, with the same message.


def loop_check_trace(transitions, horizon_s):
    if not 0 < horizon_s < math.inf:
        raise ValueError(f"horizon_s must be finite and > 0, got {horizon_s}")
    prev = -1.0
    for t in transitions:
        if not 0.0 <= t <= horizon_s:
            raise ValueError(f"transition {t} outside [0, {horizon_s}]")
        if t <= prev:
            raise ValueError(f"transitions must be strictly increasing (at {t})")
        prev = t


# The per-flip `trace_stats` that the ranking over the trace table replaced,
# copied unchanged apart from its name and from taking the start state, flips
# and horizon as arguments in place of a trace. The package must give the same
# (fraction, flips per hour) pair, bit for bit.


def loop_trace_stats(start_available, transitions, horizon_s):
    up = 0.0
    state = start_available
    prev = 0.0
    for t in transitions:
        if state:
            up += t - prev
        state = not state
        prev = t
    if state:
        up += horizon_s - prev
    return up / horizon_s, len(transitions) / (horizon_s / 3600.0)


# The per-batch local SGD that the package's per-epoch-gather trainer replaced,
# copied unchanged apart from its name, a private copy of `_unpack`, and the
# empty-shard debug log line it no longer has a logger for. The package must
# match it byte for byte on every valid input.


def _unpack(params, classes_k, features_d):
    w = params[: classes_k * features_d].reshape(classes_k, features_d)
    b = params[classes_k * features_d :]
    return w, b


def _softmax_grad(w, b, features, labels, classes_k):
    logits = features @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)   # numeric stability
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    probs /= len(labels)
    return probs.T @ features, probs.sum(axis=0)


def loop_local_train(
    global_params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    classes_k: int,
    epochs: int,
    batch_size: int,
    lr: float,
    seed,
) -> np.ndarray:
    """Mini-batch gradient descent on softmax cross-entropy; returns trained - global.

    An empty shard yields a zero delta (the client "trains" on nothing).
    """
    if epochs < 0 or batch_size < 1 or lr < 0:
        raise ValueError("need epochs >= 0, batch_size >= 1, lr >= 0")
    if len(labels) == 0:
        return np.zeros_like(global_params)
    features_d = features.shape[1]
    w, b = _unpack(global_params.copy(), classes_k, features_d)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(labels))
        for s in range(0, len(order), batch_size):
            batch = order[s : s + batch_size]
            grad_w, grad_b = _softmax_grad(w, b, features[batch], labels[batch], classes_k)
            w = w - lr * grad_w
            b = b - lr * grad_b
    return np.concatenate([w.ravel(), b]) - global_params


# The per-value capability draw that the (n, 3) array draw replaced, copied
# unchanged apart from its name and from building a `Profile` record in place
# of the package's removed `ClientProfile` (whose finite-and-> 0 check a value
# drawn inside validated bounds always passes). The package's row c must hold
# client c's three values, bit for bit.

Profile = namedtuple("Profile", "client_id time_per_sample_s down_bw_Bps up_bw_Bps")


def loop_generate_profiles(n, bounds, rng_seed):
    """Draw n profiles with log-uniform capabilities inside the given bounds."""
    if n < 1:
        raise ValueError(f"need n >= 1 profiles, got {n}")
    rng = np.random.default_rng(rng_seed)

    def draw(lo: float, hi: float) -> float:
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    profiles = []
    for i in range(n):
        tps = draw(*bounds.time_per_sample_s)
        down = draw(*bounds.down_bw_Bps)
        up = draw(*bounds.up_bw_Bps)
        profiles.append(Profile(f"c{i}", tps, down, up))
    return profiles

# The per-profile round time that the one elementwise expression over every
# client replaced, copied unchanged apart from its name and from reading a
# `Profile` record. The package's entry c must equal it for client c, bit for
# bit.


def profile_round_time(profile, num_samples, model_size_bytes, local_epochs):
    if num_samples < 0:
        raise ValueError(f"{profile.client_id}: num_samples must be >= 0")
    down = model_size_bytes / profile.down_bw_Bps
    up = model_size_bytes / profile.up_bw_Bps
    compute = local_epochs * num_samples * profile.time_per_sample_s
    return down + compute + up

# The list-of-shards Dirichlet partition that the one index array with offsets
# replaced, copied unchanged apart from its name. The package's slice
# order[offsets[c]:offsets[c + 1]] must equal its shard c, bit for bit.


def list_dirichlet_partition(dataset, num_clients, alpha, seed):
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if num_clients > len(dataset.train_idx):
        raise ValueError(
            f"cannot split {len(dataset.train_idx)} train samples across {num_clients} clients"
        )
    rng = np.random.default_rng(seed)
    shards: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    train_labels = dataset.labels[dataset.train_idx]
    for k in range(dataset.num_classes):
        idx_k = dataset.train_idx[train_labels == k]
        props = rng.dirichlet(np.full(num_clients, alpha))
        raw = props * len(idx_k)
        counts = np.floor(raw).astype(int)
        short = len(idx_k) - counts.sum()
        by_remainder = np.argsort(-(raw - counts), kind="stable")
        counts[by_remainder[:short]] += 1
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for c in range(num_clients):
            shards[c].append(idx_k[offsets[c] : offsets[c + 1]])
    return [np.sort(np.concatenate(parts)) for parts in shards]

# The Gaussian-blob features as `make_dataset` built them before it added each
# class's mean to its rows of the noise in place: one gather of the means, then
# the noise added, copied unchanged apart from its name, a private copy of the
# per-class counts of `_class_splits`, and returning (features, labels) only.
# The package's features and labels must equal these, byte for byte.


def gathered_blobs(num_samples, features_d, classes_k, class_sep, seed):
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(classes_k, features_d)) * class_sep
    base, rem = divmod(num_samples, classes_k)
    counts = [base + (1 if k < rem else 0) for k in range(classes_k)]
    labels = np.repeat(np.arange(classes_k, dtype=np.int64), counts)
    features = means[labels] + rng.normal(0.0, 1.0, size=(num_samples, features_d))
    return features, labels

# The config loader that the field-driven one replaced: seven section builders,
# copied unchanged apart from the name of `parent_config_from_dict` and from
# building the five self-checking dataclasses through `_construct`, which runs
# those classes' checks as they stood, so that no check of the package is
# shared. It fills the package's section dataclasses in place of building
# them, so their own checks never run here. The package must accept exactly
# the mappings this accepts, with the same `to_dict()`, and reject the rest
# with ConfigError; the one exception is a non-finite number at a float key,
# which this accepts and the package rejects.

SCENARIO_KINDS = ("low", "average", "high")
SELECTOR_KINDS = ("random", "fedcs", "tifl", "mda", "tifl_mda")
FEDCS_ORDERS = ("filter_first", "sample_first")
OUTPUT_FORMATS = ("json", "csv")


def _mda_checks(self):
    if self.memory_length < 2:
        raise ConfigError(f"mda.memory_length must be >= 2, got {self.memory_length}")
    if not 0.0 < self.default_weight <= 1.0:
        raise ConfigError(f"mda default_weight must be in (0, 1], got {self.default_weight}")


def _fedcs_checks(self):
    if self.threshold_s <= 0:
        raise ConfigError(f"fedcs.threshold_s must be > 0, got {self.threshold_s}")
    if self.order not in FEDCS_ORDERS:
        raise ConfigError(f"fedcs.order must be one of {FEDCS_ORDERS}, got {self.order!r}")


def _tifl_checks(self):
    if self.num_tiers < 1:
        raise ConfigError(f"tifl.num_tiers must be >= 1, got {self.num_tiers}")
    if self.ratio <= 0:
        raise ConfigError(f"tifl.ratio must be > 0, got {self.ratio}")


def _trace_class_checks(self):
    # `not > 0` also rejects NaN, which would never reach a horizon.
    if not (self.mean_up_s > 0 and self.mean_down_s > 0):
        raise ConfigError("mean up/down durations must be > 0")
    if not 0.0 <= self.start_available_prob <= 1.0:
        raise ConfigError("start_available_prob must be in [0, 1]")
    if self.weight < 0:
        raise ConfigError("class weight must be >= 0")


def _capability_checks(self):
    for name in ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps"):
        lo, hi = getattr(self, name)
        if lo <= 0 or hi < lo:
            raise ConfigError(f"{name} bounds must satisfy 0 < lo <= hi, got ({lo}, {hi})")


_PARENT_CHECKS = {
    MdaConfig: _mda_checks,
    FedcsConfig: _fedcs_checks,
    TiflConfig: _tifl_checks,
    TraceClassParams: _trace_class_checks,
    CapabilityBounds: _capability_checks,
}


def _construct(cls, **kwargs):
    """A cls holding kwargs and the defaults, after the parent's checks of cls only."""
    values = {f.name: f.default for f in dataclasses.fields(cls)}
    values.update(kwargs)
    _PARENT_CHECKS[cls](SimpleNamespace(**values))
    instance = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(instance, name, value)  # the classes are frozen
    return instance


def _reject_unknown(section: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in section:
        if key not in allowed:
            msg = f"unknown config key {path}{key!r}"
            close = difflib.get_close_matches(str(key), allowed, n=1)
            if close:
                msg += f" (did you mean {close[0]!r}?)"
            raise ConfigError(msg)


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)  # YAML renders shorthand like "1e6" as a string
        except ValueError:
            pass
    raise ConfigError(f"{path}: expected a number, got {value!r}")


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices and value not in choices:
        raise ConfigError(f"{path}: expected one of {choices}, got {value!r}")
    return value


def _as_pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [lo, hi], got {value!r}")
    return (_as_float(value[0], path), _as_float(value[1], path))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _build_scenario_cfg(data: dict) -> ScenarioCfg:
    _reject_unknown(data, ("kind", "source", "trace_file", "mix", "synthetic"), "scenario.")
    cfg = ScenarioCfg()
    if "kind" in data:
        cfg.kind = _as_str(data["kind"], "scenario.kind", SCENARIO_KINDS)
    if "source" in data:
        cfg.source = _as_str(data["source"], "scenario.source", ("synthetic", "file"))
    if "trace_file" in data and data["trace_file"] is not None:
        cfg.trace_file = _as_str(data["trace_file"], "scenario.trace_file")
    if "mix" in data:
        mix = data["mix"]
        if not isinstance(mix, (list, tuple)) or len(mix) != 3:
            raise ConfigError(f"scenario.mix: expected three fractions, got {mix!r}")
        cfg.mix = tuple(_as_float(v, "scenario.mix") for v in mix)
        _require(all(f >= 0 for f in cfg.mix), f"scenario.mix: fractions must be >= 0, got {cfg.mix}")
        _require(abs(sum(cfg.mix) - 1.0) <= 1e-9, f"scenario.mix: fractions must sum to 1, got {cfg.mix}")
    syn = _section(data, "synthetic")
    _reject_unknown(syn, ("pool_size", "horizon_s", "classes"), "scenario.synthetic.")
    syn_cfg = SyntheticTracesCfg()
    if "pool_size" in syn and syn["pool_size"] is not None:
        syn_cfg.pool_size = _as_int(syn["pool_size"], "scenario.synthetic.pool_size")
        _require(syn_cfg.pool_size >= 1, "scenario.synthetic.pool_size must be >= 1")
    if "horizon_s" in syn and syn["horizon_s"] is not None:
        syn_cfg.horizon_s = _as_float(syn["horizon_s"], "scenario.synthetic.horizon_s")
        _require(
            0 < syn_cfg.horizon_s < math.inf,
            f"scenario.synthetic.horizon_s must be finite and > 0, got {syn_cfg.horizon_s}",
        )
    if "classes" in syn and syn["classes"] is not None:
        raw = syn["classes"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("scenario.synthetic.classes must be a non-empty list")
        classes = []
        for i, entry in enumerate(raw):
            path = f"scenario.synthetic.classes[{i}]."
            if not isinstance(entry, dict):
                raise ConfigError(f"{path[:-1]}: expected a mapping")
            _reject_unknown(
                entry, ("mean_up_s", "mean_down_s", "start_available_prob", "weight"), path
            )
            for req in ("mean_up_s", "mean_down_s", "start_available_prob"):
                _require(req in entry, f"{path}{req} is required")
            classes.append(
                _construct(
                    TraceClassParams,
                    mean_up_s=_as_float(entry["mean_up_s"], path + "mean_up_s"),
                    mean_down_s=_as_float(entry["mean_down_s"], path + "mean_down_s"),
                    start_available_prob=_as_float(
                        entry["start_available_prob"], path + "start_available_prob"
                    ),
                    weight=_as_float(entry.get("weight", 1.0), path + "weight"),
                )
            )
        syn_cfg.classes = tuple(classes)
    cfg.synthetic = syn_cfg
    if cfg.source == "file":
        _require(cfg.trace_file is not None, "scenario.trace_file is required when source=file")
    return cfg


def _build_population_cfg(data: dict) -> PopulationCfg:
    _reject_unknown(
        data, ("num_clients", "capability_source", "capability_file", "synthetic"), "population."
    )
    cfg = PopulationCfg()
    if "num_clients" in data:
        cfg.num_clients = _as_int(data["num_clients"], "population.num_clients")
        _require(cfg.num_clients >= 1, f"population.num_clients must be >= 1, got {cfg.num_clients}")
    if "capability_source" in data:
        cfg.capability_source = _as_str(
            data["capability_source"], "population.capability_source", ("synthetic", "file")
        )
    if "capability_file" in data and data["capability_file"] is not None:
        cfg.capability_file = _as_str(data["capability_file"], "population.capability_file")
    syn = _section(data, "synthetic")
    _reject_unknown(syn, ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps"), "population.synthetic.")
    bounds = {}
    for name in ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps"):
        if name in syn:
            bounds[name] = _as_pair(syn[name], f"population.synthetic.{name}")
    cfg.synthetic = _construct(CapabilityBounds, **bounds)
    if cfg.capability_source == "file":
        _require(
            cfg.capability_file is not None,
            "population.capability_file is required when capability_source=file",
        )
    return cfg


def _build_round_cfg(data: dict) -> RoundCfg:
    _reject_unknown(
        data,
        ("clients_per_round", "num_rounds", "timeout_s", "eval_every", "strict_availability_failures"),
        "round.",
    )
    cfg = RoundCfg()
    if "clients_per_round" in data:
        cfg.clients_per_round = _as_int(data["clients_per_round"], "round.clients_per_round")
        _require(cfg.clients_per_round >= 1, "round.clients_per_round must be >= 1")
    if "num_rounds" in data:
        cfg.num_rounds = _as_int(data["num_rounds"], "round.num_rounds")
        _require(cfg.num_rounds >= 0, "round.num_rounds must be >= 0")
    if "timeout_s" in data:
        cfg.timeout_s = _as_float(data["timeout_s"], "round.timeout_s")
        _require(cfg.timeout_s > 0, "round.timeout_s must be > 0")
    if "eval_every" in data:
        cfg.eval_every = _as_int(data["eval_every"], "round.eval_every")
        _require(cfg.eval_every >= 1, "round.eval_every must be >= 1")
    if "strict_availability_failures" in data:
        cfg.strict_availability_failures = _as_bool(
            data["strict_availability_failures"], "round.strict_availability_failures"
        )
    return cfg


def _build_task_cfg(data: dict) -> TaskCfg:
    fields = (
        "num_samples", "features_d", "classes_k", "alpha", "lr",
        "epochs", "batch_size", "seed", "class_sep",
    )
    _reject_unknown(data, fields, "task.")
    cfg = TaskCfg()
    for name in ("num_samples", "features_d", "classes_k", "epochs", "batch_size", "seed"):
        if name in data:
            setattr(cfg, name, _as_int(data[name], f"task.{name}"))
    for name in ("alpha", "lr", "class_sep"):
        if name in data:
            setattr(cfg, name, _as_float(data[name], f"task.{name}"))
    _require(cfg.classes_k >= 2, f"task.classes_k must be >= 2, got {cfg.classes_k}")
    _require(cfg.features_d >= 1, f"task.features_d must be >= 1, got {cfg.features_d}")
    _require(
        cfg.num_samples >= 5 * cfg.classes_k,
        f"task.num_samples must be >= {5 * cfg.classes_k} for {cfg.classes_k} classes",
    )
    _require(cfg.alpha > 0, f"task.alpha must be > 0, got {cfg.alpha}")
    _require(cfg.lr >= 0, f"task.lr must be >= 0, got {cfg.lr}")
    _require(cfg.epochs >= 1, f"task.epochs must be >= 1, got {cfg.epochs}")
    _require(cfg.batch_size >= 1, f"task.batch_size must be >= 1, got {cfg.batch_size}")
    _require(cfg.seed >= 0, f"task.seed must be >= 0, got {cfg.seed}")
    _require(cfg.class_sep >= 0, f"task.class_sep must be >= 0, got {cfg.class_sep}")
    return cfg


def _build_selector_cfg(data: dict) -> SelectorCfg:
    _reject_unknown(data, ("kind", "mda", "fedcs", "tifl"), "selector.")
    cfg = SelectorCfg()
    if "kind" in data:
        cfg.kind = _as_str(data["kind"], "selector.kind", SELECTOR_KINDS)
    mda = _section(data, "mda")
    _reject_unknown(mda, ("memory_length", "default_weight"), "selector.mda.")
    kwargs = {}
    if "memory_length" in mda:
        kwargs["memory_length"] = _as_int(mda["memory_length"], "selector.mda.memory_length")
    if "default_weight" in mda:
        kwargs["default_weight"] = _as_float(mda["default_weight"], "selector.mda.default_weight")
    cfg.mda = _construct(MdaConfig, **kwargs)
    fedcs = _section(data, "fedcs")
    _reject_unknown(fedcs, ("threshold_s", "order"), "selector.fedcs.")
    kwargs = {}
    if "threshold_s" in fedcs:
        kwargs["threshold_s"] = _as_float(fedcs["threshold_s"], "selector.fedcs.threshold_s")
    if "order" in fedcs:
        kwargs["order"] = _as_str(fedcs["order"], "selector.fedcs.order")
    cfg.fedcs = _construct(FedcsConfig, **kwargs)
    tifl = _section(data, "tifl")
    _reject_unknown(tifl, ("num_tiers", "ratio"), "selector.tifl.")
    kwargs = {}
    if "num_tiers" in tifl:
        kwargs["num_tiers"] = _as_int(tifl["num_tiers"], "selector.tifl.num_tiers")
    if "ratio" in tifl:
        kwargs["ratio"] = _as_float(tifl["ratio"], "selector.tifl.ratio")
    cfg.tifl = _construct(TiflConfig, **kwargs)
    return cfg


def _build_seeds_cfg(data: dict) -> SeedsCfg:
    _reject_unknown(data, ("scenario_seed", "partition_seed", "run_seeds"), "seeds.")
    cfg = SeedsCfg()
    if "scenario_seed" in data:
        cfg.scenario_seed = _as_int(data["scenario_seed"], "seeds.scenario_seed")
    if "partition_seed" in data:
        cfg.partition_seed = _as_int(data["partition_seed"], "seeds.partition_seed")
    if "run_seeds" in data:
        raw = data["run_seeds"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("seeds.run_seeds must be a non-empty list of integers")
        cfg.run_seeds = tuple(_as_int(v, "seeds.run_seeds") for v in raw)
    for name in ("scenario_seed", "partition_seed"):
        _require(getattr(cfg, name) >= 0, f"seeds.{name} must be >= 0")
    _require(all(s >= 0 for s in cfg.run_seeds), "seeds.run_seeds entries must be >= 0")
    return cfg


def _build_output_cfg(data: dict) -> OutputCfg:
    _reject_unknown(data, ("directory", "formats"), "output.")
    cfg = OutputCfg()
    if "directory" in data:
        cfg.directory = _as_str(data["directory"], "output.directory")
    if "formats" in data:
        raw = data["formats"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("output.formats must be a non-empty list")
        formats = tuple(_as_str(v, "output.formats", OUTPUT_FORMATS) for v in raw)
        cfg.formats = formats
    return cfg


def parent_config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from an already-parsed mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(
        data, ("scenario", "population", "round", "task", "selector", "seeds", "output"), ""
    )
    cfg = ExperimentConfig(
        scenario=_build_scenario_cfg(_section(data, "scenario")),
        population=_build_population_cfg(_section(data, "population")),
        round=_build_round_cfg(_section(data, "round")),
        task=_build_task_cfg(_section(data, "task")),
        selector=_build_selector_cfg(_section(data, "selector")),
        seeds=_build_seeds_cfg(_section(data, "seeds")),
        output=_build_output_cfg(_section(data, "output")),
    )
    _require(
        cfg.population.num_clients >= cfg.round.clients_per_round,
        f"population.num_clients ({cfg.population.num_clients}) must be >= "
        f"round.clients_per_round ({cfg.round.clients_per_round})",
    )
    # Checked whatever the kind: compare runs the tiered selectors on any config.
    _require(
        cfg.selector.tifl.num_tiers <= cfg.population.num_clients,
        f"selector.tifl.num_tiers ({cfg.selector.tifl.num_tiers}) must be <= "
        f"population.num_clients ({cfg.population.num_clients})",
    )
    train = train_split_size(cfg.task.num_samples, cfg.task.classes_k)
    _require(
        cfg.population.num_clients <= train,
        f"population.num_clients ({cfg.population.num_clients}) must be <= the "
        f"{train} training samples of task.num_samples ({cfg.task.num_samples})",
    )
    horizon = cfg.scenario.synthetic.horizon_s
    if cfg.scenario.source == "synthetic" and horizon is not None and cfg.round.num_rounds >= 1:
        # The engine's own round-0 check: such a horizon cannot hold one round.
        # Longer horizons may still finish a run, so they pass.
        _require(
            not cfg.round.timeout_s > horizon + 1e-9,
            f"scenario.synthetic.horizon_s ({horizon}) must be >= round.timeout_s "
            f"({cfg.round.timeout_s}): no round fits in the trace horizon",
        )
    return cfg
