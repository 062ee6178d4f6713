"""Independent brute-force oracles the tests check the package against.

Everything here is written naively and separately from the package code on
purpose: linear scans instead of bisect, per-sample loops instead of matrix
algebra, and a line-by-line transcription of the availability/failure weight
recipe. Slow is fine; agreeing with the fast path is the point.
"""

import math

import numpy as np


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
