"""The five client-selection strategies and the shared history bookkeeping.

All selectors share one calling shape: they see the currently available pool,
the per-round budget n, the server-side SelectorState, and an owned RNG, and
return a sorted list of selected client indices. An empty return means the
round must be skipped (e.g. FedCS found no eligible client). Their parameter
classes are config sections, defined and validated in `config`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .config import SELECTOR_KINDS, FedcsConfig, MdaConfig, TiflConfig
from .errors import ConfigError


class SelectorState:
    """Per-client availability/failure history as the server observes it.

    The history is held in arrays, not in per-client lists:

    - availability: one boolean row over all clients per round begun; row i
      is the ping at the start of round i (the server pings every client each
      round, so there are no gaps);
    - failures: two flat, append-only arrays of (client, round) events, in the
      order update_history received them, so each client's events run in
      ascending round order;
    - round_start_times: simulated clock value at the start of each round begun.
    """

    def __init__(self, num_clients: int):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.num_clients = num_clients
        self.round_start_times: list[float] = []
        self._rows: list[np.ndarray] = []
        self._fail_clients = np.zeros(16, dtype=np.int64)
        self._fail_rounds = np.zeros(16, dtype=np.int64)
        self._num_failures = 0

    @property
    def current_round(self) -> int:
        """Index of the round most recently begun; -1 before any history exists."""
        return len(self.round_start_times) - 1

    def available_clients(self, round_index: int) -> list[int]:
        """Ascending indices of the clients available when round round_index began."""
        return np.flatnonzero(self._rows[round_index]).tolist()


def update_history(
    state: SelectorState,
    round_index: int,
    now: float,
    availability_now: Sequence[bool],
    failures_last_round: Sequence[int],
) -> None:
    """Record this round's availability ping and the previous round's failures."""
    expected = len(state.round_start_times)
    if round_index != expected:
        raise ValueError(f"rounds must be recorded in order: expected {expected}, got {round_index}")
    if len(availability_now) != state.num_clients:
        raise ValueError(
            f"availability vector has {len(availability_now)} entries "
            f"for {state.num_clients} clients"
        )
    if state.round_start_times and now <= state.round_start_times[-1]:
        raise ValueError(f"round start {now} not after previous {state.round_start_times[-1]}")
    failed = sorted(set(failures_last_round))
    if round_index == 0 and failed:
        raise ValueError("no failures can be reported at round 0")
    for c in failed:
        if not 0 <= c < state.num_clients:
            raise ValueError(f"failed client index {c} out of range")
        if not state._rows[round_index - 1][c]:
            raise ValueError(
                f"client {c} reported failed at round {round_index - 1} "
                "but was unavailable then"
            )
    state._rows.append(np.array(availability_now, dtype=bool))
    start, stop = state._num_failures, state._num_failures + len(failed)
    if stop > len(state._fail_clients):
        capacity = max(2 * len(state._fail_clients), stop)
        state._fail_clients = np.resize(state._fail_clients, capacity)
        state._fail_rounds = np.resize(state._fail_rounds, capacity)
    state._fail_clients[start:stop] = failed
    state._fail_rounds[start:stop] = round_index - 1
    state._num_failures = stop
    state.round_start_times.append(float(now))


def _raw_weights(state: SelectorState, candidates: Sequence[int], cfg: MdaConfig) -> np.ndarray:
    """Pre-normalization MDA weights: windowed availability x failure recency penalty.

    The availability factor is the fraction of elapsed time over the last m
    recorded rounds during which the client stayed available (default 0.5 until
    m rounds of history exist). A failure at round i costs 1/(r - i) against the
    worst case sum over all completed rounds, so recent failures weigh most and
    a client that failed every round so far gets weight 0.
    """
    # Every sum below adds left to right, as a plain Python loop does, so the
    # weights equal those of the list-based reference in tests/oracles.py bit
    # for bit (np.sum's pairwise order would change the low bits).
    cands = np.asarray(candidates, dtype=np.int64)
    m = cfg.memory_length
    if len(state._rows) < m:
        raw = np.full(len(cands), cfg.default_weight)
    else:
        times = state.round_start_times[-m:]
        window = [row[cands] for row in state._rows[-m:]]
        up = np.zeros(len(cands))
        for k in range(m - 1):
            # an inter-round interval counts only if available at BOTH endpoints
            up += np.where(window[k] & window[k + 1], times[k + 1] - times[k], 0.0)
        raw = up / (times[-1] - times[0])
    n = state._num_failures
    if n:
        # Each client's 1/(r - i) terms are added in event order, i.e. by
        # ascending round; a never-failed client's sum is 0, its factor exactly 1.
        r = state.current_round
        pen = np.bincount(
            state._fail_clients[:n],
            weights=1.0 / (r - state._fail_rounds[:n]),
            minlength=state.num_clients,
        )
        max_pen = np.cumsum(1.0 / (r - np.arange(r)))[-1]
        raw = raw * (1.0 - pen[cands] / max_pen)
    return raw


def mda_weights(state: SelectorState, candidates: Sequence[int], cfg: MdaConfig) -> list[float]:
    """Normalized MDA weights over the candidate set (sums to 1).

    All-zero raw weights fall back to uniform — otherwise selection would stall.
    """
    if not candidates:
        raise ValueError("mda_weights needs a non-empty candidate set")
    if state.current_round < 0:
        raise ValueError("no round history recorded yet")
    raw = _raw_weights(state, candidates, cfg)
    total = np.cumsum(raw)[-1]   # sequential, unlike np.sum
    if total <= 0.0:
        return [1.0 / len(candidates)] * len(candidates)
    return (raw / total).tolist()


def weighted_sample_without_replacement(
    candidates: Sequence[int], weights: Sequence[float], n: int, rng: np.random.Generator
) -> list[int]:
    """Sequential weighted draws, renormalizing over the remainder after each pick.

    Returns min(n, len(candidates)) picks in draw order. If positive weight runs
    out before the budget, the rest are drawn uniformly from what remains.
    """
    if not candidates:
        raise ValueError("cannot sample from an empty candidate set")
    if len(weights) != len(candidates):
        raise ValueError(f"{len(candidates)} candidates but {len(weights)} weights")
    w = np.array(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")

    budget = min(n, len(candidates))
    taken: list[int] = []
    # A picked weight is zeroed, not removed: adding 0.0 leaves every prefix
    # sum as it was without the pick, and searchsorted never lands on a zero.
    while len(taken) < budget:
        cum = w.cumsum()
        if not cum[-1] > 0.0:
            break
        idx = int(cum.searchsorted(rng.random() * cum[-1], "right"))
        if idx == len(cum):  # guard float round-off
            idx = int(np.flatnonzero(w > 0)[-1])
        taken.append(idx)
        w[idx] = 0.0
    picks = [candidates[j] for j in taken]
    if len(picks) < budget:
        skipped = set(taken)
        remaining = [c for j, c in enumerate(candidates) if j not in skipped]
        while len(picks) < budget:
            picks.append(remaining.pop(int(rng.integers(len(remaining)))))
    return picks


def select_random(available: Sequence[int], n: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement of min(n, |available|) clients."""
    if not available:
        raise ValueError("empty availability pool")
    k = min(n, len(available))
    picks = rng.permutation(len(available))[:k]
    return sorted(available[int(i)] for i in picks)


def select_fedcs(
    available: Sequence[int],
    n: int,
    cfg: FedcsConfig,
    round_times: Sequence[float],
    rng: np.random.Generator,
) -> list[int]:
    """Uniform sample among clients whose estimated round time meets the deadline.

    filter_first drops ineligible clients, then samples n (rounds stay full);
    sample_first draws n from the whole pool, then drops, and can under-fill.
    """
    if not available:
        raise ValueError("empty availability pool")
    if cfg.order == "filter_first":
        eligible = [c for c in available if round_times[c] <= cfg.threshold_s]
        if not eligible:
            return []
        return select_random(eligible, n, rng)
    picked = select_random(available, n, rng)
    return [c for c in picked if round_times[c] <= cfg.threshold_s]


def assign_tiers(round_times: Sequence[float], num_tiers: int) -> list[int]:
    """Per-client tier index, 0 = fastest; contiguous near-equal speed bands.

    Clients are sorted by round time (index breaks ties); when the count does
    not divide evenly the extra clients go to the fastest tiers.
    """
    n = len(round_times)
    if num_tiers < 1:
        raise ValueError(f"num_tiers must be >= 1, got {num_tiers}")
    if num_tiers > n:
        raise ValueError(f"num_tiers={num_tiers} exceeds the {n} clients")
    order = sorted(range(n), key=lambda c: (round_times[c], c))
    base, rem = divmod(n, num_tiers)
    tiers = [0] * n
    pos = 0
    for k in range(num_tiers):
        size = base + (1 if k < rem else 0)
        for c in order[pos : pos + size]:
            tiers[c] = k
        pos += size
    return tiers


def tier_probabilities(num_tiers: int, ratio: float) -> list[float]:
    """Selection probability per tier, p_k proportional to ratio^(T-1-k)."""
    if num_tiers < 1:
        raise ValueError(f"num_tiers must be >= 1, got {num_tiers}")
    if ratio <= 0:
        raise ValueError(f"ratio must be > 0, got {ratio}")
    raw = [ratio ** (num_tiers - 1 - k) for k in range(num_tiers)]
    total = sum(raw)
    return [x / total for x in raw]


def _draw_tier(tiers_present: list[int], probs: Sequence[float], rng: np.random.Generator) -> int:
    # Restrict to tiers that actually have available clients, renormalized.
    mass = sum(probs[k] for k in tiers_present)
    x = rng.random() * mass
    acc = 0.0
    for k in tiers_present:
        acc += probs[k]
        if x < acc:
            return k
    return tiers_present[-1]


def _group_by_tier(available: Sequence[int], tiers: Sequence[int]) -> dict[int, list[int]]:
    grouped: dict[int, list[int]] = {}
    for c in available:
        grouped.setdefault(tiers[c], []).append(c)
    return grouped


def select_tifl(
    available: Sequence[int],
    n: int,
    tiers: Sequence[int],
    probs: Sequence[float],
    rng: np.random.Generator,
) -> list[int]:
    """Draw one tier (renormalized over non-empty tiers), then sample uniformly in it."""
    if not available:
        raise ValueError("empty availability pool")
    grouped = _group_by_tier(available, tiers)
    tier = _draw_tier(sorted(grouped), probs, rng)
    return select_random(sorted(grouped[tier]), n, rng)


def select_tifl_mda(
    available: Sequence[int],
    n: int,
    tiers: Sequence[int],
    probs: Sequence[float],
    state: SelectorState,
    cfg: MdaConfig,
    rng: np.random.Generator,
) -> list[int]:
    """TiFL's tier draw with MDA weights replacing the uniform in-tier sample."""
    if not available:
        raise ValueError("empty availability pool")
    grouped = _group_by_tier(available, tiers)
    tier = _draw_tier(sorted(grouped), probs, rng)
    members = sorted(grouped[tier])
    weights = mda_weights(state, members, cfg)
    return sorted(weighted_sample_without_replacement(members, weights, n, rng))


def select_mda(
    available: Sequence[int],
    n: int,
    state: SelectorState,
    cfg: MdaConfig,
    rng: np.random.Generator,
) -> list[int]:
    """Weighted draw over the whole available pool using MDA weights."""
    if not available:
        raise ValueError("empty availability pool")
    pool = sorted(available)
    weights = mda_weights(state, pool, cfg)
    return sorted(weighted_sample_without_replacement(pool, weights, n, rng))


SelectFn = Callable[[Sequence[int], int, SelectorState, np.random.Generator], list[int]]


def make_selector(
    kind: str,
    *,
    round_times: Sequence[float] | None = None,
    fedcs: FedcsConfig = FedcsConfig(),
    tifl: TiflConfig = TiflConfig(),
    mda: MdaConfig = MdaConfig(),
) -> SelectFn:
    """Bind a selector kind to its static inputs behind the common call shape."""
    if kind == "random":
        return lambda pool, n, state, rng: select_random(pool, n, rng)
    if kind == "fedcs":
        if round_times is None:
            raise ValueError("fedcs needs per-client round times")
        return lambda pool, n, state, rng: select_fedcs(pool, n, fedcs, round_times, rng)
    if kind == "tifl":
        if round_times is None:
            raise ValueError("tifl needs per-client round times")
        tiers = assign_tiers(round_times, tifl.num_tiers)
        probs = tier_probabilities(tifl.num_tiers, tifl.ratio)
        return lambda pool, n, state, rng: select_tifl(pool, n, tiers, probs, rng)
    if kind == "mda":
        return lambda pool, n, state, rng: select_mda(pool, n, state, mda, rng)
    if kind == "tifl_mda":
        if round_times is None:
            raise ValueError("tifl_mda needs per-client round times")
        tiers = assign_tiers(round_times, tifl.num_tiers)
        probs = tier_probabilities(tifl.num_tiers, tifl.ratio)
        return lambda pool, n, state, rng: select_tifl_mda(pool, n, tiers, probs, state, mda, rng)
    raise ConfigError(f"unknown selector kind {kind!r}; expected one of {SELECTOR_KINDS}")
