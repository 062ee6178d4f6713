"""The five client-selection strategies and the shared history bookkeeping.

All selectors share one calling shape: they see the currently available pool,
the per-round budget n, the server-side SelectorState, and an owned RNG. A
pool is an ascending int64 array of client indices, and every selector returns
one. An empty return means the round must be skipped (e.g. FedCS found no
eligible client). Their parameter classes are config sections, defined and
validated in `config`.

Client sets are sorted with kind="stable". Any kind gives the same ascending
indices, but the default kind's SIMD code adds about 0.25 MiB of resident
memory the first time it runs, which no other step of a study pays.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .config import SELECTOR_KINDS, FedcsConfig, MdaConfig, TiflConfig
from .errors import ConfigError


class SelectorState:
    """Per-client availability/failure history as the server observes it.

    The history is held in arrays, not in per-client lists:

    - availability: the pings of the last `window` rounds begun, one boolean
      row over all clients each, in a ring: round i's ping is row
      i % window (the server pings every client each round, so there are no
      gaps). MDA reads the last memory_length pings, so that is the window
      run_experiment gives, and the failure check reads the one before;
    - failures: two flat, append-only arrays of (client, round) events, in the
      order update_history received them, so each client's events run in
      ascending round order;
    - round_start_times: simulated clock value at the start of each round begun.
    """

    def __init__(self, num_clients: int, window: int = MdaConfig.memory_length):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if window < 2:
            raise ValueError(f"window must be >= 2 rounds, got {window}")
        self.num_clients = num_clients
        self.window = window
        self.round_start_times: list[float] = []
        self._pings = np.zeros((window, num_clients), dtype=bool)
        self._fail_clients = np.zeros(16, dtype=np.int64)
        self._fail_rounds = np.zeros(16, dtype=np.int64)
        self._num_failures = 0

    @property
    def current_round(self) -> int:
        """Index of the round most recently begun; -1 before any history exists."""
        return len(self.round_start_times) - 1

    def ping(self, round_index: int) -> np.ndarray:
        """The availability row of round round_index, one of the last `window` begun."""
        oldest = max(self.current_round - self.window + 1, 0)
        if not oldest <= round_index <= self.current_round:
            raise ValueError(
                f"round {round_index} is not held: the state holds rounds "
                f"{oldest} to {self.current_round}"
            )
        return self._pings[round_index % self.window]

    def available_clients(self, round_index: int) -> np.ndarray:
        """Ascending indices of the clients available when round round_index began."""
        return np.flatnonzero(self.ping(round_index))


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
    previous = state.ping(round_index - 1) if failed else None
    for c in failed:
        if not 0 <= c < state.num_clients:
            raise ValueError(f"failed client index {c} out of range")
        if not previous[c]:
            raise ValueError(
                f"client {c} reported failed at round {round_index - 1} "
                "but was unavailable then"
            )
    state._pings[round_index % state.window] = availability_now
    start, stop = state._num_failures, state._num_failures + len(failed)
    if stop > len(state._fail_clients):
        capacity = max(2 * len(state._fail_clients), stop)
        state._fail_clients = np.resize(state._fail_clients, capacity)
        state._fail_rounds = np.resize(state._fail_rounds, capacity)
    state._fail_clients[start:stop] = failed
    state._fail_rounds[start:stop] = round_index - 1
    state._num_failures = stop
    state.round_start_times.append(float(now))


def _raw_weights(state: SelectorState, candidates: np.ndarray, cfg: MdaConfig) -> np.ndarray:
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
    m = cfg.memory_length
    r = state.current_round
    if r + 1 < m:
        raw = np.full(len(candidates), cfg.default_weight)
    else:
        if m > state.window:
            raise ValueError(f"memory_length {m} exceeds the {state.window} pings the state holds")
        times = state.round_start_times[-m:]
        pings, w = state._pings, state.window
        window = [pings[i % w][candidates] for i in range(r - m + 1, r + 1)]   # oldest first
        up = np.zeros(len(candidates))
        for k in range(m - 1):
            # an inter-round interval counts only if available at BOTH endpoints
            up += np.where(window[k] & window[k + 1], times[k + 1] - times[k], 0.0)
        raw = up / (times[-1] - times[0])
    n = state._num_failures
    if n:
        # Each client's 1/(r - i) terms are added in event order, i.e. by
        # ascending round; a never-failed client's sum is 0, its factor exactly 1.
        pen = np.bincount(
            state._fail_clients[:n],
            weights=1.0 / (r - state._fail_rounds[:n]),
            minlength=state.num_clients,
        )
        max_pen = np.cumsum(1.0 / (r - np.arange(r)))[-1]
        raw = raw * (1.0 - pen[candidates] / max_pen)
    return raw


def mda_weights(state: SelectorState, candidates: np.ndarray, cfg: MdaConfig) -> np.ndarray:
    """Normalized MDA weights over the candidate set (sums to 1).

    All-zero raw weights fall back to uniform — otherwise selection would stall.
    """
    if len(candidates) == 0:
        raise ValueError("mda_weights needs a non-empty candidate set")
    if state.current_round < 0:
        raise ValueError("no round history recorded yet")
    raw = _raw_weights(state, candidates, cfg)
    total = np.cumsum(raw)[-1]   # sequential, unlike np.sum
    if total <= 0.0:
        return np.full(len(candidates), 1.0 / len(candidates))
    return raw / total


def weighted_sample_without_replacement(
    candidates: np.ndarray, weights: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sequential weighted draws, renormalizing over the remainder after each pick.

    Returns min(n, len(candidates)) picks in draw order. If positive weight runs
    out before the budget, the rest are drawn uniformly from what remains.
    """
    if len(candidates) == 0:
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
    if len(taken) < budget:
        remaining = np.delete(np.arange(len(candidates)), taken).tolist()
        while len(taken) < budget:
            taken.append(remaining.pop(int(rng.integers(len(remaining)))))
    return candidates[taken]


def select_random(available: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement of min(n, |available|) clients."""
    if len(available) == 0:
        raise ValueError("empty availability pool")
    return np.sort(available[rng.permutation(len(available))[:n]], kind="stable")


def select_fedcs(
    available: np.ndarray,
    n: int,
    cfg: FedcsConfig,
    round_times: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform sample among clients whose estimated round time meets the deadline.

    filter_first drops ineligible clients, then samples n (rounds stay full);
    sample_first draws n from the whole pool, then drops, and can under-fill.
    """
    if len(available) == 0:
        raise ValueError("empty availability pool")
    if cfg.order == "filter_first":
        eligible = available[round_times[available] <= cfg.threshold_s]
        if len(eligible) == 0:
            return eligible
        return select_random(eligible, n, rng)
    picked = select_random(available, n, rng)
    return picked[round_times[picked] <= cfg.threshold_s]


def assign_tiers(round_times: np.ndarray, num_tiers: int) -> np.ndarray:
    """Per-client tier index, 0 = fastest; contiguous near-equal speed bands.

    Clients are sorted by round time (index breaks ties); when the count does
    not divide evenly the extra clients go to the fastest tiers.
    """
    n = len(round_times)
    if num_tiers < 1:
        raise ValueError(f"num_tiers must be >= 1, got {num_tiers}")
    if num_tiers > n:
        raise ValueError(f"num_tiers={num_tiers} exceeds the {n} clients")
    base, rem = divmod(n, num_tiers)
    sizes = base + (np.arange(num_tiers) < rem)
    tiers = np.empty(n, dtype=np.int64)
    # The stable sort breaks equal round times by index.
    tiers[np.argsort(round_times, kind="stable")] = np.repeat(np.arange(num_tiers), sizes)
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


def _draw_tier(tiers_present: np.ndarray, probs: Sequence[float], rng: np.random.Generator) -> int:
    # Restrict to tiers that actually have available clients, renormalized.
    mass = sum(probs[k] for k in tiers_present)
    x = rng.random() * mass
    acc = 0.0
    for k in tiers_present:
        acc += probs[k]
        if x < acc:
            return k
    return tiers_present[-1]


def _tier_members(
    available: np.ndarray, tiers: np.ndarray, probs: Sequence[float], rng: np.random.Generator
) -> np.ndarray:
    """Ascending members of one tier drawn over the tiers present in the pool."""
    if len(available) == 0:
        raise ValueError("empty availability pool")
    pool_tiers = tiers[available]
    tier = _draw_tier(np.flatnonzero(np.bincount(pool_tiers)), probs, rng)
    return np.sort(available[pool_tiers == tier], kind="stable")


def select_tifl(
    available: np.ndarray,
    n: int,
    tiers: np.ndarray,
    probs: Sequence[float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one tier (renormalized over non-empty tiers), then sample uniformly in it."""
    return select_random(_tier_members(available, tiers, probs, rng), n, rng)


def select_tifl_mda(
    available: np.ndarray,
    n: int,
    tiers: np.ndarray,
    probs: Sequence[float],
    state: SelectorState,
    cfg: MdaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """TiFL's tier draw with MDA weights replacing the uniform in-tier sample."""
    return select_mda(_tier_members(available, tiers, probs, rng), n, state, cfg, rng)


def select_mda(
    available: np.ndarray,
    n: int,
    state: SelectorState,
    cfg: MdaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted draw over the whole available pool using MDA weights."""
    if len(available) == 0:
        raise ValueError("empty availability pool")
    pool = np.sort(available, kind="stable")
    weights = mda_weights(state, pool, cfg)
    return np.sort(weighted_sample_without_replacement(pool, weights, n, rng), kind="stable")


SelectFn = Callable[[np.ndarray, int, SelectorState, np.random.Generator], np.ndarray]


def make_selector(
    kind: str,
    *,
    round_times: np.ndarray | None = None,
    fedcs: FedcsConfig = FedcsConfig(),
    tifl: TiflConfig = TiflConfig(),
    mda: MdaConfig = MdaConfig(),
) -> SelectFn:
    """Bind a selector kind to its static inputs behind the common call shape."""
    if kind == "random":
        return lambda pool, n, state, rng: select_random(pool, n, rng)
    if kind == "mda":
        return lambda pool, n, state, rng: select_mda(pool, n, state, mda, rng)
    if kind not in SELECTOR_KINDS:
        raise ConfigError(f"unknown selector kind {kind!r}; expected one of {SELECTOR_KINDS}")
    if round_times is None:
        raise ValueError(f"{kind} needs per-client round times")
    if kind == "fedcs":
        return lambda pool, n, state, rng: select_fedcs(pool, n, fedcs, round_times, rng)
    tiers = assign_tiers(round_times, tifl.num_tiers)
    probs = tier_probabilities(tifl.num_tiers, tifl.ratio)
    if kind == "tifl":
        return lambda pool, n, state, rng: select_tifl(pool, n, tiers, probs, rng)
    return lambda pool, n, state, rng: select_tifl_mda(pool, n, tiers, probs, state, mda, rng)
