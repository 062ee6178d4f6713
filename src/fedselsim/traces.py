"""Client availability traces: synthesis, ingestion, ranking, and scenario building.

The synthesis knobs (TraceClassParams) are a config section, defined in `config`.
`trace_stats` gives a trace's (available fraction, flips per hour) pair, which is
`rank_traces`' sort key.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import SCENARIO_KINDS, TraceClassParams
from .errors import ConfigError, ParseError


@dataclass(frozen=True)
class AvailabilityTrace:
    """Piecewise-constant on/off timeline: a start state plus flip timestamps.

    A flip at timestamp tau takes effect for every query t >= tau.
    """

    start_available: bool
    transitions: tuple[float, ...]
    horizon_s: float

    def __post_init__(self):
        if not 0 < self.horizon_s < math.inf:
            raise ValueError(f"horizon_s must be finite and > 0, got {self.horizon_s}")
        prev = -1.0
        for t in self.transitions:
            if not 0.0 <= t <= self.horizon_s:
                raise ValueError(f"transition {t} outside [0, {self.horizon_s}]")
            if t <= prev:
                raise ValueError(f"transitions must be strictly increasing (at {t})")
            prev = t


def is_available(trace: AvailabilityTrace, t: float) -> bool:
    """State at time t: start state XOR parity of flips with timestamp <= t."""
    if not 0.0 <= t <= trace.horizon_s:
        raise ValueError(f"t={t} outside trace range [0, {trace.horizon_s}]")
    return bisect_right(trace.transitions, t) & 1 != trace.start_available


def next_flip(trace: AvailabilityTrace, t: float) -> float:
    """The first flip after t, or math.inf; like is_available, a flip at t holds at t."""
    i = bisect_right(trace.transitions, t)
    return trace.transitions[i] if i < len(trace.transitions) else math.inf


def trace_stats(trace: AvailabilityTrace) -> tuple[float, float]:
    """(available fraction in [0, 1], flips per hour) over [0, horizon).

    The fraction integrates the piecewise-constant state exactly.
    """
    up = 0.0
    state = trace.start_available
    prev = 0.0
    for t in trace.transitions:
        if state:
            up += t - prev
        state = not state
        prev = t
    if state:
        up += trace.horizon_s - prev
    return up / trace.horizon_s, len(trace.transitions) / (trace.horizon_s / 3600.0)


def rank_traces(traces: list[AvailabilityTrace]) -> list[int]:
    """Indices sorted worst-to-best: fraction ascending, then more flips first.

    Flappier traces rank worse on equal fraction; index breaks remaining ties.
    """
    if not traces:
        raise ValueError("cannot rank an empty trace list")
    stats = [trace_stats(tr) for tr in traces]
    return sorted(range(len(traces)), key=lambda i: (stats[i][0], -stats[i][1], i))


def _blocks(n: int) -> list[tuple[int, int]]:
    # Three equal contiguous blocks over the ranked list; middle block centered.
    b = n // 3
    mid_start = (n - b) // 2
    return [(0, b), (mid_start, mid_start + b), (n - b, n)]


def build_scenario(
    ranked: list[AvailabilityTrace],
    kind: str,
    num_clients: int,
    mix: tuple[float, ...],
    rng_seed: int,
) -> list[AvailabilityTrace]:
    """Draw per-client traces from the worst/middle/best thirds of a ranked pool.

    The major mix share comes from the first block for "low", the middle block for
    "average", the last block for "high". Counts: major = round(f * num_clients); the rest is
    split across the two minor blocks in proportion to their fractions (evenly when
    equal), integer remainder going to the later block. Draws are uniform without
    replacement inside each block. kind, num_clients and mix come from an
    already validated `config.ScenarioCfg`.
    """
    if len(ranked) < num_clients:
        raise ConfigError(
            f"scenario needs {num_clients} traces but only {len(ranked)} are available"
        )

    major_block = SCENARIO_KINDS.index(kind)
    minor_blocks = [b for b in range(3) if b != major_block]
    f_major = mix[0]
    f_minors = mix[1:]

    counts = [0, 0, 0]
    counts[major_block] = round(f_major * num_clients)
    remaining = num_clients - counts[major_block]
    minor_total = f_minors[0] + f_minors[1]
    if minor_total > 0:
        first_share = int(remaining * f_minors[0] / minor_total)
    else:
        first_share = remaining // 2
    counts[minor_blocks[0]] = first_share
    counts[minor_blocks[1]] = remaining - first_share

    rng = np.random.default_rng(rng_seed)
    assigned: list[AvailabilityTrace] = []
    for (start, end), count in zip(_blocks(len(ranked)), counts):
        size = end - start
        if count > size:
            raise ConfigError(
                f"scenario block [{start},{end}) holds {size} traces "
                f"but the mix requires {count}"
            )
        picks = rng.permutation(size)[:count]
        assigned.extend(ranked[start + int(i)] for i in picks)
    return assigned


# Largest number of durations drawn at once; bounds temporary memory on very
# long traces. Must be even so that each block starts in the same phase.
_MAX_BLOCK = 4096


def generate_trace(params: TraceClassParams, horizon_s: float, rng_seed) -> AvailabilityTrace:
    """Alternating exponential up/down durations from a Bernoulli start state.

    One `rng.random()` draws the start state. The durations then alternate
    between the current state's mean and the other's, and each flip lands at
    the running sum of the durations so far; the first sum that reaches
    `horizon_s` ends the trace.

    The durations are drawn in blocks, but the result is bit for bit that of
    drawing them one at a time with `t += rng.exponential(mean)`:
    `Generator.exponential(scale)` is `scale * standard_exponential()` on the
    same stream, so a block of `standard_exponential(k)` whose even and odd
    entries are scaled by the two means holds the same k durations;
    `cumsum` adds left to right as `t += d` does, starting from the running
    clock; and draws past the horizon come from this trace's own generator,
    which is then discarded. Blocks have even length, so the phase carries
    over from one block to the next.
    """
    if not 0 < horizon_s < math.inf:
        raise ValueError(f"horizon_s must be finite and > 0, got {horizon_s}")
    rng = np.random.default_rng(rng_seed)
    state = bool(rng.random() < params.start_available_prob)
    first, second = (
        (params.mean_up_s, params.mean_down_s) if state else (params.mean_down_s, params.mean_up_s)
    )
    # Size blocks to the expected flip count plus a margin, so most traces
    # need a single block; a short block only costs another round trip.
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
    return AvailabilityTrace(state, tuple(np.concatenate(blocks).tolist()), horizon_s)


def generate_pool(
    classes: list[TraceClassParams], pool_size: int, horizon_s: float, rng_seed
) -> list[AvailabilityTrace]:
    """Generate a pool mixing the given classes by weight (largest-remainder counts)."""
    if not classes:
        raise ConfigError("at least one trace class is required")
    total_w = sum(c.weight for c in classes)
    if total_w <= 0:
        raise ConfigError("trace class weights sum to zero")
    raw = [c.weight / total_w * pool_size for c in classes]
    counts = [int(x) for x in raw]
    leftovers = sorted(range(len(classes)), key=lambda i: (counts[i] - raw[i], i))
    for i in leftovers[: pool_size - sum(counts)]:
        counts[i] += 1

    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    seeds = rng_seed.spawn(pool_size)
    pool: list[AvailabilityTrace] = []
    k = 0
    for params, count in zip(classes, counts):
        for _ in range(count):
            pool.append(generate_trace(params, horizon_s, seeds[k]))
            k += 1
    return pool


def parse_trace_file(text: str) -> list[AvailabilityTrace]:
    """Parse the line-based trace format (see serialize_trace_file for the shape)."""
    horizon: float | None = None
    traces: list[AvailabilityTrace] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "!horizon":
            if horizon is not None:
                raise ParseError(f"line {lineno}: duplicate !horizon header")
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected '!horizon <seconds>'")
            try:
                horizon = float(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad horizon value {fields[1]!r}") from None
            if not 0 < horizon < math.inf:
                raise ParseError(f"line {lineno}: horizon must be finite and > 0, got {horizon}")
            continue
        if horizon is None:
            raise ParseError(f"line {lineno}: trace data before the !horizon header")
        if len(fields) < 2 or fields[1] not in ("0", "1"):
            raise ParseError(
                f"line {lineno}: expected '<client_id> <0|1> <t1> <t2> ...', got {line!r}"
            )
        if fields[0] in seen:
            raise ParseError(f"line {lineno}: duplicate client id {fields[0]!r}")
        seen.add(fields[0])
        try:
            times = tuple(float(v) for v in fields[2:])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric timestamp") from None
        try:
            traces.append(AvailabilityTrace(fields[1] == "1", times, horizon))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if horizon is None:
        raise ParseError("trace file has no !horizon header")
    return traces


def serialize_trace_file(traces: list[AvailabilityTrace]) -> str:
    """One `!horizon` header, then `<client_id> <0|1> <t1> <t2> ...` per trace."""
    if not traces:
        raise ValueError("cannot serialize an empty trace list")
    horizon = traces[0].horizon_s
    if any(tr.horizon_s != horizon for tr in traces):
        raise ValueError("all traces in one file must share a horizon")
    lines = [f"!horizon {horizon!r}"]
    for i, tr in enumerate(traces):
        parts = [f"c{i}", "1" if tr.start_available else "0"]
        parts.extend(repr(t) for t in tr.transitions)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
