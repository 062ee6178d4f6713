"""Client availability traces: synthesis, ingestion, ranking, and scenario building.

A pool of traces is one `TraceTable`: a start state per trace, int64 offsets and
every flip in one float64 array. `generate_pool` draws it class by class and
`parse_trace_file` reads it from a trace file; `serialize_trace_file` writes it
back. `rank_traces` orders it by each trace's (available fraction, flips per
hour), `build_scenario` picks the clients' traces and `TraceTable.take` cuts
them into a table of their own. The synthesis knobs (TraceClassParams) are a
config section, defined in `config`.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .config import SCENARIO_KINDS, TraceClassParams
from .errors import ConfigError, ParseError
from .seeding import spawned_states

# Largest number of durations drawn at once for one trace; bounds temporary
# memory on very long traces. Must be even so that each block starts in the
# same phase.
_MAX_BLOCK = 4096

# Elements of one temporary (traces x width) block of the table code, so that
# large pools are worked through in pieces of about 512 KiB.
_BLOCK_ELEMENTS = 1 << 16


def _check_horizon(horizon_s: float) -> None:
    if not 0 < horizon_s < math.inf:
        raise ValueError(f"horizon_s must be finite and > 0, got {horizon_s}")


class _FlipError(ValueError):
    """A flip that breaks the table's rules; `index` is its place in the flips array."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check_flips(flips: np.ndarray, horizon_s: float, offsets: np.ndarray) -> None:
    """Raise _FlipError at the first flip outside [0, horizon_s] or not above the one before it.

    `offsets` splits `flips` into traces; a trace's first flip has nothing
    before it. The message is that of the first failing flip in order, as a
    flip-by-flip check would raise it (`loop_check_trace` in `tests/oracles.py`).
    """
    _check_horizon(horizon_s)
    ok = flips >= 0.0   # False for NaN
    ok &= flips <= horizon_s
    rising = flips[1:] > flips[:-1]
    firsts = offsets[1:-1]
    rising[firsts[(firsts > 0) & (firsts < len(flips))] - 1] = True
    ok[1:] &= rising
    if ok.all():
        return
    i = int(np.argmin(ok))
    t = flips[i].item()
    if not 0.0 <= t <= horizon_s:
        raise _FlipError(f"transition {t} outside [0, {horizon_s}]", i)
    raise _FlipError(f"transitions must be strictly increasing (at {t})", i)


@dataclass(frozen=True)
class AvailabilityTrace:
    """One row of a checked TraceTable: a start state plus flip timestamps.

    The timeline is piecewise constant; a flip at timestamp tau takes effect
    for every query t >= tau. The package makes rows only in
    `TraceTable.__getitem__`, so a row is not checked again.
    """

    start_available: bool
    transitions: tuple[float, ...]
    horizon_s: float


@dataclass(frozen=True, eq=False)
class TraceTable:
    """A pool of traces sharing one horizon, as arrays.

    Trace i starts in state `start[i]` and flips at
    `flips[offsets[i]:offsets[i + 1]]`. Building a table checks every flip in
    one pass and then makes the three arrays read-only. Item i is trace i as
    an AvailabilityTrace row.
    """

    start: np.ndarray     # bool, one per trace
    offsets: np.ndarray   # int64, len(start) + 1
    flips: np.ndarray     # float64, offsets[-1]
    horizon_s: float

    def __post_init__(self):
        _check_flips(self.flips, self.horizon_s, self.offsets)
        for array in (self.start, self.offsets, self.flips):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, i) -> AvailabilityTrace:
        i = range(len(self))[operator.index(i)]
        flips = self.flips[self.offsets[i] : self.offsets[i + 1]]
        return AvailabilityTrace(bool(self.start[i]), tuple(flips.tolist()), self.horizon_s)

    def take(self, indices) -> TraceTable:
        """A new table of the traces at `indices`, in that order (repeats allowed)."""
        # Views of the rows, joined once: no index array as long as the flips.
        indices = np.asarray(indices, np.int64)
        lo, hi = self.offsets[:-1][indices].tolist(), self.offsets[1:][indices].tolist()
        rows = [self.flips[a:b] for a, b in zip(lo, hi)]
        offsets = np.cumsum([0, *map(len, rows)], dtype=np.int64)
        flips = np.concatenate([np.empty(0), *rows])
        return TraceTable(self.start[indices], offsets, flips, self.horizon_s)


def is_available(trace: AvailabilityTrace, t: float) -> bool:
    """State at time t: start state XOR parity of flips with timestamp <= t."""
    if not 0.0 <= t <= trace.horizon_s:
        raise ValueError(f"t={t} outside trace range [0, {trace.horizon_s}]")
    return bisect_right(trace.transitions, t) & 1 != trace.start_available


def next_flip(trace: AvailabilityTrace, t: float) -> float:
    """The first flip after t, or math.inf; like is_available, a flip at t holds at t."""
    i = bisect_right(trace.transitions, t)
    return trace.transitions[i] if i < len(trace.transitions) else math.inf


def _table_stats(table: TraceTable) -> tuple[np.ndarray, np.ndarray]:
    """Each trace's (available fraction, flips per hour) over [0, horizon).

    The up time adds the trace's up segments left to right, as a flip-by-flip
    walk does (`loop_trace_stats` in `tests/oracles.py`), so the pair is bit
    for bit the walk's. The traces are worked through widest first, in blocks
    of rows of about the same width (`_up_times`).
    """
    counts = np.diff(table.offsets)
    up = np.empty(len(counts))
    widest_first = np.argsort(-counts, kind="stable")
    lo = 0
    while lo < len(counts):
        width = 2 * (int(counts[widest_first[lo]]) // 2 + 1)   # >= its flips + 1 for either start
        rows = widest_first[lo : lo + max(1, _BLOCK_ELEMENTS // 2 // width)]
        up[rows] = _up_times(table, rows, counts[rows], width)
        lo += len(rows)
    return up / table.horizon_s, counts / (table.horizon_s / 3600.0)


def _up_times(table: TraceTable, rows: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """The up time of each trace in `rows`, which hold `counts` flips, none over `width` - 1.

    The traces are laid out as padded rows of `width` (even) edges: a 0.0 if
    the trace starts up, its flips, then the horizon repeated. Each pair of
    columns (2k, 2k + 1) is then one up segment, computed as the walk computes
    it, and padding adds segments of 0.0, which change no sum; `cumsum` along
    a row's pairs gives its up time. The rows hold an index, then an edge, per
    element, so a block of half `_BLOCK_ELEMENTS` elements takes about 512 KiB.
    """
    cols = np.arange(width)
    shift = table.start[rows]   # a row that starts up reads 0.0 first
    at = table.offsets[rows, None] - shift[:, None] + cols
    # Indices before a table's first flip or past its last are clipped; every
    # entry they give is overwritten below.
    edges = table.flips.take(at, mode="clip") if len(table.flips) else np.zeros(at.shape)
    del at
    edges[cols >= (counts + shift)[:, None]] = table.horizon_s   # past the last flip
    edges[shift, 0] = 0.0
    segments = np.subtract(edges[:, 1::2], edges[:, 0::2], out=edges[:, 1::2])
    return segments.cumsum(axis=1, out=segments)[:, -1]


def rank_traces(table: TraceTable) -> np.ndarray:
    """Indices sorted worst-to-best: fraction ascending, then more flips first.

    Flappier traces rank worse on equal fraction; index breaks remaining ties.
    """
    if not len(table):
        raise ValueError("cannot rank an empty trace table")
    fraction, rate = _table_stats(table)
    return np.lexsort((np.arange(len(table)), -rate, fraction))


def _blocks(n: int) -> list[tuple[int, int]]:
    # Three equal contiguous blocks over the ranked list; middle block centered.
    b = n // 3
    mid_start = (n - b) // 2
    return [(0, b), (mid_start, mid_start + b), (n - b, n)]


def build_scenario(
    ranked: np.ndarray, kind: str, num_clients: int, mix: tuple[float, ...], rng_seed
) -> np.ndarray:
    """Draw per-client trace indices from the worst/middle/best thirds of a ranked pool.

    `ranked` holds the pool's trace indices in rank order (`rank_traces`); the
    picked indices come back as one int64 array. The major mix share comes
    from the first block for "low", the middle block for "average", the last
    block for "high". Counts: major = round(f * num_clients); the rest is
    split across the two minor blocks in proportion to their fractions (evenly
    when equal), integer remainder going to the later block. Draws are uniform
    without replacement inside each block. kind, num_clients and mix come from
    an already validated `config.ScenarioCfg`.
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
    assigned = []
    for (start, end), count in zip(_blocks(len(ranked)), counts):
        size = end - start
        if count > size:
            raise ConfigError(
                f"scenario block [{start},{end}) holds {size} traces "
                f"but the mix requires {count}"
            )
        assigned.append(ranked[start:end][rng.permutation(size)[:count]])
    return np.concatenate(assigned)


def _block_width(params: TraceClassParams, horizon_s: float) -> int:
    # The expected flip count plus a margin, so most traces need a single
    # block; a short block only costs another round trip. An infinite horizon
    # would never end a trace.
    _check_horizon(horizon_s)
    expected = min(float(_MAX_BLOCK), 2.0 * horizon_s / (params.mean_up_s + params.mean_down_s))
    return min(_MAX_BLOCK, 2 * (int(expected + 3.0 * expected**0.5) // 2 + 4))


def _generate_rows(params: TraceClassParams, horizon_s: float, states: Sequence[dict]):
    """One trace of one class per generator state: start states, flip counts, flips in trace order.

    `states` hold what `bit_generator.state` returns, all of one kind of bit
    generator; one generator is set to each in turn. One `random()` draws the
    trace's start state; its durations then alternate between the current
    state's mean and the other's, and each flip lands at the running sum of the
    durations so far; the first sum that reaches `horizon_s` ends the trace.

    The durations are drawn in blocks of k per trace, but the result is bit for
    bit that of drawing them one at a time with `t += rng.exponential(mean)`
    from a generator in that state (`loop_generate_trace` in `tests/oracles.py`):
    `Generator.exponential(scale)` is `scale * standard_exponential()` on the
    same stream, so a row of `standard_exponential` whose even and odd entries
    are scaled by the trace's two means holds the same k durations; `cumsum`
    along the row adds left to right as `t += d` does, starting from the
    running clock; and draws past the horizon are the trace's own, which no
    other trace reads. k is even, so the phase carries over from one block to
    the next, and it depends only on the class, so the rows of many traces form
    one (rows x k) block. Only the traces that fill a block draw another, each
    from its own state after its blocks so far. After the first block that
    state is found by drawing the block again, since few rows fill one;
    reading `bit_generator.state` after every row would cost more.
    """
    k = _block_width(params, horizon_s)
    # PCG64, unless the states are of another kind of bit generator
    rng = np.random.Generator(getattr(np.random, states[0]["bit_generator"])(0))
    bitgen = rng.bit_generator
    block = np.empty((len(states), k))
    start = []
    for state, row in zip(states, block):
        bitgen.state = state
        start.append(rng.random() < params.start_available_prob)
        rng.standard_exponential(out=row)
    start = np.array(start, dtype=bool)
    first = np.where(start, params.mean_up_s, params.mean_down_s)[:, None]
    second = np.where(start, params.mean_down_s, params.mean_up_s)[:, None]
    counts = np.zeros(len(states), np.int64)
    rounds = []   # (rows, their flip counts, their flips) of each round of blocks
    rows, clock, resume = np.arange(len(states)), 0.0, None
    while True:
        block[:, 0::2] *= first[rows]
        block[:, 1::2] *= second[rows]
        block[:, 0] += clock
        block.cumsum(axis=1, out=block)
        cut = np.count_nonzero(block < horizon_s, axis=1)
        rounds.append((rows, cut, block[np.arange(k) < cut[:, None]]))
        counts[rows] += cut
        full = cut == k
        if not full.any():
            break
        rows, clock = rows[full], block[full, -1]
        if resume is None:
            resume = []
            for i in rows.tolist():
                bitgen.state = states[i]
                rng.random()
                rng.standard_exponential(k)
                resume.append(bitgen.state)
        else:
            resume = list(compress(resume, full))
        block = np.empty((len(rows), k))
        for j, row in enumerate(block):
            bitgen.state = resume[j]
            rng.standard_exponential(out=row)
            resume[j] = bitgen.state
    if len(rounds) == 1:
        return start, counts, rounds[0][2]
    # Round j holds each of its rows' flips from j * k on.
    offsets = np.cumsum(counts) - counts
    flips = np.empty(counts.sum())
    for j, (rows, cut, part) in enumerate(rounds):
        begin = offsets[rows] + j * k
        flips[np.repeat(begin - (np.cumsum(cut) - cut), cut) + np.arange(len(part))] = part
    return start, counts, flips


def generate_pool(
    classes: list[TraceClassParams], pool_size: int, horizon_s: float, rng_seed
) -> TraceTable:
    """Generate a pool mixing the given classes by weight (largest-remainder counts).

    Trace i is drawn by `_generate_rows` for its class from the state of
    `default_rng` of the i-th seed that `rng_seed.spawn` would hand out next;
    the classes fill the pool in order.
    The seeds' generator states are derived piece by piece
    (`seeding.spawned_states`), so `rng_seed` spawns nothing: its
    `n_children_spawned` is left as it was.
    """
    if not classes:
        raise ConfigError("at least one trace class is required")
    total_w = sum(c.weight for c in classes)
    if total_w <= 0:
        raise ConfigError("trace class weights sum to zero")
    if pool_size < 1:
        raise ConfigError(f"pool_size must be >= 1, got {pool_size}")
    raw = [c.weight / total_w * pool_size for c in classes]
    counts = [int(x) for x in raw]
    leftovers = sorted(range(len(classes)), key=lambda i: (counts[i] - raw[i], i))
    for i in leftovers[: pool_size - sum(counts)]:
        counts[i] += 1

    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    child = rng_seed.n_children_spawned
    starts, sizes, flips = [], [], np.empty(0)
    for params, count in zip(classes, counts):
        step = max(1, _BLOCK_ELEMENTS // _block_width(params, horizon_s))
        for i in range(0, count, step):
            n = min(step, count - i)
            states = spawned_states(rng_seed, child, n)
            child += n
            start, size, part = _generate_rows(params, horizon_s, states)
            # Each piece's flips go straight into the one buffer, grown in place.
            filled = len(flips)
            flips.resize(filled + len(part), refcheck=False)
            flips[filled:] = part
            starts.append(start)
            sizes.append(size)
    offsets = np.zeros(pool_size + 1, np.int64)
    np.cumsum(np.concatenate(sizes), out=offsets[1:])
    return TraceTable(np.concatenate(starts), offsets, flips, horizon_s)


def parse_trace_file(lines: Iterable[str]) -> TraceTable:
    """Parse the line-based trace format (see serialize_trace_file) into one table.

    `lines` may be an open text file, which is then read one line at a time.
    The lines are scanned in order, and a line that breaks the syntax (the
    header, a start state, a non-numeric value, a duplicate id) raises at
    once. The table then checks every flip in one pass, and its first faulty
    flip is reported at the line of its trace. So in a file with both kinds of
    fault, a syntax fault is reported before a flip fault on an earlier line.
    """
    horizon: float | None = None
    starts, counts, flips, linenos = [], [], array("d"), []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
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
            flips.extend(map(float, fields[2:]))
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric timestamp") from None
        starts.append(fields[1] == "1")
        counts.append(len(fields) - 2)
        linenos.append(lineno)
    if horizon is None:
        raise ParseError("trace file has no !horizon header")
    offsets = np.cumsum([0, *counts], dtype=np.int64)
    try:
        return TraceTable(np.array(starts, bool), offsets, np.frombuffer(flips), horizon)
    except _FlipError as exc:
        trace = int(np.searchsorted(offsets, exc.index, side="right")) - 1
        raise ParseError(f"line {linenos[trace]}: {exc}") from None


def serialize_trace_file(table: TraceTable) -> Iterator[str]:
    """The lines of the table's trace file, each made as it is read.

    One `!horizon` header, then `<client_id> <0|1> <t1> <t2> ...` per trace,
    each ending in a newline: `fh.writelines(serialize_trace_file(table))`
    writes the file one line at a time. An empty table raises at the call.
    """
    if not len(table):
        raise ValueError("cannot serialize an empty trace table")
    flips, bounds = table.flips, table.offsets.tolist()
    traces = (
        " ".join([f"c{i}", "1" if start else "0", *map(repr, flips[lo:hi].tolist())]) + "\n"
        for i, (start, lo, hi) in enumerate(zip(table.start.tolist(), bounds, bounds[1:]))
    )
    return chain([f"!horizon {table.horizon_s!r}\n"], traces)
