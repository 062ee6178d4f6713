"""The numpy random streams that every report rests on, one pinned digest each.

Byte-identical reports need numpy's `Generator` to give the same values for
the same seed. NEP 19 does not promise that across numpy feature releases.
So each method and argument shape that `src/` calls is pinned here on its own,
and a numpy release that moves one stream fails the test named after that
method, where the golden hashes would only fail as a whole. The digests were
recorded with numpy 2.4.6. Two properties that the package's block draws rest
on are checked too: `normal` and `standard_exponential` fill an array in
pieces with the values of one call.
"""

import hashlib

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng


def digest(values) -> str:
    """The first 16 hex digits of the SHA-256 of the values' dtype and bytes."""
    values = np.ascontiguousarray(values)
    return hashlib.sha256(values.dtype.str.encode() + values.tobytes()).hexdigest()[:16]


def scalars(draw, count=8):
    """`count` scalar draws of one generator, as one array."""
    rng = default_rng(SeedSequence([11]))
    return np.array([draw(rng, i) for i in range(count)])


def exponential_rows():
    # traces._generate_rows: a block filled row by row from its own state.
    block = np.empty((3, 8))
    for seed, row in zip(SeedSequence(4).spawn(3), block):
        default_rng(seed).standard_exponential(out=row)
    return block


# method and argument shape -> (draw, digest); where src/ calls each is noted.
STREAMS = {
    # learning.draw_features: the class means, then the noise in blocks
    "normal(0.0, 1.0, size=(k, d))": (
        lambda: default_rng(7).normal(0.0, 1.0, size=(10, 64)),
        "2621f163c9723575",
    ),
    # learning.dirichlet_partition, one draw per class
    "dirichlet(np.full(n, alpha))": (
        lambda: default_rng(7).dirichlet(np.full(40, 0.3)),
        "d3872d28002d9941",
    ),
    # learning.local_train, seeded (run_seed, round_index, client)
    "permutation(n) of default_rng(tuple)": (
        lambda: default_rng((1, 2, 3)).permutation(50),
        "b0f34c46efac9edc",
    ),
    # traces.build_scenario, seeded by a spawned SeedSequence
    "permutation(n) of default_rng(spawned SeedSequence)": (
        lambda: default_rng(SeedSequence(3).spawn(3)[1]).permutation(60),
        "19e1b4dd6bb37302",
    ),
    # cost.generate_profiles: log-uniform rows between per-column bounds
    "uniform(lo, hi, size=(n, 3))": (
        lambda: default_rng(SeedSequence(3).spawn(3)[2]).uniform(
            np.log([0.02, 100.0, 100.0]), np.log([0.2, 1000.0, 1000.0]), size=(20, 3)
        ),
        "3add97d8da714b49",
    ),
    # selectors (weighted draw, tier draw) and a trace's start state
    "random()": (lambda: scalars(lambda rng, i: rng.random()), "7874f5bb79bac30e"),
    # selectors.weighted_sample_without_replacement, once weight runs out
    "integers(n)": (lambda: scalars(lambda rng, i: rng.integers(i + 1)), "cab3ff74fd410be6"),
    # traces._generate_rows: a row of a block, then a resumed block
    "standard_exponential(out=row)": (exponential_rows, "95c1d88ec1b2fc88"),
    "standard_exponential(k)": (
        lambda: default_rng(SeedSequence(4).spawn(1)[0]).standard_exponential(8),
        "f5ecf4ccdd5ee020",
    ),
}


@pytest.mark.parametrize("method", STREAMS)
def test_stream_is_pinned(method):
    draw, pinned = STREAMS[method]
    got = digest(draw())
    assert got == pinned, f"numpy {np.__version__} moved the stream of {method}: {got}"


def test_normal_fills_in_pieces_as_one_call():
    # learning.draw_features draws the noise in blocks of rows.
    whole = default_rng(5).normal(0.0, 1.0, size=(1000, 64))
    rng = default_rng(5)
    pieces = [rng.normal(0.0, 1.0, size=(rows, 64)) for rows in (1, 333, 2, 664)]
    assert np.concatenate(pieces).tobytes() == whole.tobytes(), "normal is not chunk-invariant"


def test_standard_exponential_fills_out_as_it_returns():
    # traces._generate_rows fills block rows with out= and resumes a trace by
    # drawing its block again; exponential(scale) is scale times it.
    rng = default_rng(9)
    row = np.empty(12)
    rng.standard_exponential(out=row[:5])
    rng.standard_exponential(out=row[5:])
    whole = default_rng(9).standard_exponential(12)
    assert row.tobytes() == whole.tobytes(), "standard_exponential(out=...) moved"
    scaled = default_rng(9).exponential(90.0, size=12)
    assert scaled.tobytes() == (90.0 * whole).tobytes(), "exponential(scale) moved"
