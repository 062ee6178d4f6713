"""The generator states of SeedSequence children, derived without spawning them.

`spawned_states` gives what `default_rng(child).bit_generator.state` holds for
a run of `parent.spawn` children, in one vectorised pass over the children,
with no per-child `SeedSequence` or generator. `traces.generate_pool` seeds
its traces with it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# numpy's seeding of a spawned child, which `spawned_states` follows: the
# SeedSequence constants of numpy/random/bit_generator.pyx (`mix_entropy`'s
# hashmix and mix, then `generate_state`) and PCG64's 128-bit multiplier
# (PCG_DEFAULT_MULTIPLIER_128 in numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _words(value) -> list[int]:
    """An int, or a nested sequence of ints, as SeedSequence's uint32 words, low first."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [word for item in value for word in _words(item)]


def spawned_states(parent: np.random.SeedSequence, first: int, count: int) -> Sequence[dict]:
    """`default_rng(child).bit_generator.state` of children first, ..., first + count - 1.

    A child that `parent.spawn` hands out is seeded from its assembled entropy:
    the words of `parent.entropy`, zero-padded to the pool size (a child's
    spawn key is never empty), those of `parent.spawn_key`, then the child's
    index. Only that last word differs between children, so the pool is mixed
    from the others once, in Python ints, and the index is mixed in as one
    uint64 column per pool word, masked to 32 bits after each multiply, as the
    hash constants run through the same sequence for every child. Then comes
    `generate_state(4, uint64)`; PCG64's seeding step is taken as each state
    is read.
    """
    if first + count > 1 << 32:
        raise ValueError(f"child index {first + count - 1} takes more than one 32-bit word")
    size = parent.pool_size
    words = _words(parent.entropy)
    words += [0] * (size - len(words)) + _words(parent.spawn_key)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        value = ((_MIX_MULT_L * x & _MASK32) + (1 << 32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return value ^ value >> _XSHIFT

    pool = [hashmix(word) for word in words[:size]]
    for src in range(size):
        for dst in range(size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[size:]:
        for dst in range(size):
            pool[dst] = mix(pool[dst], hashmix(word))
    index = np.arange(first, first + count, dtype=np.uint64)
    pool = [mix(np.full(count, word, np.uint64), hashmix(index)) for word in pool]

    hash_const, state = _INIT_B, []
    for dst in range(8):   # four uint64, each two uint32 words, low first
        value = pool[dst % size] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    return _PCG64States(np.stack([state[2 * j] | state[2 * j + 1] << 32 for j in range(4)], axis=1))


class _PCG64States(Sequence):
    """PCG64 state dicts, each made when it is read from its four uint64 seed words.

    Made all at once, the dicts of a piece of a pool raised `build_world`'s
    peak RSS at N = 5 000 from 87 to 91 MiB; made as they are read, it is 86.
    """

    def __init__(self, words: np.ndarray):
        self._words = words   # a row per child: seed high, seed low, sequence high, low

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i) -> dict:
        # PCG64's `pcg64_set_seed` and `srandom_r`, in 128-bit arithmetic
        hi, lo, inc_hi, inc_lo = self._words[i].tolist()
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128
        return {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
