"""SeedSequence children's generator states, derived without spawning them."""

import numpy as np
import pytest

from fedselsim.seeding import spawned_states


ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**70 + 5, 2**128 + 1, (3, 4), [7, 2**40]]


@pytest.mark.parametrize("spawn_key", [(), (0,), (2, 5)])
@pytest.mark.parametrize("pool_size", [4, 8])
def test_spawned_states_equal_numpys_children(spawn_key, pool_size):
    for entropy in ENTROPIES + [None]:   # None draws the entropy from the OS
        parent = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        for first, children in ((0, parent.spawn(40)), (40, parent.spawn(7))):
            expected = [np.random.default_rng(child).bit_generator.state for child in children]
            assert list(spawned_states(parent, first, len(children))) == expected


def test_spawned_states_reject_an_index_of_two_words():
    parent = np.random.SeedSequence(3)
    with pytest.raises(ValueError, match="32-bit"):
        spawned_states(parent, 2**32 - 1, 2)
    assert parent.n_children_spawned == 0
    assert len(spawned_states(parent, 2**32 - 2, 2)) == 2
