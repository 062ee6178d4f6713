"""Build a SelectorState from per-client lists, and read one client back.

The package writes its history only through update_history, as arrays over all
clients; the tests state histories per client. These helpers convert between
the two, and mda_raw_weight exposes one client's weight before normalization.
"""

from fedselsim.selectors import SelectorState, _raw_weights, update_history


def state_from_history(per_client, starts):
    """A state holding per_client[c] = (availability per round, failed rounds).

    The history is replayed through update_history, so it obeys the same
    rules: one availability entry per round start, and failures only at
    earlier rounds at which the client was available. The state's window is
    the whole history, so every round stays held.
    """
    failed_at = {}
    for c, (hist, fails) in enumerate(per_client):
        if len(hist) != len(starts):
            raise ValueError(
                f"client {c} has {len(hist)} availability entries for {len(starts)} rounds"
            )
        for i in fails:
            failed_at.setdefault(int(i), []).append(c)
    if any(i >= len(starts) - 1 for i in failed_at):
        raise ValueError("failures can only be recorded at rounds before the current one")
    state = SelectorState(len(per_client), max(2, len(starts)))
    for r, now in enumerate(starts):
        update_history(
            state, r, now, [hist[r] for hist, _ in per_client], failed_at.get(r - 1, [])
        )
    return state


def client_availability(state, c):
    """Whether client c was available at the start of each round begun (all still held)."""
    return [bool(state.ping(r)[c]) for r in range(state.current_round + 1)]


def client_failures(state, c):
    """Round indices at which client c was selected and then failed."""
    n = state._num_failures
    return state._fail_rounds[:n][state._fail_clients[:n] == c].tolist()


def mda_raw_weight(state, c, cfg):
    """Client c's MDA weight before normalization over the candidates."""
    return float(_raw_weights(state, [c], cfg)[0])
