"""In-memory spans around fedselsim's public functions, recorded from outside.

The benchmark does not change the program. It replaces, for the length of a
``with instrument(tracer):`` block, each traced function by a wrapper under the
name its caller looks it up by, and restores the originals on exit:

- ``engine`` imports ``is_available``, ``update_history``, ``make_selector``,
  ``generate_pool``, ``rank_traces``, ``build_scenario``, ``generate_profiles``
  and ``round_time`` into its own namespace, and calls its own ``run_round``
  by global name, so those are patched on ``engine``;
- ``engine`` calls ``learning.<name>`` through the module, so those are
  patched on ``learning``;
- the selector closures call ``mda_weights`` and
  ``weighted_sample_without_replacement`` by global name in ``selectors``;
- the function ``make_selector`` returns is wrapped as one
  ``selectors.select`` span per call.

A span record is ``[id, parent_id, name, start, end, calls, busy_s, child_s,
attrs]``. ``busy_s`` is the time spent inside the call and ``child_s`` the part
of it covered by child spans, so self time is ``busy_s - child_s``. Children of
one span run one after another on one thread, so their busy times never
overlap and sum to the time they cover.

``is_available`` (N calls a round) and ``round_time`` (N calls a world build)
are *folded*: consecutive calls under the same parent extend one record,
whose ``calls`` counts them and whose ``busy_s`` sums their durations while
``start``/``end`` span the whole run of calls. This keeps one record per round
instead of N, which keeps a traced study small in memory.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from fedselsim import engine, learning, selectors

ID, PARENT, NAME, START, END, CALLS, BUSY, CHILD, ATTRS = range(9)


class Tracer:
    """Span records of one traced region, kept in memory until written out."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[list] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recorded as one span per call; ``attrs(args, result)`` annotates it."""
        records, stack = self.records, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(records), parent[ID] if parent else -1, name,
                   perf_counter(), 0.0, 1, 0.0, 0.0, None]
            records.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[END] = end
                rec[BUSY] = end - rec[START]
                if parent is not None:
                    parent[CHILD] += rec[BUSY]
            if attrs is not None:
                rec[ATTRS] = attrs(args, result)
            return result

        return traced

    def wrap_folded(self, name: str, fn):
        """``fn`` recorded with consecutive calls under one parent folded together."""
        records, stack = self.records, self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            end = perf_counter()
            parent = stack[-1] if stack else None
            parent_id = parent[ID] if parent else -1
            last = records[-1] if records else None
            if last is not None and last[NAME] == name and last[PARENT] == parent_id:
                last[END] = end
                last[CALLS] += 1
                last[BUSY] += end - start
            else:
                records.append([len(records), parent_id, name, start, end, 1, end - start, 0.0, None])
            if parent is not None:
                parent[CHILD] += end - start
            return result

        return traced

    def by_name(self, name: str) -> list[list]:
        return [rec for rec in self.records if rec[NAME] == name]

    def calls(self, name: str) -> int:
        return sum(rec[CALLS] for rec in self.by_name(name))

    def busy(self, name: str) -> float:
        return sum(rec[BUSY] for rec in self.by_name(name))

    def self_time(self, name: str) -> float:
        return sum(rec[BUSY] - rec[CHILD] for rec in self.by_name(name))

    def write_jsonl(self, fh, label: str) -> None:
        """One JSON object per record, times relative to the first record's start."""
        origin = self.records[0][START] if self.records else 0.0
        for rec in self.records:
            fh.write(json.dumps({
                "region": label,
                "id": rec[ID],
                "parent": rec[PARENT],
                "name": rec[NAME],
                "start_s": rec[START] - origin,
                "end_s": rec[END] - origin,
                "calls": rec[CALLS],
                "busy_s": rec[BUSY],
                "self_s": rec[BUSY] - rec[CHILD],
                "attrs": rec[ATTRS],
            }) + "\n")


def _train_attrs(args, result):
    # local_train(global_params, features, labels, classes_k, epochs, ...)
    return {"rows": int(args[4]) * len(args[2]), "empty": len(args[2]) == 0}


def _traced_make_selector(tracer: Tracer, make_selector):
    def make(kind, **kwargs):
        return tracer.wrap(
            "selectors.select",
            make_selector(kind, **kwargs),
            lambda args, picked: {"kind": kind, "pool": len(args[0]), "picked": len(picked)},
        )

    return make


@contextmanager
def instrument(tracer: Tracer):
    """Route the program's calls through ``tracer`` inside the block."""
    patches = [
        (engine, "is_available", tracer.wrap_folded("traces.is_available", engine.is_available)),
        (engine, "generate_pool", tracer.wrap("traces.generate_pool", engine.generate_pool)),
        (engine, "rank_traces", tracer.wrap("traces.rank_traces", engine.rank_traces)),
        (engine, "build_scenario", tracer.wrap("traces.build_scenario", engine.build_scenario)),
        (engine, "generate_profiles",
         tracer.wrap("cost.generate_profiles", engine.generate_profiles)),
        (engine, "round_time", tracer.wrap_folded("cost.round_time", engine.round_time)),
        (engine, "update_history",
         tracer.wrap("selectors.update_history", engine.update_history)),
        (engine, "make_selector", _traced_make_selector(tracer, engine.make_selector)),
        (engine, "run_round", tracer.wrap("engine.run_round", engine.run_round)),
        (selectors, "mda_weights", tracer.wrap("selectors.mda_weights", selectors.mda_weights)),
        (selectors, "weighted_sample_without_replacement",
         tracer.wrap("selectors.weighted_sample_without_replacement",
                     selectors.weighted_sample_without_replacement)),
        (learning, "make_dataset", tracer.wrap("learning.make_dataset", learning.make_dataset)),
        (learning, "dirichlet_partition",
         tracer.wrap("learning.dirichlet_partition", learning.dirichlet_partition)),
        (learning, "local_train",
         tracer.wrap("learning.local_train", learning.local_train, _train_attrs)),
        (learning, "fedavg", tracer.wrap("learning.fedavg", learning.fedavg)),
        (learning, "evaluate", tracer.wrap("learning.evaluate", learning.evaluate)),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
