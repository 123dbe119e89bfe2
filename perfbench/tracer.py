"""Outside-in span recorder for the sequential plane.

Spans wrap the callables a layer exposes (a ``HashSpace`` passed as
``space=``, the ring's ``owner_of``, ``SpillBuffer.emit``...), so the
program under test is not edited.  A span's *self time* is its duration
minus the durations of the spans opened inside it.  Aggregates (calls,
total, self) are kept per layer; per-block and per-spill spans are kept
in memory too and written out, as Chrome trace events, when the run ends.

Layer names follow ``src/repro`` module paths (``dht.ring.owner_of``,
``mapreduce.shuffle.emit``...) so an in-program tracer can reuse them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "instrument_sequential", "traced_space"]


class Tracer:
    """Nested spans with self-time subtraction, recorded in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self._stats: list[list[int]] = []  # per wrap: [calls, total ns, self ns]
        # Time covered by the child spans of the innermost open span; each
        # span saves its parent's value on entry and restores it, plus its
        # own duration, on exit.
        self._children = [0]
        # (layer index, start ns, duration ns) of every logged span.
        self.spans: list[tuple[int, int, int]] = []

    def wrap(self, name: str, fn: Callable, log: bool = False) -> Callable:
        """``fn`` with every call recorded as one span of layer ``name``.

        Every span counts towards its layer's aggregates; only layers
        wrapped with ``log`` (per-block and per-spill calls, not the
        per-pair ones) keep each span for the written trace.
        """
        idx = len(self.layers)
        stat = [0, 0, 0]
        self.layers.append(name)
        self._stats.append(stat)
        clock, children = self.clock, self._children
        spans = self.spans if log else None

        def traced(*args, **kwargs):
            parent = children[0]
            children[0] = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - children[0]
                children[0] = parent + dur
                if spans is not None:
                    spans.append((idx, t0, dur))

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """``{layer: {calls, total_s, self_s}}``."""
        out: dict[str, dict[str, float]] = {}
        for name, (calls, total, self_) in zip(self.layers, self._stats):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["total_s"] += total / 1e9
            agg["self_s"] += self_ / 1e9
        return out

    def named_self_s(self) -> float:
        """Self time of every span: the part of the wall clock the named
        layers account for."""
        return sum(stat[2] for stat in self._stats) / 1e9

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Aggregates plus the logged spans as Chrome trace events."""
        base = self.spans[0][1] if self.spans else 0
        events = [
            {"name": self.layers[idx], "ph": "X", "pid": 0, "tid": 0,
             "ts": (t0 - base) / 1e3, "dur": dur / 1e3}
            for idx, t0, dur in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "meta": meta, "layers": self.summary(),
            "traceEvents": events,
        }, indent=1))


@contextlib.contextmanager
def instrument_sequential(tracer: Tracer, rt, job, spill_sink: list | None = None):
    """Trace one ``EclipseMRRuntime`` ``rt`` and ``job``; yields the traced job.

    ``rt`` must have been built with a :func:`traced_space` as its
    ``space=``.  Instance attributes are patched on ``rt`` only;
    ``SpillBuffer``'s class attributes and the runtime module's
    ``combine_pairs`` are patched for the duration and restored on exit.
    Every delivered spill's pair list is appended to ``spill_sink`` when
    one is given.  A parent span's self time includes the cost of
    recording its children (``trace.overhead_frac`` measures the total).
    """
    from repro.mapreduce import runtime as runtime_module
    from repro.mapreduce.shuffle import SpillBuffer

    rt.dfs.ring.owner_of = tracer.wrap("dht.ring.owner_of", rt.dfs.ring.owner_of)
    rt.dfs.read_block = tracer.wrap("dfs.read_block", rt.dfs.read_block, log=True)
    # The runtime's own per-pair work: the map loop that feeds the spill
    # buffer, and the reduce phase's grouping of pushed pairs by key.
    rt._execute_map = tracer.wrap("mapreduce.runtime.map_loop", rt._execute_map, log=True)
    rt._run_reduce_phase = tracer.wrap(
        "mapreduce.runtime.group", rt._run_reduce_phase, log=True)
    for worker in rt.workers.values():
        store = worker.intermediates
        receive = store.receive
        if spill_sink is not None:
            def receive(job_id, spill_id, pairs, *args, _receive=receive, **kwargs):
                spill_sink.append(pairs)
                return _receive(job_id, spill_id, pairs, *args, **kwargs)
        store.receive = tracer.wrap("mapreduce.shuffle.receive", receive, log=True)
        store.pairs_for = tracer.wrap("mapreduce.shuffle.pairs_for", store.pairs_for, log=True)
    # One span per block: the map generator is drained into a list, so the
    # span holds the generator's own work and none of the emits the map
    # loop then drives (a span per pair would cost more than the work).
    map_fn = job.map_fn
    traced_job = dataclasses.replace(
        job,
        map_fn=tracer.wrap("apps.map_fn", lambda data: list(map_fn(data)), log=True),
        reduce_fn=tracer.wrap("apps.reduce_fn", job.reduce_fn),
        combiner=(tracer.wrap("apps.combine_fn", job.combiner)
                  if job.combiner is not None else None),
    )
    emit = SpillBuffer.__dict__["emit"]
    pair_size = SpillBuffer.__dict__["pair_size"]
    flush = SpillBuffer.__dict__["flush"]
    combine_pairs = runtime_module.combine_pairs
    SpillBuffer.emit = tracer.wrap("mapreduce.shuffle.emit", emit)
    SpillBuffer.pair_size = staticmethod(
        tracer.wrap("mapreduce.shuffle.pair_size", pair_size.__func__))
    SpillBuffer.flush = tracer.wrap("mapreduce.shuffle.flush", flush, log=True)
    # Grouping a spill's pairs for the combiner (per spill, at delivery).
    runtime_module.combine_pairs = tracer.wrap(
        "mapreduce.shuffle.combine_pairs", combine_pairs, log=True)
    try:
        yield traced_job
    finally:
        SpillBuffer.emit = emit
        SpillBuffer.pair_size = pair_size
        SpillBuffer.flush = flush
        runtime_module.combine_pairs = combine_pairs


def traced_space(tracer: Tracer, size: int):
    """A ``HashSpace`` of ``size`` whose ``key_of`` is traced."""
    from repro.common.hashing import HashSpace

    class TracedHashSpace(HashSpace):
        __slots__ = ()
        key_of = tracer.wrap("common.hashing.key_of", HashSpace.key_of)

    return TracedHashSpace(size)
