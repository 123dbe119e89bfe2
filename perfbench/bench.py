"""The benchmark's workloads, drivers and metrics.

Each run builds its input from the seed, sets a 4-worker cluster up
``SETUP_REPEATS`` times (keeping the last) and measures for the requested
seconds, alternating slices of a closed loop of jobs on that cluster with
slices of the same job on the sequential plane.  Every job's output is
checked against a reference computed by :mod:`perfbench.corpus`;
sequential and cluster outputs and ``tasks_per_server`` must agree too.
A traced run (``trace=True``) also times each layer from outside (see
:mod:`perfbench.tracer`) and reports per-layer metrics instead of
end-to-end ones.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench import corpus
from perfbench.measure import (
    cpu_seconds, median, tail_percentile, trimmed_mean, vm_hwm_mb,
)
from perfbench.tracer import Tracer, instrument_sequential, traced_space
from repro.apps.grep import grep_job
from repro.apps.sort_app import sort_job
from repro.apps.wordcount import wordcount_job
from repro.cluster import messages
from repro.cluster.runtime import ClusterRuntime
from repro.common.config import ClusterConfig, DFSConfig
from repro.common.hashing import DEFAULT_SPACE
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import EclipseMRRuntime

__all__ = ["SPECS", "run_workload"]

MB = 1 << 20
BLOCK_SIZE = 1 * MB
WORKERS = [f"worker-{i}" for i in range(4)]
INPUT = "perfbench-input"
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 60.0
PINGS = 400
CODEC_MIN_S = 0.25
CYCLE_S = 5.0


def cluster_config() -> ClusterConfig:
    return ClusterConfig(dfs=DFSConfig(block_size=BLOCK_SIZE))


@dataclass
class Inputs:
    data: bytes
    refs: dict[str, Counter]  # job key -> reference output
    properties: dict[str, Any]


@dataclass
class Spec:
    """One workload: its input, its jobs, how it is driven."""

    name: str
    blocks: int
    clients: int
    seq_share: float  # of each CYCLE_S, for the sequential plane
    build: Callable[[int], Inputs]
    job: Callable[[str], MapReduceJob]

    def job_key(self, keys: list[str], client: int, i: int) -> str:
        return keys[(client * len(keys) // self.clients + i) % len(keys)]


def _keyed_properties(ref: Counter, blocks: int) -> dict[str, Any]:
    return {"distinct_keys": len(ref), "pairs_emitted": sum(ref.values()),
            "blocks": blocks, "blocks_per_worker": blocks / len(WORKERS)}


def _build_wordcount(seed: int) -> Inputs:
    data, ref = corpus.zipf_text(seed, SPECS["wordcount-zipf"].blocks, BLOCK_SIZE)
    return Inputs(data, {"wordcount": ref},
                  _keyed_properties(ref, SPECS["wordcount-zipf"].blocks))


def _build_sort(seed: int) -> Inputs:
    data, ref = corpus.unique_records(seed, SPECS["sort-unique"].blocks, BLOCK_SIZE)
    return Inputs(data, {"sort": ref}, _keyed_properties(ref, SPECS["sort-unique"].blocks))


def _build_grep(seed: int) -> Inputs:
    blocks = SPECS["grep-stream"].blocks
    data, patterns = corpus.grep_corpus(seed, blocks, BLOCK_SIZE)
    refs = {p: corpus.grep_reference(data, p) for p in patterns}
    lines = blocks * (BLOCK_SIZE // corpus.LINE_BYTES)
    matched = [sum(ref.values()) for ref in refs.values()]
    return Inputs(data, refs, {
        "patterns": len(patterns), "lines": lines,
        "matched_lines_per_job": sum(matched) / len(matched),
        "grep_selectivity": sum(matched) / len(matched) / lines,
        "blocks": blocks, "blocks_per_worker": blocks / len(WORKERS)})


SPECS: dict[str, Spec] = {
    spec.name: spec for spec in (
        Spec("wordcount-zipf", blocks=12, clients=1, seq_share=0.5,
             build=_build_wordcount, job=lambda key: wordcount_job(INPUT)),
        Spec("sort-unique", blocks=11, clients=1, seq_share=0.4,
             build=_build_sort, job=lambda key: sort_job(INPUT)),
        Spec("grep-stream", blocks=12, clients=2, seq_share=0.25,
             build=_build_grep, job=lambda key: grep_job(INPUT, key)),
    )
}


@dataclass
class Ledger:
    """Jobs attempted and what went wrong, across both planes."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, what: str, error: str | None) -> None:
        with self._lock:
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{what}: {error}")

    def check(self, what: str, result, ref: Counter) -> None:
        self.record(what, corpus.check_output(result.output, ref))


# -- cluster plane ---------------------------------------------------------------------


def _submit(rt: ClusterRuntime, job: MapReduceJob):
    """Submit and wait at most ``JOB_TIMEOUT_S``; a hang becomes an error."""
    handle = rt.submit(job)
    try:
        return handle, handle.result(timeout=JOB_TIMEOUT_S)
    except TimeoutError:
        handle.cancel()
        raise


def _setup(spec: Spec, inputs: Inputs, ledger: Ledger):
    """Start a cluster, upload the input, run one untimed warm-up job.

    Returns ``(runtime, timings, warm-up result)``; the caller owns the
    runtime and must shut it down.
    """
    key = next(iter(inputs.refs))
    gc.collect()
    t0 = time.perf_counter()
    rt = ClusterRuntime(WORKERS, cluster_config())
    try:
        t1 = time.perf_counter()
        rt.upload(INPUT, inputs.data)
        t2 = time.perf_counter()
        _, first = _submit(rt, spec.job(key))
        t3 = time.perf_counter()
    except BaseException:
        rt.shutdown()
        raise
    ledger.check(f"cluster warm-up {key}", first, inputs.refs[key])
    return rt, {"setup_s": t3 - t0, "start_s": t1 - t0, "upload_s": t2 - t1}, first


def _worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()
            if p.name.startswith("eclipsemr-")]


def _scheduler_tid() -> int:
    for thread in threading.enumerate():
        if thread.name == "job-scheduler":
            return thread.native_id
    raise RuntimeError("no job-scheduler thread")


@dataclass
class Loop:
    """What the cluster slices of a run measured, summed over the slices."""

    latencies: list[float] = field(default_factory=list)
    handle_metrics: list[dict] = field(default_factory=list)
    wall: float = 0.0
    sched_cpu: float = 0.0
    worker_cpu: float = 0.0
    coordinator_cpu: float = 0.0
    stats0: dict = field(default_factory=dict)
    stats1: dict = field(default_factory=dict)
    submitted: Counter = field(default_factory=Counter)  # client -> jobs


def _cluster_slice(rt: ClusterRuntime, spec: Spec, inputs: Inputs, until: float,
                   loop: Loop, ledger: Ledger) -> bool:
    """``spec.clients`` threads, each submitting its next job only after
    the previous one returned, until ``until``; the slice ends when the
    last job in flight has returned.  Returns False if a job failed."""
    keys = list(inputs.refs)
    client_cpu: list[float] = []
    lock = threading.Lock()
    ok = True
    pids = _worker_pids()
    sched_tid = _scheduler_tid()
    worker_cpu0 = sum(cpu_seconds(pid) for pid in pids)
    sched_cpu0 = cpu_seconds(tid=sched_tid)
    proc_cpu0 = cpu_seconds()
    start = time.perf_counter()

    def client(c: int) -> None:
        nonlocal ok
        cpu0 = time.thread_time()
        try:
            while ok and time.perf_counter() < until:
                i = loop.submitted[c]
                loop.submitted[c] += 1
                key = spec.job_key(keys, c, i)
                what = f"cluster client {c} job {i} {key}"
                t0 = time.perf_counter()
                try:
                    handle, result = _submit(rt, spec.job(key))
                except TimeoutError:
                    ledger.record(what, f"timed out after {JOB_TIMEOUT_S}s")
                    ok = False
                    return
                except Exception as exc:  # counted, reported, run fails
                    ledger.record(what, f"raised {exc!r}")
                    ok = False
                    return
                latency = time.perf_counter() - t0
                ledger.check(what, result, inputs.refs[key])
                with lock:
                    loop.latencies.append(latency)
                    loop.handle_metrics.append(handle.metrics())
        finally:
            with lock:
                client_cpu.append(time.thread_time() - cpu0)

    threads = [threading.Thread(target=client, args=(c,), name=f"bench-client-{c}")
               for c in range(spec.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loop.wall += time.perf_counter() - start
    loop.coordinator_cpu += cpu_seconds() - proc_cpu0 - sum(client_cpu)
    loop.sched_cpu += cpu_seconds(tid=sched_tid) - sched_cpu0
    loop.worker_cpu += sum(cpu_seconds(pid) for pid in pids) - worker_cpu0
    return ok


def _ping_p50_us(rt: ClusterRuntime) -> float:
    addrs = [rt.coordinator.address_of(wid).addr for wid in rt.worker_ids]
    samples = []
    for i in range(PINGS):
        t0 = time.perf_counter()
        rt.coordinator.pool.call(addrs[i % len(addrs)], "ping")
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e6


def _stat_deltas(loop: Loop) -> dict[str, float]:
    s0, s1 = loop.stats0, loop.stats1
    jobs = max(1, len(loop.latencies))

    def delta(name: str, wid: str) -> float:
        return s1.get(wid, {}).get(name, 0) - s0.get(wid, {}).get(name, 0)

    def total(name: str) -> float:
        return sum(delta(name, wid) for wid in s1)

    out = {f"worker.{name}": total(f"worker.{name}") / jobs for name in (
        "spills_out", "local_spills", "bytes_shuffled_out", "remote_block_reads",
        "reduces_streamed", "stale_spills_rejected")}
    hits, misses = total("icache_hits"), total("icache_misses")
    out["worker.icache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    maps = [delta("worker.maps_run", wid) for wid in s1]
    out["worker.maps_run_max_share"] = max(maps) / sum(maps) if sum(maps) else 0.0
    return out


# -- sequential plane ------------------------------------------------------------------


def _seq_run(spec: Spec, inputs: Inputs, key: str, tracer: Tracer | None = None,
             spill_sink: list | None = None):
    """One job on a fresh sequential runtime; returns ``(result, wall_s)``."""
    gc.collect()
    space = traced_space(tracer, DEFAULT_SPACE.size) if tracer else DEFAULT_SPACE
    rt = EclipseMRRuntime(WORKERS, cluster_config(), space=space)
    rt.upload(INPUT, inputs.data)
    job = spec.job(key)
    if tracer is None:
        t0 = time.perf_counter()
        result = rt.run(job)
        return result, time.perf_counter() - t0
    with instrument_sequential(tracer, rt, job, spill_sink) as traced_job:
        t0 = time.perf_counter()
        result = rt.run(traced_job)
        return result, time.perf_counter() - t0


def _rate_mb_s(fn: Callable[[], Any], nbytes: int) -> float:
    """MB/s of ``fn`` over ``nbytes``: median of repeats filling ``CODEC_MIN_S``."""
    times: list[float] = []
    while len(times) < 3 or sum(times) < CODEC_MIN_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return nbytes / MB / median(times)


def _codec_rates(spills: list, output: dict) -> dict[str, float]:
    encoded = [messages.encode_spill(pairs) for pairs in spills]
    spill_bytes = sum(len(b) for b in encoded)
    page_bytes = cluster_config().net.stream_page_bytes
    pages = list(messages.iter_output_pages(output, page_bytes))
    out_bytes = sum(len(p) for p in pages)
    return {
        "cluster.messages.encode_spill_mb_s": _rate_mb_s(
            lambda: [messages.encode_spill(pairs) for pairs in spills], spill_bytes),
        "cluster.messages.decode_spill_mb_s": _rate_mb_s(
            lambda: [messages.decode_spill(b) for b in encoded], spill_bytes),
        "cluster.messages.output_pages_mb_s": _rate_mb_s(
            lambda: messages.decode_output_pages(
                messages.iter_output_pages(output, page_bytes)), out_bytes),
    }


# -- one run ---------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, Any]
    attempted: int
    failures: list[str]
    trace: Tracer | None = None


def _shutdown(rt: ClusterRuntime, ledger: Ledger) -> None:
    """Shut a cluster down and check that none of its workers outlived it."""
    rt.shutdown()
    leaked = _worker_pids()
    if leaked:
        ledger.failures.append(f"worker processes outlived their cluster: {leaked}")


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool) -> RunResult:
    inputs = spec.build(seed)
    ledger = Ledger()
    first_key = next(iter(inputs.refs))
    setups: list[dict[str, float]] = []
    warm_tasks: list[dict] = []
    warm_output = seq_output = None
    seq_walls: list[float] = []
    seq_tasks: list[dict] = []

    def seq_slice(until: float) -> None:
        """Sequential jobs back to back until ``until`` (at least one)."""
        nonlocal seq_output
        while True:
            result, wall = _seq_run(spec, inputs, first_key)
            seq_walls.append(wall)
            ledger.check(f"sequential run {len(seq_walls)} {first_key}",
                         result, inputs.refs[first_key])
            seq_tasks.append(result.stats.tasks_per_server)
            if seq_output is None:
                seq_output = result.output
            if time.perf_counter() >= until:
                return

    rt = None
    loop = Loop()
    try:
        for i in range(SETUP_REPEATS):
            rt, timing, first = _setup(spec, inputs, ledger)
            setups.append(timing)
            warm_tasks.append(first.stats.tasks_per_server)
            if warm_output is None:
                warm_output = first.output
            del first
            if i < SETUP_REPEATS - 1:
                _shutdown(rt, ledger)
                rt = None
        # The measured window alternates a cluster slice and a sequential
        # slice (the cluster idles meanwhile) every CYCLE_S, so both planes
        # sample the whole window: the host's speed drifts over seconds.
        loop.stats0 = rt.worker_stats()
        cluster_s = CYCLE_S * (1 - spec.seq_share)
        now = time.perf_counter()
        deadline = now + seconds
        while now < deadline:
            if not _cluster_slice(rt, spec, inputs, min(now + cluster_s, deadline),
                                  loop, ledger):
                break
            seq_slice(min(now + CYCLE_S, deadline))
            now = time.perf_counter()
        loop.stats1 = rt.worker_stats()
        rss_mb = max(vm_hwm_mb(pid) for pid in _worker_pids())
        ping_us = _ping_p50_us(rt) if trace else None
    finally:
        if rt is not None:
            _shutdown(rt, ledger)
    if warm_output != seq_output:
        ledger.failures.append("sequential output != cluster warm-up output")
    if any(t != warm_tasks[0] for t in warm_tasks + seq_tasks):
        ledger.failures.append(
            f"tasks_per_server differ: cluster warm-ups {warm_tasks}, sequential {seq_tasks}")
    del warm_output, seq_output
    if not seq_walls:
        ledger.failures.append("no sequential job completed in the measured window")
        seq_walls = [math.nan]
    seq_job_s = trimmed_mean(seq_walls)

    latencies = loop.latencies
    if not latencies:
        ledger.failures.append("no cluster job completed in the measured window")
        latencies = [math.nan]
    jobs = len(loop.latencies) or 1
    tail_pct, tail_s, beyond = tail_percentile(latencies)
    notes: dict[str, Any] = {
        **inputs.properties,
        "input_bytes": len(inputs.data),
        "input_bytes_per_stream_page": len(inputs.data) / cluster_config().net.stream_page_bytes,
        "cluster_jobs": len(loop.latencies), "seq_jobs": len(seq_walls),
        "job_tail_s": tail_s, "job_tail_percentile": round(tail_pct, 2),
        "job_tail_beyond": beyond,
        "setup_samples_s": [round(s["setup_s"], 4) for s in setups],
        "reduces_streamed_per_job": _stat_deltas(loop)["worker.reduces_streamed"],
    }
    if not trace:
        metrics = {
            "setup_s": (median([s["setup_s"] for s in setups]), "s"),
            "job_s": (median(latencies), "s"),
            "jobs_per_s": (len(loop.latencies) / loop.wall, "1/s"),
            "seq_job_s": (seq_job_s, "s"),
            "worker_peak_rss_mb": (rss_mb, "MB"),
        }
        return RunResult(metrics, notes, ledger.attempted, ledger.failures)

    tracer = Tracer()
    spills: list = []
    result, traced_wall = _seq_run(spec, inputs, first_key, tracer, spills)
    ledger.check(f"traced sequential run {first_key}", result, inputs.refs[first_key])
    layers = tracer.summary()

    def layer(name: str, what: str = "self_s") -> float:
        return layers.get(name, {}).get(what, 0)

    named = tracer.named_self_s()
    handle_metrics = loop.handle_metrics or [{"queue_wait_s": math.nan, "run_s": math.nan}]
    metrics = {
        "apps.map_fn_s": (layer("apps.map_fn"), "s"),
        "common.hashing.key_of_s": (layer("common.hashing.key_of"), "s"),
        "common.hashing.key_of_calls": (layer("common.hashing.key_of", "calls"), "count"),
        "dht.ring.owner_of_s": (layer("dht.ring.owner_of"), "s"),
        "dht.ring.owner_of_calls": (layer("dht.ring.owner_of", "calls"), "count"),
        "mapreduce.shuffle.pair_size_s": (layer("mapreduce.shuffle.pair_size"), "s"),
        "mapreduce.shuffle.pair_size_calls": (layer("mapreduce.shuffle.pair_size", "calls"), "count"),
        "mapreduce.shuffle.emit_self_s": (layer("mapreduce.shuffle.emit"), "s"),
        "dfs.read_block_s": (layer("dfs.read_block"), "s"),
        "apps.combine_fn_s": (layer("apps.combine_fn"), "s"),
        "mapreduce.shuffle.receive_s": (layer("mapreduce.shuffle.receive"), "s"),
        "apps.reduce_fn_s": (layer("apps.reduce_fn"), "s"),
        "mapreduce.runtime.map_loop_s": (layer("mapreduce.runtime.map_loop"), "s"),
        "mapreduce.shuffle.flush_self_s": (layer("mapreduce.shuffle.flush"), "s"),
        "mapreduce.shuffle.combine_pairs_s": (layer("mapreduce.shuffle.combine_pairs"), "s"),
        "mapreduce.shuffle.pairs_for_s": (layer("mapreduce.shuffle.pairs_for"), "s"),
        "mapreduce.runtime.group_s": (layer("mapreduce.runtime.group"), "s"),
        "mapreduce.runtime.other_s": (traced_wall - named, "s"),
        "mapreduce.shuffle.pairs_emitted": (layer("mapreduce.shuffle.emit", "calls"), "count"),
        "mapreduce.shuffle.spills": (result.stats.spills, "count"),
        "mapreduce.shuffle.bytes_shuffled": (result.stats.bytes_shuffled, "bytes"),
        "trace.coverage": (named / traced_wall, "ratio"),
        "trace.overhead_frac": (traced_wall / seq_job_s - 1, "ratio"),
        "cluster.start_s": (median([s["start_s"] for s in setups]), "s"),
        "dfs.upload_s": (median([s["upload_s"] for s in setups]), "s"),
        "jobs.queue_wait_s": (median([m["queue_wait_s"] for m in handle_metrics]), "s"),
        "jobs.run_s": (median([m["run_s"] for m in handle_metrics]), "s"),
        "jobs.sched_thread_cpu_s": (loop.sched_cpu / jobs, "s"),
        "cluster.coordinator_cpu_s": (loop.coordinator_cpu / jobs, "s"),
        "cluster.worker_cpu_s": (loop.worker_cpu / jobs, "s"),
        "net.rpc.ping_p50_us": (ping_us, "us"),
        **{name: (value, "MB/s") for name, value in _codec_rates(spills, result.output).items()},
        **{name: (value, "ratio" if name.endswith(("ratio", "share")) else
                  "bytes" if name.endswith("bytes_shuffled_out") else "count")
           for name, value in _stat_deltas(loop).items()},
    }
    notes["traced_wall_s"] = traced_wall
    notes["untraced_wall_s"] = seq_job_s
    return RunResult(metrics, notes, ledger.attempted, ledger.failures, tracer)
