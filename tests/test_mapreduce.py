"""Integration tests for the functional MapReduce engine."""

import pickle

import pytest

from repro.common.config import CacheConfig, ClusterConfig, DFSConfig, SchedulerConfig
from repro.common.hashing import HashSpace
from repro.mapreduce.api import EclipseMR
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import EclipseMRRuntime, FailureInjector
from repro.mapreduce.shuffle import IntermediateStore, SpillBuffer

SMALL = ClusterConfig(
    num_nodes=6,
    rack_size=3,
    dfs=DFSConfig(block_size=256),
    cache=CacheConfig(capacity_per_server=64 * 1024),
    scheduler=SchedulerConfig(window_tasks=8, num_bins=64),
)


def pack_words(words_text: bytes) -> bytes:
    """Block-align a whitespace text so no word straddles a block boundary."""
    from repro.apps.workloads import pack_records

    return pack_records(words_text.split(), SMALL.dfs.block_size)


def word_map(block):
    for w in block.decode().split():
        yield w, 1


def count_reduce(word, counts):
    return sum(counts)


def make_cluster(scheduler="laf", **kwargs):
    return EclipseMR(workers=6, scheduler=scheduler, config=SMALL, **kwargs)


class TestSpillBuffer:
    def _buffer(self, threshold=10**9, deliveries=None):
        deliveries = deliveries if deliveries is not None else []
        space = HashSpace(1000)
        return SpillBuffer(
            space=space,
            route=lambda k: f"s{k % 3}",
            deliver=lambda dest, sid, pairs, nbytes: deliveries.append(
                (dest, sid, list(pairs), nbytes)
            ),
            threshold_bytes=threshold,
            task_id="t0",
        ), deliveries

    def test_flush_pushes_everything(self):
        buf, deliveries = self._buffer()
        buf.emit("a", 1)
        buf.emit("b", 2)
        assert not deliveries
        buf.flush()
        total = sum(len(p) for _, _, p, _ in deliveries)
        assert total == 2

    def test_threshold_triggers_spill(self):
        buf, deliveries = self._buffer(threshold=1)
        buf.emit("a", 1)
        assert len(deliveries) == 1  # spilled immediately
        assert buf.buffered_bytes == 0

    def test_spill_ids_deterministic(self):
        buf1, d1 = self._buffer(threshold=1)
        buf2, d2 = self._buffer(threshold=1)
        for b in (buf1, buf2):
            b.emit("a", 1)
            b.emit("a", 2)
        assert [sid for _, sid, _, _ in d1] == [sid for _, sid, _, _ in d2]

    def test_manifest_lists_all_spills(self):
        buf, _ = self._buffer(threshold=1)
        buf.emit("a", 1)
        buf.emit("b", 2)
        buf.flush()
        assert len(buf.manifest()) == buf.spills

    def test_skipped_spills_count_toward_nothing(self):
        """A deliverer returning False (combiner emptied the spill) leaves
        no trace: not in ``spills``, ``bytes_pushed``, or the manifest."""
        space = HashSpace(1000)
        delivered = []

        def deliver(dest, sid, pairs, nbytes):
            if pairs[0][0] == "skipme":
                return False
            delivered.append(sid)

        buf = SpillBuffer(space, route=lambda k: k % 3, deliver=deliver,
                          threshold_bytes=1, task_id="t0")
        buf.emit("skipme", 1)
        buf.emit("keep", 2)
        buf.flush()
        assert buf.spills_skipped == 1
        assert buf.spills == len(delivered) == 1
        assert buf.bytes_pushed > 0
        assert [sid for _, sid, _ in buf.manifest()] == delivered

    def test_manifest_records_delivery_nbytes(self):
        buf, deliveries = self._buffer(threshold=1)
        buf.emit("a", 1)
        buf.flush()
        [(_, sid, _, nbytes)] = deliveries
        assert buf.manifest() == [(f"s{buf.key_of('a') % 3}", sid, nbytes)]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            self._buffer(threshold=0)

    def test_pair_size_positive(self):
        assert SpillBuffer.pair_size("key", [1, 2, 3]) > 0

    @pytest.mark.parametrize("make_key, memoized", [
        (lambda i: f"w{i}", True),
        (lambda i: i, True),
        (lambda i: float(i), False),   # 0.0 == -0.0 but reprs differ
        (lambda i: (i,), False),       # (1,) == (True,)
    ])
    @pytest.mark.parametrize("cross_spill", [False, True])
    def test_emit_routes_and_sizes_each_distinct_pair_once(
            self, monkeypatch, make_key, memoized, cross_spill):
        """N pairs over D distinct keys: hashing, routing and sizing run D
        times for exact-scalar pairs, N times for anything else.  The
        cross-spill combiner's recombines add sizing but no routing."""
        n, d = 300, 7

        class CountingSpace(HashSpace):
            __slots__ = ("calls",)

            def key_of(self, name):
                self.calls += 1
                return super().key_of(name)

        space = CountingSpace(1000)
        space.calls = 0
        routed = []
        sized = []
        pair_size = SpillBuffer.pair_size
        monkeypatch.setattr(SpillBuffer, "pair_size", staticmethod(
            lambda k, v: sized.append(k) or pair_size(k, v)))
        buf = SpillBuffer(space, route=lambda hk: routed.append(hk) or hk % 3,
                          deliver=lambda *spill: None, threshold_bytes=64,
                          task_id="t0",
                          combiner=(lambda k, vs: [sum(vs)]) if cross_spill else None)
        for i in range(n):
            buf.emit(make_key(i % d), 1)
        buf.flush()
        expected = d if memoized else n
        assert space.calls == len(routed) == expected
        if cross_spill:
            assert buf.recombines > 0
        else:
            assert len(sized) == expected


class TestIntermediateStore:
    def test_receive_and_collect(self):
        store = IntermediateStore("s0")
        store.receive("job", "sp0", [("a", 1)], 10)
        store.receive("job", "sp1", [("b", 2)], 10)
        assert sorted(store.pairs_for("job")) == [("a", 1), ("b", 2)]
        assert store.bytes_received == 20

    def test_redelivery_overwrites(self):
        """A retried map task re-pushes the same spill id: no duplicates."""
        store = IntermediateStore("s0")
        store.receive("job", "sp0", [("a", 1)], 10)
        store.receive("job", "sp0", [("a", 1)], 10)
        assert store.pairs_for("job") == [("a", 1)]

    def test_discard_job(self):
        store = IntermediateStore("s0")
        store.receive("job", "sp0", [("a", 1)], 10)
        store.discard_job("job")
        assert store.pairs_for("job") == []


class TestWordCountEndToEnd:
    def test_counts_are_exact(self):
        mr = make_cluster()
        text = b"the quick brown fox jumps over the lazy dog the end"
        mr.upload("t.txt", text)
        result = mr.map_reduce("wc", "t.txt", word_map, count_reduce)
        assert result.output["the"] == 3
        assert result.output["fox"] == 1
        assert sum(result.output.values()) == len(text.split())

    def test_multi_block_input(self):
        mr = make_cluster()
        words = [f"w{i % 50}" for i in range(2000)]
        data = pack_words(" ".join(words).encode())
        mr.upload("big.txt", data)
        result = mr.map_reduce("wc", "big.txt", word_map, count_reduce)
        assert result.stats.map_tasks > 1
        assert sum(result.output.values()) == 2000
        assert result.output["w0"] == 40

    def test_results_identical_across_schedulers(self):
        text = pack_words(" ".join(f"tok{i % 30}" for i in range(500)).encode())
        outputs = []
        for sched in ("laf", "delay"):
            mr = make_cluster(sched)
            mr.upload("in.txt", text)
            outputs.append(mr.map_reduce("wc", "in.txt", word_map, count_reduce).output)
        assert outputs[0] == outputs[1]

    def test_stats_track_tasks_and_reads(self):
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"x " * 600))
        result = mr.map_reduce("wc", "t.txt", word_map, count_reduce)
        stats = result.stats
        assert stats.map_tasks == len(mr.runtime.dfs.stat("t.txt").blocks)
        assert stats.reduce_tasks >= 1
        assert stats.local_block_reads + stats.remote_block_reads == stats.map_tasks
        assert sum(stats.tasks_per_server.values()) == stats.map_tasks + stats.reduce_tasks

    def test_combiner_reduces_shuffle_volume(self):
        text = pack_words(("word " * 3000).encode())
        mr1 = make_cluster()
        mr1.upload("t.txt", text)
        no_comb = mr1.map_reduce("wc1", "t.txt", word_map, count_reduce)

        mr2 = make_cluster()
        mr2.upload("t.txt", text)
        job = MapReduceJob(
            app_id="wc2", input_file="t.txt", map_fn=word_map,
            reduce_fn=count_reduce,
            combiner=lambda w, cs: [sum(cs)],
            spill_buffer_bytes=512,
        )
        with_comb = mr2.run(job)
        assert with_comb.output == no_comb.output


class TestCacheBehaviour:
    def test_second_job_hits_icache(self):
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"alpha beta " * 300))
        first = mr.map_reduce("j1", "t.txt", word_map, count_reduce)
        second = mr.map_reduce("j2", "t.txt", word_map, count_reduce)
        assert first.stats.icache_hits == 0
        assert second.stats.icache_hits == second.stats.map_tasks
        assert second.stats.icache_misses == 0

    def test_laf_keeps_block_on_same_server(self):
        """Consistent hashing means the same block's tasks land where the
        block is already cached."""
        mr = make_cluster("laf")
        mr.upload("t.txt", b"only one block here")
        mr.map_reduce("j1", "t.txt", word_map, count_reduce)
        r2 = mr.map_reduce("j2", "t.txt", word_map, count_reduce)
        assert r2.stats.icache_hits == 1

    def test_clear_caches(self):
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"data " * 100))
        mr.map_reduce("j1", "t.txt", word_map, count_reduce)
        mr.clear_caches()
        r2 = mr.map_reduce("j2", "t.txt", word_map, count_reduce)
        assert r2.stats.icache_hits == 0


class TestIntermediateReuse:
    def _job(self, app_id, reuse):
        return MapReduceJob(
            app_id=app_id,
            input_file="t.txt",
            map_fn=word_map,
            reduce_fn=count_reduce,
            cache_intermediates=True,
            reuse_intermediates=reuse,
        )

    def test_rerun_skips_maps(self):
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"gamma delta " * 200))
        first = mr.run(self._job("app", reuse=False))
        second = mr.run(self._job("app", reuse=True))
        assert second.output == first.output
        assert second.stats.maps_skipped_by_reuse == first.stats.map_tasks
        assert second.stats.map_tasks == 0

    def test_reuse_survives_cache_eviction_via_dfs(self):
        """Evicted oCache entries are re-read from the DHT file system
        (the persistent copy the paper keeps for fault tolerance)."""
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"epsilon zeta " * 200))
        first = mr.run(self._job("app", reuse=False))
        mr.clear_caches()
        second = mr.run(self._job("app", reuse=True))
        assert second.output == first.output
        assert second.stats.map_tasks == 0
        assert second.stats.ocache_hits == 0  # everything came from the DFS

    def test_no_reuse_without_marker(self):
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"eta theta " * 50))
        result = mr.run(self._job("fresh", reuse=True))
        assert result.stats.maps_skipped_by_reuse == 0
        assert result.stats.map_tasks > 0

    def test_replay_reports_original_shuffle_stats(self):
        """The replayed run's spill/byte accounting equals the original
        run's (regression: replayed jobs reported spills=0 and
        bytes_shuffled=0 because nothing re-counted the spills)."""
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"iota omega " * 200))

        def received():
            return sum(w.intermediates.bytes_received
                       for w in mr.runtime.workers.values())

        first = mr.run(self._job("app", reuse=False))
        after_first = received()
        second = mr.run(self._job("app", reuse=True))

        assert second.stats.map_tasks == 0
        assert second.stats.spills == first.stats.spills > 0
        assert second.stats.bytes_shuffled == first.stats.bytes_shuffled > 0
        # The reduce-side stores were credited exactly the original sizes.
        assert received() - after_first == first.stats.bytes_shuffled


class TestEmptyCombinerSpills:
    """Spills a combiner empties out are skipped on delivery: nothing is
    shipped, cached, or persisted (regression: they were delivered and
    written to the DFS as a keyless object at hash key 0)."""

    def _job(self, app_id, combiner, reuse=False):
        return MapReduceJob(
            app_id=app_id, input_file="t.txt", map_fn=word_map,
            reduce_fn=count_reduce, combiner=combiner,
            cache_intermediates=True, reuse_intermediates=reuse,
        )

    def test_all_dropped_spills_leave_no_trace(self):
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"zap " * 200))
        drop_all = lambda key, values: []
        res = mr.run(self._job("drop", drop_all))
        assert res.output == {}
        assert res.stats.map_tasks > 1
        assert res.stats.spills == 0
        assert res.stats.bytes_shuffled == 0
        # No spill object was persisted (markers live under _imr-done/).
        assert not any(n.startswith("_imr/")
                       for n in mr.runtime.dfs.list_files())

        # The (empty) markers still replay: the rerun skips every map.
        second = mr.run(self._job("drop", drop_all, reuse=True))
        assert second.output == {}
        assert second.stats.maps_skipped_by_reuse == res.stats.map_tasks
        assert second.stats.map_tasks == 0

    def test_partially_dropped_spills_keep_surviving_pairs(self):
        mr = make_cluster()
        mr.upload("t.txt", pack_words(b"keep drop " * 150))
        combiner = lambda k, vs: [] if k == "drop" else [sum(vs)]
        res = mr.run(self._job("part", combiner))
        assert res.output == {"keep": 150}
        second = mr.run(self._job("part", combiner, reuse=True))
        assert second.output == {"keep": 150}
        assert second.stats.maps_skipped_by_reuse == res.stats.map_tasks
        assert second.stats.spills == res.stats.spills
        assert second.stats.bytes_shuffled == res.stats.bytes_shuffled


class TestFaultTolerance:
    def test_injected_failure_retries_and_result_correct(self):
        injector = FailureInjector({("wc", 0): 1})
        mr = make_cluster(failure_injector=injector)
        text = b"iota kappa " * 300
        mr.upload("t.txt", pack_words(text))
        result = mr.map_reduce("wc", "t.txt", word_map, count_reduce)
        assert injector.injected == 1
        assert result.stats.task_retries == 1
        assert sum(result.output.values()) == len(text.split())

    def test_repeated_failures_eventually_succeed(self):
        injector = FailureInjector({("wc", 0): 3})
        mr = make_cluster(failure_injector=injector)
        mr.upload("t.txt", pack_words(b"lambda " * 100))
        result = mr.map_reduce("wc", "t.txt", word_map, count_reduce)
        assert result.stats.task_retries == 3
        assert result.output["lambda"] == 100

    def test_too_many_failures_raise(self):
        from repro.common.errors import SchedulingError

        injector = FailureInjector({("wc", 0): 99})
        mr = make_cluster(failure_injector=injector)
        mr.upload("t.txt", pack_words(b"mu " * 10))
        with pytest.raises(SchedulingError, match="failed"):
            mr.map_reduce("wc", "t.txt", word_map, count_reduce)

    def test_no_duplicate_pairs_after_retry(self):
        """The retried mapper re-pushes the same spill ids; counts stay exact."""
        injector = FailureInjector({("wc", 0): 2})
        mr = make_cluster(failure_injector=injector)
        words = pack_words(" ".join(f"t{i % 7}" for i in range(100)).encode())
        mr.upload("t.txt", words)
        result = mr.map_reduce("wc", "t.txt", word_map, count_reduce)
        assert sum(result.output.values()) == 100


class TestReduceLocality:
    def test_reduce_runs_where_intermediates_live(self):
        """Reduce keys are grouped by the DFS-ring owner of their hash key:
        every key reduces on exactly one server (engine asserts this)."""
        mr = make_cluster()
        mr.upload("t.txt", pack_words(" ".join(f"u{i}" for i in range(400)).encode()))
        result = mr.map_reduce("wc", "t.txt", word_map, count_reduce)
        # More than one reducer participated for 400 distinct keys.
        assert result.stats.reduce_tasks > 1

    def test_shuffle_routes_by_hash(self):
        mr = make_cluster()
        runtime = mr.runtime
        text = pack_words(" ".join(f"v{i}" for i in range(100)).encode())
        mr.upload("t.txt", text)
        job = MapReduceJob("wc", "t.txt", word_map, count_reduce)
        # Intercept: after the run, each key's reducer must equal the ring owner.
        result = runtime.run(job)
        for word in result.output:
            owner = runtime.dfs.ring.owner_of(runtime.space.key_of(repr(word)))
            assert owner in runtime.worker_ids


class TestRuntimeConstruction:
    def test_int_worker_count(self):
        rt = EclipseMRRuntime(4, config=SMALL)
        assert len(rt.worker_ids) == 4

    def test_unknown_scheduler_rejected(self):
        from repro.common.errors import SchedulingError

        with pytest.raises(SchedulingError):
            EclipseMRRuntime(4, config=SMALL, scheduler="bogus")

    def test_empty_workers_rejected(self):
        from repro.common.errors import SchedulingError

        with pytest.raises(SchedulingError):
            EclipseMRRuntime([], config=SMALL)

    def test_custom_scheduler_instance(self):
        from repro.scheduler.fair import FairScheduler

        # A locality scheduler is not hash-driven; the runtime requires
        # assign(hash_key=...) support, which FairScheduler tolerates.
        sched = FairScheduler([f"worker-{i}" for i in range(4)])
        rt = EclipseMRRuntime(4, config=SMALL, scheduler=sched)
        assert rt.scheduler is sched
