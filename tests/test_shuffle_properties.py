"""Property tests for the proactive shuffle and workload packing."""

import pickle
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.wordcount import wordcount_job
from repro.apps.workloads import pack_records, text_corpus
from repro.cluster import ClusterRuntime
from repro.common.config import ClusterConfig, DFSConfig
from repro.common.hashing import HashSpace
from repro.mapreduce.runtime import EclipseMRRuntime
from repro.mapreduce.shuffle import SpillBuffer, combine_pairs


@given(
    pairs=st.lists(
        st.tuples(st.text(min_size=1, max_size=6), st.integers(-100, 100)),
        max_size=120,
    ),
    threshold=st.integers(1, 4096),
    n_dests=st.integers(1, 6),
)
@settings(max_examples=80)
def test_every_pair_delivered_exactly_once(pairs, threshold, n_dests):
    """No matter the spill threshold, emit+flush delivers each pair once."""
    space = HashSpace(1 << 24)
    delivered: list[tuple] = []
    buf = SpillBuffer(
        space=space,
        route=lambda k: k % n_dests,
        deliver=lambda dest, sid, p, n: delivered.extend(p),
        threshold_bytes=threshold,
        task_id="t",
    )
    for k, v in pairs:
        buf.emit(k, v)
    buf.flush()
    assert Counter(delivered) == Counter(pairs)
    assert buf.buffered_bytes == 0


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 5)), min_size=1, max_size=80
    ),
    threshold=st.integers(1, 512),
)
@settings(max_examples=60)
def test_routing_consistent_per_key(pairs, threshold):
    """Every occurrence of the same key lands at the same destination."""
    space = HashSpace(1 << 24)
    dest_of: dict = {}
    ok = True

    def deliver(dest, sid, batch, nbytes):
        nonlocal ok
        for k, _ in batch:
            if dest_of.setdefault(k, dest) != dest:
                ok = False

    buf = SpillBuffer(space, route=lambda hk: hk % 7, deliver=deliver,
                      threshold_bytes=threshold, task_id="t")
    for k, v in pairs:
        buf.emit(k, v)
    buf.flush()
    assert ok


@given(
    pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60),
    threshold=st.integers(1, 256),
)
@settings(max_examples=60)
def test_spill_ids_unique(pairs, threshold):
    space = HashSpace(1 << 24)
    ids = []
    buf = SpillBuffer(space, route=lambda hk: hk % 3,
                      deliver=lambda d, sid, p, n: ids.append(sid),
                      threshold_bytes=threshold, task_id="t")
    for k, v in pairs:
        buf.emit(k, v)
    buf.flush()
    assert len(ids) == len(set(ids))
    assert len(ids) == buf.spills
    assert sorted(ids) == sorted(sid for _, sid, _ in buf.manifest())


@given(
    records=st.lists(
        st.binary(min_size=0, max_size=30).filter(lambda b: b"\n" not in b),
        max_size=60,
    ),
    block_size=st.sampled_from([32, 64, 256]),
)
@settings(max_examples=80)
def test_pack_records_roundtrip_and_alignment(records, block_size):
    records = [r for r in records if len(r) + 1 <= block_size]
    data = pack_records(records, block_size)
    # Exact multiple of the block size, and no record crosses a boundary.
    assert len(data) % block_size == 0
    recovered = []
    for off in range(0, len(data), block_size):
        block = data[off : off + block_size]
        recovered.extend(l for l in block.split(b"\n") if l)
    assert recovered == [r for r in records if r]


def reference_spills(pairs, space, route, threshold, task_id, combiner=None,
                     deliver=lambda dest, sid, batch, nbytes: True):
    """What a ``SpillBuffer`` must do, routing and sizing every pair afresh.

    ``combiner`` is the cross-spill combiner; ``deliver`` sees every spill
    and may return False to skip it.  Returns the manifest and counters.
    """
    def size(k, v):
        return len(pickle.dumps((k, v), protocol=pickle.HIGHEST_PROTOCOL))

    buffers: dict = {}
    sizes: dict = {}
    seqs: dict = {}
    out = SimpleNamespace(manifest=[], spills=0, bytes_pushed=0, recombines=0)

    def spill(dest):
        batch, nbytes = buffers.pop(dest), sizes.pop(dest)
        if not batch:
            return
        seq = seqs.get(dest, 0)
        seqs[dest] = seq + 1
        sid = f"{task_id}/{dest}/{seq}"
        if deliver(dest, sid, batch, nbytes) is False:
            return
        out.manifest.append((dest, sid, nbytes))
        out.spills += 1
        out.bytes_pushed += nbytes

    for k, v in pairs:
        dest = route(space.key_of(repr(k)))
        buffers.setdefault(dest, []).append((k, v))
        sizes[dest] = sizes.get(dest, 0) + size(k, v)
        if sizes[dest] < threshold:
            continue
        if combiner is not None:
            buffers[dest] = combine_pairs(combiner, buffers[dest])
            sizes[dest] = sum(size(ck, cv) for ck, cv in buffers[dest])
            out.recombines += 1
            if sizes[dest] < threshold:
                continue
        spill(dest)
    for dest in list(buffers):
        spill(dest)
    return out


class LoudStr(str):
    """Equal, and hash-equal, to its ``str`` value but with its own repr."""

    def __repr__(self):
        return f"LoudStr({str.__repr__(self)})"


# Scalars that are == (and hash-equal) to each other yet differ in repr or
# pickle: a memo keyed by equality alone would route or size them wrongly.
_NAN = float("nan")
_SCALARS = [1, True, 1.0, 0, False, 0.0, -0.0, _NAN, "a", b"a", LoudStr("a"),
            2, "b", None, (1,), (True,), 2**70, -(2**70)]


def _count_combine(key, values):
    """Drops key ``None``; collapses repeats to their count."""
    if key is None:
        return []
    return [len(values)] if len(values) > 1 else values


_TWINS = [(k, v) for k in (1, True, 1.0, 0.0, -0.0, "a", LoudStr("a"), (1,), (True,))
          for v in (1, True, 2)]


@pytest.mark.parametrize("mode", ["plain", "deliver-combine", "cross-spill"])
@given(
    # A few distinct pairs, repeated: most emits are memo hits.
    pairs=st.lists(
        st.tuples(st.sampled_from(_SCALARS),
                  st.one_of(st.sampled_from(_SCALARS),
                            st.lists(st.integers(0, 2), max_size=2))),
        min_size=1, max_size=8,
    ).flatmap(lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=150)),
    threshold=st.integers(1, 200),
    n_dests=st.integers(1, 5),
)
@example(pairs=_TWINS * 3, threshold=60, n_dests=5)
@example(pairs=[("a", 1)] * 6 + [("a", 2)] * 6, threshold=60, n_dests=2)
@settings(max_examples=80, deadline=None)
def test_memoized_buffer_matches_unmemoized_reference(mode, pairs, threshold, n_dests):
    """Memoizing destinations and sizes changes no spill, id, or byte."""
    space = HashSpace(1 << 24)

    def route(hk):
        return f"s{hk % n_dests}"

    def recorder():
        log = []

        def deliver(dest, sid, batch, nbytes):
            # repr, not ==: 1 == True and 0.0 == -0.0, but they are
            # different pairs with different bytes.
            log.append(repr((dest, sid, batch, nbytes)))
            if mode == "deliver-combine":
                return bool(combine_pairs(_count_combine, batch))
            return True

        return log, deliver

    cross = _count_combine if mode == "cross-spill" else None
    got_log, deliver = recorder()
    buf = SpillBuffer(space, route=route, deliver=deliver,
                      threshold_bytes=threshold, task_id="t", combiner=cross)
    for k, v in pairs:
        buf.emit(k, v)
    buf.flush()
    want_log, deliver = recorder()
    want = reference_spills(pairs, space, route, threshold, "t",
                            combiner=cross, deliver=deliver)
    assert got_log == want_log
    assert buf.manifest() == want.manifest
    assert (buf.spills, buf.bytes_pushed, buf.recombines) == (
        want.spills, want.bytes_pushed, want.recombines)


def test_spill_accounting_pinned_on_both_planes():
    """Sequential and cluster ``spills``/``bytes_shuffled`` both equal the
    unmemoized reference's totals over every map task."""
    block_size = 2048
    cfg = ClusterConfig(dfs=DFSConfig(block_size=block_size))
    data = pack_records(text_corpus(5, num_words=3000, vocab_size=60), block_size)
    job = wordcount_job("pin.txt", app_id="pin", spill_buffer_bytes=256)

    seq = EclipseMRRuntime(3, config=cfg)
    seq.upload("pin.txt", data)
    blocks = [data[i:i + block_size] for i in range(0, len(data), block_size)]
    want_spills = want_bytes = 0
    for index, block in enumerate(blocks):
        ref = reference_spills(
            list(job.map_fn(block)), seq.space, seq.dfs.ring.owner_of,
            job.spill_buffer_bytes, f"{job.app_id}/map{index}",
            deliver=lambda d, sid, batch, n: bool(combine_pairs(job.combiner, batch)))
        want_spills += ref.spills
        want_bytes += ref.bytes_pushed
    assert len(blocks) > 1 and want_spills > 2 * len(blocks)

    seq_stats = seq.run(job).stats
    with ClusterRuntime(3, cfg) as rt:
        rt.upload("pin.txt", data)
        cl_stats = rt.run(job).stats
    assert (seq_stats.spills, seq_stats.bytes_shuffled) == (want_spills, want_bytes)
    assert (cl_stats.spills, cl_stats.bytes_shuffled) == (want_spills, want_bytes)
