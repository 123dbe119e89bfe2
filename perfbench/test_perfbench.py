"""Tests of the benchmark's own helpers.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import threading
from collections import Counter

import pytest

from perfbench import corpus
from perfbench.measure import (
    TAIL_BEYOND, TAIL_MAX_PERCENTILE, cpu_seconds, tail_percentile, trimmed_mean,
    vm_hwm_mb,
)
from perfbench.tracer import Tracer


# -- tail percentile -----------------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    pct, value, beyond = tail_percentile(list(reversed(samples)))
    assert (pct, value, beyond) == (90.0, 89.0, TAIL_BEYOND)
    assert sum(s > value for s in samples) == TAIL_BEYOND


def test_tail_percentile_is_the_highest_qualifying_one():
    samples = [float(i) for i in range(37)]
    pct, value, beyond = tail_percentile(samples)
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert pct == pytest.approx(100 * 27 / 37)


def test_tail_percentile_stops_rising_at_the_cap():
    samples = [float(i) for i in range(1000)]
    pct, value, beyond = tail_percentile(samples)
    assert pct == TAIL_MAX_PERCENTILE
    assert beyond == 50 and value == 949.0
    assert sum(s > value for s in samples) == beyond
    # Just under the cap's reach the ten-beyond rule still decides.
    assert tail_percentile([float(i) for i in range(200)])[2] == TAIL_BEYOND
    assert tail_percentile([float(i) for i in range(201)])[2] == 11


def test_tail_percentile_falls_back_to_the_median_with_few_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)
    nineteen = [float(i) for i in range(19)]
    assert tail_percentile(nineteen) == (50.0, 9.0, 9)
    twenty = [float(i) for i in range(20)]
    assert tail_percentile(twenty) == (50.0, 9.0, TAIL_BEYOND)
    assert tail_percentile([4.0]) == (50.0, 4.0, 0)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_trimmed_mean_drops_both_ends_and_follows_the_mix():
    assert trimmed_mean([100.0] + [2.0] * 8 + [0.0]) == 2.0
    assert trimmed_mean([5.0]) == 5.0
    # Two modes: the mean moves in step with the share of slow samples.
    fast, slow = [20.0] * 12, [34.0] * 8
    assert trimmed_mean(fast + slow) == pytest.approx((10 * 20 + 6 * 34) / 16)
    with pytest.raises(ValueError):
        trimmed_mean([])


# -- self time -------------------------------------------------------------------------


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    leaf = tracer.wrap("leaf", lambda: clock.tick(5))

    def middle_fn():
        clock.tick(10)
        leaf()
        clock.tick(1)
        leaf()

    middle = tracer.wrap("middle", middle_fn)

    def outer_fn():
        clock.tick(100)
        middle()
        middle()
        clock.tick(3)

    tracer.wrap("outer", outer_fn, log=True)()
    s = tracer.summary()
    assert s["leaf"] == {"calls": 4, "total_s": 20e-9, "self_s": 20e-9}
    assert s["middle"]["calls"] == 2
    assert s["middle"]["total_s"] == pytest.approx(42e-9)
    assert s["middle"]["self_s"] == pytest.approx(22e-9)
    assert s["outer"]["total_s"] == pytest.approx(145e-9)
    assert s["outer"]["self_s"] == pytest.approx(103e-9)
    # Self times partition the outermost span exactly.
    assert tracer.named_self_s() == pytest.approx(145e-9)
    # Only the logged layer keeps its spans.
    assert [tracer.layers[idx] for idx, _, _ in tracer.spans] == ["outer"]


def test_self_time_survives_an_exception_in_a_child():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.tick(7)
        raise KeyError("boom")

    child = tracer.wrap("child", failing)

    def parent_fn():
        clock.tick(2)
        with pytest.raises(KeyError):
            child()
        clock.tick(1)

    tracer.wrap("parent", parent_fn)()
    s = tracer.summary()
    assert s["child"]["self_s"] == pytest.approx(7e-9)
    assert s["parent"]["self_s"] == pytest.approx(3e-9)


def test_layers_wrapped_twice_are_summed_under_one_name():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    a = tracer.wrap("store.receive", lambda: clock.tick(2))
    b = tracer.wrap("store.receive", lambda: clock.tick(3))
    a()
    b()
    assert tracer.summary()["store.receive"]["calls"] == 2
    assert tracer.summary()["store.receive"]["self_s"] == pytest.approx(5e-9)


# -- /proc readers ---------------------------------------------------------------------


def _fake_stat(utime: int, stime: int, comm: str = "py (x) y") -> str:
    # pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
    # majflt cmajflt utime stime ...
    return f"4242 ({comm}) S 1 1 1 0 -1 0 0 0 0 0 {utime} {stime} 0 0 20 0 3 0\n"


def test_cpu_seconds_reads_utime_plus_stime(tmp_path):
    tck = os.sysconf("SC_CLK_TCK")
    (tmp_path / "4242" / "task" / "77").mkdir(parents=True)
    (tmp_path / "4242" / "stat").write_text(_fake_stat(3 * tck, tck))
    (tmp_path / "4242" / "task" / "77" / "stat").write_text(_fake_stat(tck, 0))
    assert cpu_seconds(4242, proc=tmp_path) == pytest.approx(4.0)
    assert cpu_seconds(4242, tid=77, proc=tmp_path) == pytest.approx(1.0)


def test_vm_hwm_reads_the_peak_resident_set(tmp_path):
    (tmp_path / "9").mkdir()
    (tmp_path / "9" / "status").write_text(
        "Name:\tpython\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n")
    assert vm_hwm_mb(9, proc=tmp_path) == pytest.approx(50.0)
    (tmp_path / "9" / "status").write_text("Name:\tzombie\n")
    with pytest.raises(ValueError):
        vm_hwm_mb(9, proc=tmp_path)


def test_proc_readers_on_this_process():
    before = cpu_seconds()
    thread_before = cpu_seconds(tid=threading.get_native_id())
    sum(i * i for i in range(2_000_000))
    assert cpu_seconds() > before
    assert cpu_seconds(tid=threading.get_native_id()) > thread_before
    assert vm_hwm_mb("self") > 1


# -- inputs and references ------------------------------------------------------------


BLOCK = 4096


def test_inputs_are_seeded_and_packed_by_block():
    a, ref_a = corpus.zipf_text(5, 3, BLOCK)
    b, ref_b = corpus.zipf_text(5, 3, BLOCK)
    c, _ = corpus.zipf_text(6, 3, BLOCK)
    assert a == b and ref_a == ref_b and a != c
    assert len(a) == 3 * BLOCK
    for i in range(3):
        assert a[(i + 1) * BLOCK - 1:(i + 1) * BLOCK] == b"\n"
    assert len(ref_a) <= corpus.VOCAB_SIZE
    records, ref = corpus.unique_records(5, 2, BLOCK)
    assert len(records) == 2 * BLOCK and set(ref.values()) == {1}


def _sequential(data: bytes, job, block_size: int = BLOCK):
    from repro.common.config import ClusterConfig, DFSConfig
    from repro.mapreduce.runtime import EclipseMRRuntime

    rt = EclipseMRRuntime(4, ClusterConfig(dfs=DFSConfig(block_size=block_size)))
    rt.upload(job.input_file, data)
    return rt.run(job).output


def test_references_agree_with_the_apps_and_reject_corruption():
    from repro.apps.grep import grep_job
    from repro.apps.sort_app import sort_job
    from repro.apps.wordcount import wordcount_job

    text, words = corpus.zipf_text(1, 4, BLOCK)
    output = _sequential(text, wordcount_job("in"))
    assert corpus.check_output(output, words) is None

    wrong = dict(output)
    word = next(iter(wrong))
    wrong[word] += 1
    assert "1 wrong" in corpus.check_output(wrong, words)
    missing = dict(output)
    del missing[word]
    assert "1 missing" in corpus.check_output(missing, words)
    assert "1 extra" in corpus.check_output({**output, "zz": 1}, words)

    records, multiset = corpus.unique_records(1, 4, BLOCK)
    assert corpus.check_output(_sequential(records, sort_job("in")), multiset) is None

    text, patterns = corpus.grep_corpus(1, 32, 16 * BLOCK)
    matched = 0
    for pattern in patterns:
        ref = corpus.grep_reference(text, pattern)
        matched += sum(ref.values())
        output = _sequential(text, grep_job("in", pattern), 16 * BLOCK)
        assert corpus.check_output(output, ref) is None
    assert matched > len(patterns)
    assert corpus.check_output({}, Counter({"line": 1})) is not None
