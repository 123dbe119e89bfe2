"""Statistics and ``/proc`` readers used by the benchmark."""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path
from typing import Sequence

__all__ = [
    "TAIL_BEYOND", "TAIL_MAX_PERCENTILE", "tail_percentile", "median", "trimmed_mean",
    "cpu_seconds", "vm_hwm_mb",
]

TAIL_BEYOND = 10
"""A tail percentile is reported only with this many samples beyond it."""

TAIL_MAX_PERCENTILE = 95.0
"""The tail percentile stops rising here as samples grow: at a thousand
jobs the 11th-slowest is a host hiccup, not the program's tail."""

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile, at most ``TAIL_MAX_PERCENTILE``, with at
    least ``TAIL_BEYOND`` samples above it.

    Returns ``(percentile, value, beyond)``.  With ``n`` sorted samples and
    ``beyond = max(TAIL_BEYOND, ceil(n * (1 - TAIL_MAX_PERCENTILE / 100)))``
    the value is the one ``beyond`` places from the top: percentile
    ``100 * (n - beyond) / n``.  Below ``2 * TAIL_BEYOND`` samples that
    percentile would fall under the median; the (lower) median is returned
    instead, with however many samples lie beyond it.  Callers print the
    percentile and the count beside the value.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        mid = (n - 1) // 2
        return 50.0, ordered[mid], n - 1 - mid
    beyond = max(TAIL_BEYOND, math.ceil(round(n * (100 - TAIL_MAX_PERCENTILE) / 100, 9)))
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share.

    For timings that fall in two modes whose mix shifts from run to run
    (short jobs on a shared host): a median jumps from one mode to the
    other as the mix crosses one half, a trimmed mean moves with the mix.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def _stat_fields(path: Path) -> list[str]:
    """Fields of a ``stat`` file after the ``(comm)`` field, which may
    itself hold spaces and parentheses."""
    text = path.read_text()
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int | str = "self", tid: int | None = None,
                proc: Path = Path("/proc")) -> float:
    """User + system CPU time of a process, or of one of its threads."""
    path = proc / str(pid) / ("stat" if tid is None else f"task/{tid}/stat")
    fields = _stat_fields(path)
    # utime and stime are fields 14 and 15 of stat(5); the list starts at 3.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def vm_hwm_mb(pid: int | str, proc: Path = Path("/proc")) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    for line in (proc / str(pid) / "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM in /proc/{pid}/status")
