"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload wordcount-zipf --seed 1 --seconds 40 --trace 0

Workloads (4-worker cluster plane, 1 MB DFS blocks, ``spawn`` workers,
default job settings; see ``BENCHMARK.json`` for why each was chosen):

* ``wordcount-zipf`` -- Zipf(1.3) text over 1,000 words, 12 blocks; one
  client submits ``repro.apps.wordcount`` jobs back to back.
* ``grep-stream`` -- Zipf text with rare ``ERR<nn>`` markers, 12 blocks; a
  closed loop of 2 client threads submitting selective ``repro.apps.grep``
  jobs that rotate over 10 patterns.
* ``sort-unique`` -- distinct 64-hex-digit records, 11 blocks; one client,
  ``repro.apps.sort_app`` (no combiner), back to back.  Runnable by hand
  (its traced run covers the shuffle codec, grouping and output paging),
  but not listed in ``BENCHMARK.json``, which keeps two workloads so
  that each run can measure for longer on a small shared host.

After three timed cluster set-ups, the measured window alternates, every
few seconds, a slice of the closed loop on the cluster with a slice of the
workload's first job on the sequential plane (``EclipseMRRuntime``).
With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` the same loop runs and a traced sequential job adds
per-layer metrics, whose spans are written to ``perfbench/out/``.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; any wrong output,
failed job or leaked worker process makes the run exit with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

WATCHDOG_S = 170.0
"""A run still going after this long kills its workers and exits 3."""


def _watchdog() -> None:
    print(f"perfbench: run exceeded {WATCHDOG_S}s, killing workers", file=sys.stderr)
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join(5)
    os._exit(3)


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the resource-tracker process ``multiprocessing``
    starts beside spawned workers (it would otherwise outlive the run)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def _source_digest() -> str:
    """SHA-1 over ``src/`` (names and contents): identifies the code under
    test where there is no git revision."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's own source, never an installed copy.
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    from perfbench.bench import SPECS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    timer = threading.Timer(WATCHDOG_S, _watchdog)
    timer.daemon = True
    timer.start()
    spec = SPECS[args.workload]
    from repro.common.config import NetConfig

    print(f"# workload={spec.name} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} nproc={os.cpu_count()}"
          f" python={platform.python_version()} git={_revision()}"
          f" src_sha1={_source_digest()} start_method={NetConfig().mp_start_method}",
          flush=True)
    try:
        result = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    timer.cancel()

    for name, value in result.notes.items():
        if not name.startswith("job_tail"):
            print(f"# input/run {name} = {value}")
    if args.trace:
        out = ROOT / "perfbench" / "out" / f"trace-{spec.name}-seed{args.seed}.json"
        result.trace.write(out, {"workload": spec.name, "seed": args.seed, **result.notes})
        print(f"# spans written to {out.relative_to(ROOT)}")
        coverage = result.metrics["trace.coverage"][0]
        print(f"# trace.coverage = {coverage:.4f}"
              f" trace.overhead_frac = {result.metrics['trace.overhead_frac'][0]:.4f}"
              + ("  LOW COVERAGE (< 0.9)" if coverage < 0.9 else ""))
    failed = len(result.failures)
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    # Printed, not gated in BENCHMARK.json: under a busy shared host the
    # tail doubles while the median moves a fifth, past any usable bound.
    notes = result.notes
    print(f"metric job_tail_s = {notes['job_tail_s']:.6g} s"
          f"  (p{notes['job_tail_percentile']} of n={notes['cluster_jobs']},"
          f" {notes['job_tail_beyond']} beyond)")
    print(f"metric failed_frac = {failed / max(1, result.attempted):.6g} ratio"
          f"  ({failed} of {result.attempted} checks)")
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
