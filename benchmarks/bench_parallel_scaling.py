"""Parallel scaling: wall-clock vs worker count on the Quest workload.

Mines the scalability dataset (the E-A3 configuration of
``bench_scalability.py``: per=360, minPS=0.2%, minRec=1) at
``jobs in {1, 2, 4}`` on two database scales and records the speedup
curve to ``BENCH_parallel.json`` at the repository root — one
``repro-run/v1`` record per (scale, jobs) cell wrapped in the
``repro-bench/v1`` envelope, plus the hardware context the curve only
makes sense against.

The acceptance gate is hardware-aware: on a multi-core machine the
large configuration must not be *slower* at ``jobs=4`` than serially
(and the recorded curve shows the achieved speedup); on a single-CPU
machine four workers time-slice one core, so no speedup is physically
possible — the bench then only asserts result parity and records
``hardware_capped: true`` with the reason, as ``docs/performance.md``
documents.

Every parallel cell also records its retry counters
(``chunks_retried`` / ``chunks_fallback``, asserted zero — no faults
are injected here), and the large configuration measures what
**supervision** costs a fault-free ``jobs=2`` mine directly
(:func:`_supervision_overhead`): the supervisor's own time outside
chunk waits and pool calls, plus the workers' marker and heartbeat
writes, as a fraction of the mine's wall time.  It is recorded as
``resilience_overhead`` and gated at <2% on multi-core hardware.
"""

import functools
import json
import os
import pathlib
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import repro.parallel.miner as parallel_miner
from repro.bench.workloads import quest_workload
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.obs.report import validate_run_record
from repro.parallel import faults, resilience

JOB_COUNTS = (1, 2, 4)
SCALES = (0.05, 0.2)  # small sanity point + the "large config" gate
PARAMS = {"per": 360, "min_ps": 0.002, "min_rec": 1}
#: Best-of repetitions per cell; pool start-up noise dominates singles.
REPEATS = 3
#: Multi-core gate: jobs=4 must not be slower than jobs=1 on the large
#: configuration (5% timing-noise slack) — a failed gate means the
#: partition layer regressed, not that the workload is too small.
MAX_SLOWDOWN = 0.05
#: Multi-core gate: chunk supervision (markers, the wait loop, result
#: validation) may cost at most 2% wall-clock when no faults fire.
MAX_RESILIENCE_OVERHEAD = 0.02
#: In-process samples behind the per-chunk and per-beat write costs.
WRITE_SAMPLES = 200

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"


def _timed(seconds, name, function):
    """``function``, adding the time spent in each call to
    ``seconds[name]``."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - started

    return wrapper


def _timed_pool(seconds):
    """A ``ProcessPoolExecutor`` whose construction, ``submit`` and
    ``shutdown`` add to ``seconds["pool"]``."""

    class TimedPool(ProcessPoolExecutor):
        __init__ = _timed(seconds, "pool", ProcessPoolExecutor.__init__)
        submit = _timed(seconds, "pool", ProcessPoolExecutor.submit)
        shutdown = _timed(seconds, "pool", ProcessPoolExecutor.shutdown)

    return TimedPool


def _write_costs():
    """Median in-process cost of one guarded no-op chunk (its start,
    heartbeat and done marker writes) and of one heartbeat rewrite,
    against a temporary marker directory."""
    marker_dir = tempfile.mkdtemp(prefix="bench-markers-")
    chunk_seconds, beat_seconds = [], []

    def beating_chunk(chunk_id, payload):
        for _ in range(WRITE_SAMPLES):
            started = time.perf_counter()
            faults.maybe_beat(min_interval=0.0)
            beat_seconds.append(time.perf_counter() - started)

    faults.install_fault_plan(None, marker_dir)
    try:
        for chunk in range(WRITE_SAMPLES):
            started = time.perf_counter()
            faults.guarded_chunk(lambda *_: None, chunk, None, 1)
            chunk_seconds.append(time.perf_counter() - started)
        faults.guarded_chunk(beating_chunk, WRITE_SAMPLES, None, 1)
    finally:
        faults.install_fault_plan(None, None)
        shutil.rmtree(marker_dir, ignore_errors=True)
    return statistics.median(chunk_seconds), statistics.median(beat_seconds)


def _supervision_overhead(db):
    """What supervision costs a fault-free ``jobs=2`` mine, measured
    directly rather than as an A/B against an unsupervised pool.

    * Parent side: the wall time of ``supervise()`` minus the time
      blocked in ``futures_wait`` and minus the pool's construction,
      ``submit`` and ``shutdown``, which every pool pays.  What is left
      is the supervisor's own work: the marker directory, the wait
      loop's bookkeeping and result validation.
    * Worker side: the run's chunk count times one guarded no-op
      chunk's marker and heartbeat writes, plus one heartbeat write per
      ``BEAT_INTERVAL`` of summed ``chunk[i]`` span time.

    ``overhead_fraction`` is (parent + worker) over the mine's wall
    time, each the median of ``REPEATS`` mines.  Summing both workers'
    writes against one wall overstates their cost.  The wrapped
    functions are patched from outside and restored after each mine.
    """
    chunk_write, beat_write = _write_costs()
    parent, worker, walls = [], [], []
    for _ in range(REPEATS):
        seconds = defaultdict(float)
        with mock.patch.object(
            parallel_miner, "supervise",
            _timed(seconds, "supervise", parallel_miner.supervise),
        ), mock.patch.object(
            resilience, "futures_wait",
            _timed(seconds, "wait", resilience.futures_wait),
        ), mock.patch.object(
            resilience, "ProcessPoolExecutor", _timed_pool(seconds)
        ):
            started = time.perf_counter()
            _, telemetry = mine_recurring_patterns(
                db, **PARAMS, jobs=2,
                observability=ObservabilityOptions(collect_stats=True),
            )
            walls.append(time.perf_counter() - started)
        chunks = [
            span.seconds
            for root in telemetry.spans
            for _, span in root.walk()
            if span.name.startswith("chunk[")
        ]
        beats = int(sum(chunks) / faults.BEAT_INTERVAL)
        parent.append(
            seconds["supervise"] - seconds["wait"] - seconds["pool"]
        )
        worker.append(len(chunks) * chunk_write + beats * beat_write)
    parent_seconds = statistics.median(parent)
    worker_seconds = statistics.median(worker)
    wall_seconds = statistics.median(walls)
    return {
        "parent_seconds": parent_seconds,
        "worker_seconds": worker_seconds,
        "wall_seconds": wall_seconds,
        "overhead_fraction": (parent_seconds + worker_seconds)
        / wall_seconds,
        "chunks": len(chunks),
        "guarded_chunk_seconds": chunk_write,
        "beat_write_seconds": beat_write,
    }


def _best_run(db, jobs):
    best_seconds = float("inf")
    best = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        found, telemetry = mine_recurring_patterns(
            db, **PARAMS, jobs=jobs,
            observability=ObservabilityOptions(collect_stats=True),
        )
        seconds = time.perf_counter() - started
        if seconds < best_seconds:
            best_seconds = seconds
            best = (found, telemetry)
    return best_seconds, best[0], best[1]


def test_parallel_scaling_curve(record_artifact):
    cpus = os.cpu_count() or 1
    hardware_capped = cpus < 2
    runs = []
    rows = []
    large_seconds = {}
    for scale in SCALES:
        db = quest_workload(scale)
        serial_counters = None
        serial_patterns = None
        for jobs in JOB_COUNTS:
            seconds, found, telemetry = _best_run(db, jobs)
            if jobs == 1:
                serial_patterns = found
                serial_counters = telemetry.stats.as_dict()
                baseline = seconds
            else:
                # The contract the speedup curve rides on: identical
                # pattern sets and exactly merged counters.
                assert found == serial_patterns, (scale, jobs)
                assert telemetry.stats.as_dict() == serial_counters
            if scale == SCALES[-1]:
                large_seconds[jobs] = seconds
            speedup = baseline / seconds
            telemetry.dataset = f"quest-{scale:g}"
            record = telemetry.as_run_record()
            record["wall_seconds"] = seconds
            record["speedup_vs_serial"] = speedup
            validate_run_record(record)
            # No faults are injected here, so supervision must be
            # invisible in the counters — tracked over time so a
            # spurious-retry regression shows up in the artefact.
            assert record["counters"]["chunks_retried"] == 0, record
            assert record["counters"]["chunks_fallback"] == 0, record
            runs.append(record)
            rows.append((scale, len(db), jobs, seconds, speedup))

    overhead = _supervision_overhead(quest_workload(SCALES[-1]))

    from repro.bench.reporting import format_table

    record_artifact(
        "parallel_scaling",
        format_table(
            ["scale", "transactions", "jobs", "seconds", "speedup"],
            [
                (s, n, j, f"{sec:.4f}", f"{sp:.2f}x")
                for s, n, j, sec, sp in rows
            ],
            title=f"Parallel scaling, quest (cpus={cpus})",
        ),
    )

    payload = {
        "schema": "repro-bench/v1",
        "benchmark": "parallel_scaling",
        "created_unix": time.time(),
        "params": PARAMS,
        "job_counts": list(JOB_COUNTS),
        "scales": list(SCALES),
        "hardware": {
            "cpu_count": cpus,
            "platform": os.uname().sysname if hasattr(os, "uname") else "?",
        },
        "hardware_capped": hardware_capped,
        "resilience_overhead": overhead,
        "runs": runs,
    }
    if hardware_capped:
        payload["hardware_cap_reason"] = (
            f"os.cpu_count()={cpus}: all worker processes time-slice a "
            "single core, so parallel speedup is physically impossible "
            "here; this bench therefore asserts only result parity and "
            "bounded overhead.  Re-run on a multi-core machine to "
            "record a real speedup curve (>=1.5x at jobs=4 expected; "
            "see docs/performance.md)."
        )
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    if not hardware_capped:
        # The large config must not be slower in parallel than serial.
        assert large_seconds[4] <= large_seconds[1] * (1 + MAX_SLOWDOWN), (
            large_seconds
        )
        # Fault-free supervision must stay under its overhead budget.
        # (On single-CPU hardware the timings are scheduler noise, so
        # the number is recorded but not gated — see the module doc.)
        assert overhead["overhead_fraction"] <= MAX_RESILIENCE_OVERHEAD, (
            overhead
        )
