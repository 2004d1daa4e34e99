"""Fault-tolerant supervision of the parallel mining pool.

PR 2's fan-out was fire-and-forget: one ``future.result()`` per chunk,
so a single OOM-killed fork, pickling failure or hung worker aborted
the whole mine with a bare ``BrokenProcessPool`` and no partial result.
This module is the supervision layer between
:func:`~repro.parallel.miner.mine_parallel` and the
``ProcessPoolExecutor``:

* **detection** — per-chunk worker exceptions, corrupted (poisoned)
  result payloads, pool breakage (``BrokenProcessPool``) and per-chunk
  ``timeout=`` deadlines are all recognised and *attributed to a
  specific chunk* using the beat/done marker protocol of
  :mod:`repro.parallel.faults`;
* **retry** — a failed chunk is resubmitted up to
  ``max_retries`` times with exponential backoff and deterministic
  jitter (:func:`_retry_delay`), to a fresh pool when the previous one
  died;
* **degradation** — once retries are exhausted the chunk is re-mined
  in-process by the serial engine code (``fallback="serial"``, the
  default: the mine *always* completes), or collected into a
  :class:`~repro.exceptions.ChunkFailedError` naming the missing
  prefixes and carrying the partial pattern set
  (``fallback="raise"``);
* **telemetry** — every retry and fallback is recorded as a
  :class:`FaultEvent` (surfaced as the ``faults`` section of the
  ``repro-run/v1`` trace record and the ``chunks_retried`` /
  ``chunks_fallback`` counters) and reported to the monitor;
* **liveness** — with a :class:`~repro.obs.progress.MiningMonitor`
  attached, each accepted chunk advances the live progress bar, every
  in-flight chunk's heartbeat age (from the ``beat-*`` marker files of
  :mod:`repro.parallel.faults`) feeds a per-worker gauge, and a worker
  silent past ``monitor.stale_after`` is reported as a stale-heartbeat
  hint *before* its deadline kills the pool — so when the deadline
  does fire, the fault is already attributed.

Correctness note: recurring patterns are not anti-monotone (Example 10
of the paper), so a recovery path may not *approximate* — it must
re-execute exactly the lost sub-problem.  Both recovery paths here
re-run the identical chunk function on the identical payload (in a
fresh worker, or in-process), and merged ``MiningStats`` are taken
from exactly one accepted execution per chunk, so the recovered
result and counters stay byte-identical to the serial oracle.  The
fault-injection matrix in ``tests/parallel/test_resilience.py``
asserts this for every fault kind and engine.
"""

from __future__ import annotations

import multiprocessing
import random
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.options import ResilienceOptions
from repro.parallel import faults as _faults

__all__ = [
    "FaultEvent",
    "supervise",
]

#: Consecutive pool deaths with no chunk ever starting before the
#: supervisor charges the failure to the chunks themselves (guards
#: against e.g. an initializer that crashes every fresh pool).
_MAX_BARREN_POOL_DEATHS = 2

#: Base delay in seconds before a chunk's first retry; it doubles with
#: each further failure of the same chunk.
RETRY_BACKOFF = 0.05
#: Upper bound on the doubled base delay.
RETRY_MAX_DELAY = 2.0
#: Largest fractional jitter added on top of the base delay.
RETRY_JITTER = 0.25


def _retry_delay(chunk: int, failures: int) -> float:
    """Backoff before retry number ``failures`` of ``chunk``.

    ``RETRY_BACKOFF * 2**(failures - 1)`` capped at ``RETRY_MAX_DELAY``,
    plus up to ``RETRY_JITTER`` of that base.  The jitter is drawn from
    a generator seeded with ``(chunk, failures)``, so a rerun of the
    same failing run waits the same amounts and the whole supervision
    schedule stays reproducible.
    """
    base = min(RETRY_BACKOFF * (2 ** (failures - 1)), RETRY_MAX_DELAY)
    rng = random.Random((chunk + 1) * 2654435761 + failures)
    return base * (1.0 + RETRY_JITTER * rng.random())


@dataclass(frozen=True)
class FaultEvent:
    """One supervised failure: what went wrong and what was done.

    ``action`` is ``"retry"`` (resubmitted to a pool),
    ``"fallback-serial"`` (re-mined in-process) or ``"raise"``
    (collected into a ``ChunkFailedError``).
    """

    chunk: int
    execution: int
    reason: str
    action: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (used by the ``faults`` trace section)."""
        return {
            "chunk": self.chunk,
            "execution": self.execution,
            "reason": self.reason,
            "action": self.action,
        }


@dataclass
class _ChunkState:
    """Parent-side bookkeeping for one chunk."""

    executions: int = 0  # submissions known to have actually run
    failures: int = 0  # failures attributed to this chunk


@dataclass(frozen=True)
class _Flight:
    """One in-flight submission."""

    chunk: int
    execution: int
    deadline: Optional[float]


def _valid_result(value: object) -> bool:
    """Is ``value`` a structurally sound ``(patterns, stats, seconds)``?

    The import lives inside the function so this module stays cheap to
    import from worker processes.
    """
    from repro.core.model import RecurringPattern
    from repro.obs.counters import MiningStats

    if not isinstance(value, tuple) or len(value) != 3:
        return False
    patterns, stats, seconds = value
    if not isinstance(patterns, list) or not isinstance(stats, MiningStats):
        return False
    if not all(isinstance(p, RecurringPattern) for p in patterns):
        return False
    return isinstance(seconds, float)


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, hung or dead workers included.

    ``shutdown(wait=False, cancel_futures=True)`` alone would leave a
    hung worker sleeping forever (and the interpreter joining it at
    exit), so the worker processes are terminated explicitly.  The
    ``_processes`` attribute is CPython's; the ``getattr`` guard keeps
    alternative implementations merely slower, not broken.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # already gone
            continue
    for process in processes:
        process.join(timeout=5)
        if process.is_alive():  # pragma: no cover - stuck in kernel
            process.kill()
            process.join(timeout=5)


def supervise(
    *,
    workers: int,
    initializer: Callable[..., None],
    initargs: tuple,
    chunk_fn: Callable,
    payloads: Sequence[object],
    resilience: ResilienceOptions,
    monitor=None,
) -> Tuple[List[Optional[tuple]], List[FaultEvent], List[int]]:
    """Run every chunk to an accepted result, a fallback, or a verdict.

    ``chunk_fn(chunk_id, payloads[chunk_id])`` is the engine's chunk
    function, ``initializer(*initargs)`` its per-worker setup.  The
    in-process fallback never runs the initializer: it calls
    ``chunk_fn(chunk_id, payload, initargs)``, so the parent's globals
    never hold worker state.  The supervisor wraps both — workers run
    :func:`repro.parallel.faults.guarded_chunk` under a chained
    initializer that installs ``resilience.fault_plan`` (``None`` in
    production) and the failure-attribution markers.  ``workers`` is
    the pool size; a pool starts its workers with ``fork`` where
    :func:`multiprocessing.get_all_start_methods` offers it (cheap,
    inherits the imported library), else with ``spawn``.  Both work
    because worker state travels through the initializer.
    ``resilience`` is the run's
    :class:`~repro.core.options.ResilienceOptions`: its ``timeout`` is
    the per-chunk deadline, measured from submission to the pool (a
    chunk *executing* past it is charged a failure; one whose deadline
    lapsed while still queued behind others is merely resubmitted),
    ``max_retries`` the failures a chunk may accumulate before
    ``fallback`` applies.

    ``monitor`` (a :class:`~repro.obs.progress.MiningMonitor`, or
    ``None``) receives ``unit_done`` per accepted chunk, heartbeat-age
    gauges for in-flight chunks, stale-worker reports past
    ``monitor.stale_after`` and one ``fault`` call per handled failure.

    Returns
    -------
    (results, events, failed):
        ``results[i]`` is chunk ``i``'s accepted ``(patterns, stats,
        seconds)`` triple — from its first successful pool execution, or
        from the in-process serial fallback — or ``None`` when the
        chunk failed terminally under ``fallback="raise"``; ``events``
        is the fault log; ``failed`` lists the terminally failed chunk
        ids (always empty with ``fallback="serial"``).

    Each chunk's stats triple is accepted **exactly once**, so merging
    the returned triples reproduces the serial counters even when a
    chunk was executed several times.
    """
    total = len(payloads)
    results: List[Optional[tuple]] = [None] * total
    events: List[FaultEvent] = []
    failed: List[int] = []
    if total == 0:
        return results, events, failed

    states = [_ChunkState() for _ in range(total)]
    marker_dir = tempfile.mkdtemp(prefix="repro-chunk-markers-")
    pool: Optional[ProcessPoolExecutor] = None
    in_flight: Dict[Future, _Flight] = {}
    # (chunk id, not-before monotonic time); submission order preserves
    # the deterministic largest-first chunk plan.
    queue: List[Tuple[int, float]] = [(index, 0.0) for index in range(total)]
    barren_pool_deaths = 0
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            workers,
            context,
            initializer=_faults.init_worker,
            initargs=(
                resilience.fault_plan, marker_dir, initializer, initargs
            ),
        )

    def run_serial_fallback(chunk: int) -> None:
        """Re-mine one chunk in-process with the serial engine code."""
        results[chunk] = chunk_fn(chunk, payloads[chunk], initargs)
        if monitor is not None:
            # A serial fallback still counts as progress — requesting
            # live output must never go silent just because the pool
            # degraded (the track_memory no-op lesson).
            monitor.serial_beat()
            monitor.unit_done(chunk)

    def handle_failure(chunk: int, execution: int, reason: str) -> None:
        """Charge a failure to ``chunk``; retry, fall back, or record."""
        state = states[chunk]
        state.failures += 1
        if state.failures <= resilience.max_retries:
            events.append(FaultEvent(chunk, execution, reason, "retry"))
            if monitor is not None:
                monitor.fault("retry", chunk, reason)
            queue.append(
                (chunk, time.monotonic() + _retry_delay(chunk, state.failures))
            )
        elif resilience.fallback == "serial":
            events.append(
                FaultEvent(chunk, execution, reason, "fallback-serial")
            )
            if monitor is not None:
                monitor.fault("fallback-serial", chunk, reason)
            run_serial_fallback(chunk)
        else:
            events.append(FaultEvent(chunk, execution, reason, "raise"))
            if monitor is not None:
                monitor.fault("raise", chunk, reason)
            failed.append(chunk)

    def requeue_after_pool_death(flight: _Flight, reason: str) -> None:
        """Marker-based attribution after the pool died under us."""
        started = _faults.has_marker(
            marker_dir, "beat", flight.chunk, flight.execution
        )
        finished = _faults.has_marker(
            marker_dir, "done", flight.chunk, flight.execution
        )
        if started:
            states[flight.chunk].executions = flight.execution
        if started and not finished:
            handle_failure(flight.chunk, flight.execution, reason)
        else:
            # Never started, or completed with the result lost in
            # transit: re-execute without charging a retry.
            queue.append((flight.chunk, time.monotonic()))

    def check_heartbeats() -> None:
        """Read every in-flight chunk's beat file into the monitor.

        Beat mtimes are wall-clock stamps from the workers' own
        writes; parent and workers share the filesystem, so the age is
        directly comparable to ``time.time()``.  Chunks whose beat file
        does not exist yet (still queued inside the pool) are skipped —
        a worker that never started is not silent, just waiting.
        """
        now_wall = time.time()
        for flight in in_flight.values():
            beat = _faults.latest_beat(
                marker_dir, flight.chunk, flight.execution
            )
            if beat is None:
                continue
            mtime, pid = beat
            age = max(0.0, now_wall - mtime)
            monitor.worker_beat(flight.chunk, pid, age)
            if age >= monitor.stale_after:
                monitor.worker_stale(
                    flight.chunk, pid, age, execution=flight.execution
                )

    def drain_pool(reason: str, charge_all: bool) -> None:
        """Tear the pool down and reschedule everything in flight."""
        nonlocal pool
        if pool is not None:
            _stop_pool(pool)
            pool = None
        flights = list(in_flight.values())
        in_flight.clear()
        for flight in flights:
            if charge_all:
                states[flight.chunk].executions = flight.execution
                handle_failure(flight.chunk, flight.execution, reason)
            else:
                requeue_after_pool_death(flight, reason)

    try:
        while queue or in_flight:
            now = time.monotonic()
            # -- submit everything whose backoff has elapsed ------------
            ready = [entry for entry in queue if entry[1] <= now]
            if ready:
                queue[:] = [entry for entry in queue if entry[1] > now]
                for chunk, _ in ready:
                    execution = states[chunk].executions + 1
                    deadline = (
                        now + resilience.timeout
                        if resilience.timeout is not None
                        else None
                    )
                    try:
                        if pool is None:
                            pool = make_pool()
                        future = pool.submit(
                            _faults.guarded_chunk,
                            chunk_fn,
                            chunk,
                            payloads[chunk],
                            execution,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        # The pool died between submissions; rebuild
                        # once and let the next loop iteration resubmit.
                        drain_pool("worker pool broke", charge_all=False)
                        queue.append((chunk, time.monotonic()))
                        continue
                    in_flight[future] = _Flight(chunk, execution, deadline)

            if not in_flight:
                if queue:  # everything is backing off
                    time.sleep(
                        max(0.0, min(t for _, t in queue) - time.monotonic())
                    )
                continue

            # -- wait for a completion, a deadline, or a backoff expiry -
            wake_times = [
                flight.deadline
                for flight in in_flight.values()
                if flight.deadline is not None
            ]
            wake_times.extend(t for _, t in queue)
            if monitor is not None:
                # Wake often enough to notice a silent worker well
                # before stale_after has fully elapsed again.
                poll = min(1.0, max(0.02, monitor.stale_after / 4.0))
                wake_times.append(time.monotonic() + poll)
            wait_timeout = (
                max(0.0, min(wake_times) - time.monotonic())
                if wake_times
                else None
            )
            done, _ = futures_wait(
                set(in_flight), timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )
            if monitor is not None:
                check_heartbeats()

            # -- completions first: keep every result that made it back -
            pool_broke = False
            for future in done:
                flight = in_flight.pop(future)
                error = future.exception()
                if error is None:
                    states[flight.chunk].executions = flight.execution
                    value = future.result()
                    if _valid_result(value):
                        if results[flight.chunk] is None:
                            results[flight.chunk] = value
                            if monitor is not None:
                                monitor.unit_done(flight.chunk)
                    else:
                        handle_failure(
                            flight.chunk,
                            flight.execution,
                            f"poisoned result ({type(value).__name__})",
                        )
                elif isinstance(error, BrokenProcessPool):
                    pool_broke = True
                    in_flight[future] = flight  # handled by drain below
                else:
                    states[flight.chunk].executions = flight.execution
                    handle_failure(
                        flight.chunk,
                        flight.execution,
                        f"worker error: {error!r}",
                    )

            if pool_broke:
                had_started = any(
                    _faults.has_marker(
                        marker_dir, "beat", flight.chunk, flight.execution
                    )
                    for flight in in_flight.values()
                )
                if had_started:
                    barren_pool_deaths = 0
                    drain_pool("worker crashed (pool broke)",
                               charge_all=False)
                else:
                    # The pool died before any chunk ran — likely the
                    # pool itself (initializer, start method) is the
                    # problem.  Retry a bounded number of times, then
                    # charge the chunks so the fallback can decide.
                    barren_pool_deaths += 1
                    drain_pool(
                        "worker pool died before any chunk started",
                        charge_all=barren_pool_deaths
                        >= _MAX_BARREN_POOL_DEATHS,
                    )
                continue

            # -- deadlines: only *executing* chunks are charged ---------
            now = time.monotonic()
            expired = [
                flight
                for flight in in_flight.values()
                if flight.deadline is not None and flight.deadline <= now
            ]
            if expired:
                # A hung worker cannot be cancelled individually, so the
                # whole pool is recycled; chunks that were merely queued
                # are resubmitted without losing a retry credit.
                drain_pool("deadline exceeded", charge_all=False)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        shutil.rmtree(marker_dir, ignore_errors=True)

    return results, events, failed
