"""Live progress, ETA and worker-heartbeat reporting for long runs.

The paper's quest-scale grids (Tables 5/7) mine for minutes; until now
the only signs of life were the final telemetry record and — for a hung
worker — the resilience deadline firing.  This module is the live
view:

* :class:`ProgressTracker` — completed/total work units with optional
  per-unit weights (the LPT chunk weights from
  :func:`repro.parallel.plan_chunks` make the ETA honest even when
  chunks are deliberately unequal);
* :class:`ProgressReporter` — rate-limited rendering to a stream:
  carriage-return updates on a TTY, plain appended lines otherwise
  (CI logs stay readable);
* :class:`MiningMonitor` — the façade/sweep/pool-facing surface: a
  *stack* of phases (a sweep's cell progress can wrap a parallel
  mine's chunk progress), worker heartbeat gauges fed by the
  supervisor from the marker-file channel, and stale-worker reports
  ("worker 12345 on chunk 3 silent for 40s") surfaced *before* the
  chunk deadline kills the pool — fault attribution while there is
  still time to care;
* :func:`monitor_from_options` — builds a monitor from
  :class:`~repro.core.options.ObservabilityOptions` (``progress``
  defaults to on only when stderr is a TTY); :func:`open_monitor` is
  its scoped form, which closes only a monitor it built.

Everything degrades gracefully: with no reporter, no registry and no
emitter each call is a cheap no-op *on the monitor*, and with no
monitor at all the mining paths skip the calls entirely.  A serial run
(``jobs=1``) still emits — it is reported as one single-unit phase and
its final stats are published — pinned by the regression tests in
``tests/obs/test_progress.py``.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import ParameterError
from repro.obs.counters import MiningStats
from repro.obs.metrics import (
    MetricsEmitter,
    MetricsRegistry,
    publish_mining_stats,
)

__all__ = [
    "MiningMonitor",
    "ProgressReporter",
    "ProgressTracker",
    "StaleWorkerReport",
    "monitor_from_options",
    "open_monitor",
]

#: Gauge fed by the supervisor for every in-flight chunk.
HEARTBEAT_GAUGE = "repro_worker_heartbeat_age_seconds"


@dataclass(frozen=True)
class StaleWorkerReport:
    """One 'worker went silent' observation, kept for fault attribution.

    ``age_seconds`` is how long the worker's beat file had not been
    touched when the supervisor noticed; ``execution`` identifies which
    attempt of the chunk went quiet.
    """

    chunk: int
    pid: Optional[int]
    age_seconds: float
    execution: int
    at_unix: float

    def describe(self) -> str:
        """The operator-facing one-liner for this observation."""
        who = f"worker {self.pid}" if self.pid is not None else "worker"
        return (
            f"{who} on chunk {self.chunk} silent for "
            f"{self.age_seconds:.1f}s (execution {self.execution})"
        )


class ProgressTracker:
    """Completed vs total work, optionally weighted per unit.

    With ``weights`` (e.g. LPT chunk sizes) the fraction and ETA are
    weight-based: finishing the one huge chunk moves the bar further
    than finishing five tiny ones.  Without weights every unit counts
    equally (``units`` must then be given).
    """

    def __init__(
        self,
        label: str,
        *,
        weights: Optional[Sequence[float]] = None,
        units: Optional[int] = None,
        clock=time.monotonic,
    ) -> None:
        if weights is not None:
            self.weights: Optional[Tuple[float, ...]] = tuple(
                float(w) for w in weights
            )
            self.units = len(self.weights)
            total = sum(self.weights)
            # Degenerate all-zero weights: fall back to uniform units.
            self.total_weight = total if total > 0 else float(self.units)
            if total <= 0:
                self.weights = None
        else:
            if units is None:
                raise ParameterError(
                    f"tracker {label!r} needs weights or units"
                )
            self.weights = None
            self.units = int(units)
            self.total_weight = float(self.units)
        self.label = label
        self.done_units = 0
        self.done_weight = 0.0
        self._clock = clock
        self.started = clock()

    def advance(self, unit: Optional[int] = None) -> None:
        """Mark one unit done (by index when the tracker is weighted)."""
        self.done_units += 1
        if self.weights is not None and unit is not None \
                and 0 <= unit < len(self.weights):
            self.done_weight += self.weights[unit]
        elif self.units:
            self.done_weight += self.total_weight / self.units

    @property
    def fraction(self) -> float:
        if self.total_weight <= 0:
            return 1.0
        return min(1.0, self.done_weight / self.total_weight)

    def eta_seconds(self) -> Optional[float]:
        """Projected remaining seconds; ``None`` before any progress."""
        if self.done_weight <= 0 or self.total_weight <= 0:
            return None
        elapsed = self._clock() - self.started
        remaining = max(0.0, self.total_weight - self.done_weight)
        return elapsed * remaining / self.done_weight

    def line(self) -> str:
        """One status line: units, percentage, elapsed, ETA."""
        elapsed = self._clock() - self.started
        text = (
            f"{self.label}: {self.done_units}/{self.units} "
            f"({self.fraction * 100:.0f}%) elapsed {elapsed:.1f}s"
        )
        eta = self.eta_seconds()
        if eta is not None and self.done_weight < self.total_weight:
            text += f" eta {eta:.1f}s"
        return text


class ProgressReporter:
    """Rate-limited status rendering to a text stream.

    On a TTY the current line is redrawn in place (``\\r``); elsewhere
    each update is an ordinary appended line so CI logs stay useful.
    ``note`` always prints (permanent lines: stale workers, retries);
    ``update`` is rate-limited by ``min_interval``.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        *,
        min_interval: float = 0.1,
        clock=time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self._last = None  # type: Optional[float]
        self._line_open = False
        self._last_width = 0
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    def _write(self, text: str) -> None:
        try:
            self.stream.write(text)
            self.stream.flush()
        except (OSError, ValueError):  # stream closed under us
            pass

    def update(self, text: str, force: bool = False) -> None:
        """Redraw (TTY) or append (non-TTY) the live status line."""
        now = self._clock()
        if not force and self._last is not None \
                and now - self._last < self.min_interval:
            return
        self._last = now
        if self._tty:
            padding = " " * max(0, self._last_width - len(text))
            self._write("\r" + text + padding)
            self._last_width = len(text)
            self._line_open = True
        else:
            self._write(text + "\n")

    def note(self, text: str) -> None:
        """Print a permanent line (never rate-limited)."""
        if self._tty and self._line_open:
            self._write("\r" + " " * self._last_width + "\r")
            self._line_open = False
            self._last_width = 0
        self._write(text + "\n")

    def finish(self, text: Optional[str] = None) -> None:
        """Terminate the live line, optionally with a final message."""
        if text is not None:
            self.note(text)
        elif self._tty and self._line_open:
            self._write("\n")
            self._line_open = False

    def close(self) -> None:
        """Alias for :meth:`finish` (sink-protocol spelling)."""
        self.finish()


class MiningMonitor:
    """The live-observability surface every mining path reports into.

    A monitor owns up to three sinks, all optional:

    * a :class:`ProgressReporter` for human-facing status lines,
    * a :class:`MetricsRegistry` for counters/gauges/histograms,
    * a :class:`MetricsEmitter` for periodic ``repro-metrics/v1``
      snapshots.

    Phases form a stack — ``run_sweep`` opens a cell-level phase, and
    each mined cell's :func:`~repro.parallel.miner.mine_parallel` may
    open a chunk-level phase on top of it.  ``unit_done`` always
    advances the innermost phase.
    """

    def __init__(
        self,
        *,
        reporter: Optional[ProgressReporter] = None,
        registry: Optional[MetricsRegistry] = None,
        emitter: Optional[MetricsEmitter] = None,
        stale_after: float = 10.0,
        clock=time.monotonic,
    ) -> None:
        if stale_after <= 0:
            raise ParameterError(
                f"stale_after must be positive, got {stale_after!r}"
            )
        if emitter is not None and registry is None:
            registry = emitter.registry
        self.reporter = reporter
        self.registry = registry
        self.emitter = emitter
        self.stale_after = stale_after
        self._clock = clock
        self._phases: List[ProgressTracker] = []
        #: Every stale-worker observation of this monitor's lifetime,
        #: deduplicated per (chunk, execution).
        self.stale_reports: List[StaleWorkerReport] = []
        self._stale_seen: Set[Tuple[int, int]] = set()
        self._closed = False

    # -- phase / unit progress -----------------------------------------
    def phase_started(
        self,
        label: str,
        *,
        weights: Optional[Sequence[float]] = None,
        units: Optional[int] = None,
    ) -> ProgressTracker:
        """Push a new innermost phase with ``units`` or LPT ``weights``."""
        tracker = ProgressTracker(
            label, weights=weights, units=units, clock=self._clock
        )
        self._phases.append(tracker)
        if self.reporter is not None:
            self.reporter.update(tracker.line(), force=True)
        return tracker

    def unit_done(self, unit: Optional[int] = None) -> None:
        """Advance the innermost phase by one (weighted) unit."""
        if not self._phases:
            return
        tracker = self._phases[-1]
        tracker.advance(unit)
        if self.reporter is not None:
            self.reporter.update(
                tracker.line(), force=tracker.done_units >= tracker.units
            )
        if self.emitter is not None:
            self.emitter.maybe_emit()

    def phase_finished(self) -> None:
        """Pop the innermost phase."""
        if self._phases:
            self._phases.pop()

    # -- heartbeats ----------------------------------------------------
    def worker_beat(
        self, chunk: int, pid: Optional[int], age: float
    ) -> None:
        """Record one heartbeat-age observation for an in-flight chunk."""
        if self.registry is not None:
            self.registry.gauge(
                HEARTBEAT_GAUGE,
                {
                    "chunk": str(chunk),
                    "pid": str(pid) if pid is not None else "unknown",
                },
            ).set(age)

    def worker_stale(
        self,
        chunk: int,
        pid: Optional[int],
        age: float,
        execution: int = 1,
    ) -> Optional[StaleWorkerReport]:
        """Report a silent worker (once per chunk execution).

        Returns the new report, or ``None`` when this execution was
        already reported.
        """
        key = (chunk, execution)
        if key in self._stale_seen:
            return None
        self._stale_seen.add(key)
        report = StaleWorkerReport(
            chunk=chunk,
            pid=pid,
            age_seconds=age,
            execution=execution,
            at_unix=time.time(),
        )
        self.stale_reports.append(report)
        if self.registry is not None:
            self.registry.counter("repro_worker_stale_total").inc()
        if self.reporter is not None:
            self.reporter.note(f"stale heartbeat: {report.describe()}")
        return report

    def serial_beat(self) -> None:
        """Heartbeat of an in-process (serial) execution.

        Serial runs have no worker pool, but 'progress or metrics with
        jobs=1 must still emit': the current process reports itself
        under the same gauge, chunk label ``serial``.
        """
        if self.registry is not None:
            self.registry.gauge(
                HEARTBEAT_GAUGE,
                {"chunk": "serial", "pid": str(os.getpid())},
            ).set(0.0)

    # -- fault + run events --------------------------------------------
    def fault(self, action: str, chunk: int, reason: str) -> None:
        """Surface one supervised fault (retry / fallback / raise)."""
        if self.registry is not None:
            self.registry.counter(
                "repro_chunk_faults_total", {"action": action}
            ).inc()
        if self.reporter is not None:
            self.reporter.note(f"chunk {chunk} {action}: {reason}")

    def run_finished(
        self,
        *,
        engine: str,
        stats: Optional[MiningStats],
        seconds: float,
        patterns_found: int,
        note: Optional[str] = None,
    ) -> None:
        """Publish one completed run's totals and print the final line."""
        if self.registry is not None:
            if stats is not None:
                publish_mining_stats(self.registry, stats, engine=engine)
            self.registry.counter(
                "repro_runs_total", {"engine": engine}
            ).inc()
            self.registry.histogram(
                "repro_run_seconds", {"engine": engine}
            ).observe(seconds)
        if self.emitter is not None:
            self.emitter.emit()
        if self.reporter is not None:
            self.reporter.finish(
                note
                if note is not None
                else (
                    f"{engine}: {patterns_found} patterns "
                    f"in {seconds:.2f}s"
                )
            )

    def close(self) -> None:
        """Flush and release the sinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.emitter is not None:
            self.emitter.close()
        if self.reporter is not None:
            self.reporter.close()


def monitor_from_options(
    options: Optional[object],
) -> Optional["MiningMonitor"]:
    """Build the monitor one run's options ask for, or ``None``.

    ``options.monitor`` (an injected :class:`MiningMonitor`) wins
    outright — the caller then owns its lifecycle.  Otherwise a monitor
    is assembled from ``progress`` (``None`` = auto: on only when
    stderr is a TTY) and ``metrics`` (a path/handle for periodic
    ``repro-metrics/v1`` snapshots).  Returns ``None`` when nothing is
    enabled, so the mining paths skip all monitor calls.
    """
    if options is None:
        return None
    injected = getattr(options, "monitor", None)
    if injected is not None:
        return injected
    progress = getattr(options, "progress", None)
    if progress is None:
        try:
            progress = bool(sys.stderr.isatty())
        except (AttributeError, ValueError):
            progress = False
    metrics = getattr(options, "metrics", None)
    if not progress and metrics is None:
        return None
    reporter = ProgressReporter() if progress else None
    emitter = None
    if metrics is not None:
        emitter = MetricsEmitter(MetricsRegistry(), metrics)
    return MiningMonitor(reporter=reporter, emitter=emitter)


@contextmanager
def open_monitor(
    options: Optional[object],
) -> Iterator[Optional["MiningMonitor"]]:
    """:func:`monitor_from_options` for one run, closed on exit.

    Only a monitor built here is closed: an injected
    ``options.monitor`` belongs to its caller and stays open.
    """
    monitor = monitor_from_options(options)
    try:
        yield monitor
    finally:
        if monitor is not None and monitor is not getattr(
            options, "monitor", None
        ):
            monitor.close()
