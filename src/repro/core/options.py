"""Options objects for the public mining API.

Two frozen dataclasses bundle the cross-cutting knobs so that every
entry point (:func:`repro.mine_recurring_patterns`,
:func:`repro.sweep.run_sweep`, the CLI, the bench harness) shares the
same vocabulary:

* :class:`ResilienceOptions` — how parallel chunk failures are
  detected and handled;
* :class:`ObservabilityOptions` — what is measured and where it is
  written.

No entry point takes these knobs as flat keywords; passing one (say
``timeout=``) is a plain :class:`TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Optional, Union

from repro.exceptions import ParameterError

__all__ = ["ObservabilityOptions", "ResilienceOptions"]


@dataclass(frozen=True)
class ResilienceOptions:
    """How parallel mining handles failing chunks (:mod:`repro.parallel`).

    Attributes
    ----------
    timeout:
        Per-chunk deadline in seconds (``None`` disables deadlines).
    max_retries:
        Failed executions a chunk may accumulate before ``fallback``
        applies (default 2).
    fallback:
        ``"serial"`` (default) re-mines exhausted chunks in-process;
        ``"raise"`` raises :class:`~repro.exceptions.ChunkFailedError`.
    fault_plan:
        A :class:`~repro.parallel.faults.FaultPlan` injecting
        deterministic worker failures — testing hook.

    All fields are ignored for serial runs (``jobs in (None, 1)``).

    Examples
    --------
    >>> ResilienceOptions(timeout=30.0).fallback
    'serial'
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    fallback: str = "serial"
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if self.timeout is not None:
            if isinstance(self.timeout, bool) or not isinstance(
                self.timeout, (int, float)
            ) or self.timeout <= 0:
                raise ParameterError(
                    f"timeout must be a positive number or None, "
                    f"got {self.timeout!r}"
                )
        if isinstance(self.max_retries, bool) or not isinstance(
            self.max_retries, int
        ) or self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be a non-negative int, "
                f"got {self.max_retries!r}"
            )
        if self.fallback not in ("serial", "raise"):
            raise ParameterError(
                f"fallback must be 'serial' or 'raise', "
                f"got {self.fallback!r}"
            )


@dataclass(frozen=True)
class ObservabilityOptions:
    """What one mining run measures and where it is written.

    Attributes
    ----------
    collect_stats:
        Also return a :class:`~repro.obs.report.MiningTelemetry` as
        the second element of a tuple.
    trace:
        Path (or open text handle) for a JSON-lines trace; implies
        telemetry collection without changing the return type.
    track_memory:
        Sample per-span peak memory via ``tracemalloc`` (slower).
        Only meaningful when telemetry is collected at all — the
        façade warns and ignores it otherwise.
    dataset:
        Optional dataset label carried into the telemetry/trace.
    progress:
        Live progress/ETA lines on stderr.  ``None`` (default) = auto:
        on only when stderr is a TTY; ``True``/``False`` force it.
    metrics:
        Path (or open text handle) for periodic ``repro-metrics/v1``
        snapshot records (see :mod:`repro.obs.metrics`).  ``None``
        (default) disables metrics emission.
    monitor:
        An injected :class:`~repro.obs.progress.MiningMonitor` used
        *instead* of building one from the flags above — the caller
        then owns its lifecycle (tests, an application sharing one
        monitor across runs).  A monitor built from the flags uses
        the defaults of :class:`~repro.obs.metrics.MetricsEmitter`
        (one snapshot per second at most) and
        :class:`~repro.obs.progress.MiningMonitor` (a worker silent
        for 10 s is stale).

    Examples
    --------
    >>> ObservabilityOptions(collect_stats=True).enabled
    True
    >>> ObservabilityOptions(track_memory=True).enabled
    False
    """

    collect_stats: bool = False
    trace: Union[str, IO[str], None] = None
    track_memory: bool = False
    dataset: Optional[str] = None
    progress: Optional[bool] = None
    metrics: Union[str, IO[str], None] = None
    monitor: Optional[object] = None

    def __post_init__(self) -> None:
        if self.progress is not None and not isinstance(
            self.progress, bool
        ):
            raise ParameterError(
                f"progress must be True, False or None (auto), "
                f"got {self.progress!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when telemetry is built at all (stats or trace)."""
        return bool(self.collect_stats) or self.trace is not None
