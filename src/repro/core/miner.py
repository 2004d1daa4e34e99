"""Public mining façade.

:func:`mine_recurring_patterns` is the one-call entry point most users
need: it accepts either a :class:`~repro.timeseries.events.EventSequence`
(a raw time series, converted losslessly to a transactional database
first) or a :class:`~repro.timeseries.database.TransactionalDatabase`,
picks an engine from the registry (:mod:`repro.core.engines`) and
returns a :class:`~repro.core.model.RecurringPatternSet`.

Cross-cutting behaviour is configured through two options objects
(:mod:`repro.core.options`): ``resilience=ResilienceOptions(...)`` for
the parallel failure handling and
``observability=ObservabilityOptions(...)`` for telemetry.

Internally the façade is a thin constructor over the unified request
object: it builds a validated
:class:`~repro.core.request.MiningRequest` and hands it to
:func:`execute_request`, the single executor the CLI, the sweep
engine's cell scheduler, the shard pipeline and the service daemon all
share.
"""

from __future__ import annotations

import warnings
from typing import Callable, List, Optional, Tuple, TypeVar, Union

from repro._gc import paused_gc
from repro._validation import Number, resolve_count_threshold
from repro.core.engines import get_engine
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.core.model import RecurringPatternSet
from repro.core.request import MiningRequest
from repro.exceptions import ParameterError
from repro.obs.counters import MiningStats
from repro.obs.report import MiningTelemetry, profile_call
from repro.obs.spans import span
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import EventSequence

__all__ = [
    "execute_request",
    "mine_recurring_patterns",
    "mine_serial",
    "run_request",
]

Source = Union[EventSequence, TransactionalDatabase]
T = TypeVar("T")

#: The warning :func:`execute_request` gives when a fractional
#: ``min_ps`` resolves to one transaction.
_MIN_PS_OF_ONE = (
    "fractional min_ps resolves to 1 transaction: every itemset that "
    "occurs is recurring, so the search can grow with every "
    "combination of co-occurring items; raise min_ps, or pass the int "
    "1 to mean it"
)


def mine_recurring_patterns(
    data: Source,
    per: Number,
    min_ps: Union[int, float],
    min_rec: int = 1,
    engine: str = "rp-growth",
    *,
    jobs: Optional[int] = None,
    shards: Optional[int] = None,
    max_events_in_memory: Optional[int] = None,
    resilience: Optional[ResilienceOptions] = None,
    observability: Optional[ObservabilityOptions] = None,
) -> Union[
    RecurringPatternSet, Tuple[RecurringPatternSet, MiningTelemetry]
]:
    """Discover all recurring patterns in a time series or database.

    Parameters
    ----------
    data:
        An :class:`EventSequence` (grouped into a transactional database
        first, as in Section 3 of the paper) or a ready
        :class:`TransactionalDatabase`.
    per:
        Period threshold: an inter-arrival time is a periodic
        (interesting) occurrence when it is ≤ ``per``.
    min_ps:
        Minimum periodic-support — the minimum number of consecutive
        cyclic repetitions a periodic-interval must contain to be
        interesting.  ``int`` = absolute count; ``float`` in (0, 1] =
        fraction of the database size.
    min_rec:
        Minimum recurrence — the minimum number of interesting
        periodic-intervals a pattern must have (default 1).
    engine:
        A name from the engine registry
        (:func:`repro.core.engines.engine_names`): ``"rp-growth"`` (the
        paper's algorithm, default), ``"rp-eclat-vec"`` (batched
        columnar NumPy kernel) or ``"naive"`` (exhaustive; small inputs
        only).  Engines added via
        :func:`repro.core.engines.register_engine` work here too.
    jobs:
        Worker-process count.  ``None`` or ``1`` mines serially
        (byte-identical to earlier releases); ``jobs > 1`` partitions
        the search space by prefix and mines it in a process pool
        (:mod:`repro.parallel`) — the returned pattern set and the
        merged counters are identical to the serial run's.  Only
        engines whose registry entry has ``supports_jobs`` accept
        ``jobs > 1`` (the ``naive`` reference does not).  See
        ``docs/performance.md`` for when parallelism actually pays.
    shards:
        Route the mine through the time-sharded pipeline
        (:mod:`repro.shard`) with this many balanced shards.  The
        result is byte-identical to the direct mine for any shard
        count; each shard still mines through ``engine`` / ``jobs`` /
        ``resilience``.  Mutually exclusive with
        ``max_events_in_memory``.
    max_events_in_memory:
        Like ``shards``, but bounded by memory instead of count: no
        shard holds more than this many transactions.  This is the
        out-of-core knob — see ``repro-mine shard`` for the variant
        that streams straight from a file without ever loading it.
    resilience:
        A :class:`~repro.core.options.ResilienceOptions` bundling the
        parallel failure-handling knobs (per-chunk ``timeout``,
        ``max_retries``, ``fallback``, ``fault_plan``).  Ignored when
        mining serially.
    observability:
        An :class:`~repro.core.options.ObservabilityOptions` bundling
        the telemetry knobs (``collect_stats``, ``trace``,
        ``track_memory``, ``dataset``).

    Returns
    -------
    RecurringPatternSet or (RecurringPatternSet, MiningTelemetry)
        Every pattern satisfying Definition 9, each carrying its
        support, recurrence and interesting periodic-intervals.  The
        return value is a ``(patterns, telemetry)`` tuple **iff**
        ``collect_stats`` is true; with ``trace`` alone the full
        telemetry is still built and written to the trace file, but
        only the pattern set is returned.  ``track_memory`` without
        ``collect_stats`` or ``trace`` has nothing to attach its
        samples to — the call warns (``RuntimeWarning``) and mines
        without memory tracking instead of silently ignoring it.

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> found = mine_recurring_patterns(
    ...     paper_running_example(), per=2, min_ps=3, min_rec=2)
    >>> print(found.pattern("ab"))
    ab [support=7, recurrence=2, {[1, 4]:3, [11, 14]:3}]
    >>> from repro import ObservabilityOptions
    >>> found, telemetry = mine_recurring_patterns(
    ...     paper_running_example(), per=2, min_ps=3, min_rec=2,
    ...     observability=ObservabilityOptions(collect_stats=True))
    >>> telemetry.stats.patterns_found
    8
    """
    # Engine first (its message names the registry), then the threshold
    # triple — the engines would reject the same values, but only after
    # the transform span has run (and, for parallel runs, potentially
    # inside a worker).  MiningRequest construction validates everything
    # eagerly with the shared _validation.py messages.
    get_engine(engine)
    request = MiningRequest(
        per=per,
        min_ps=min_ps,
        min_rec=min_rec,
        engine=engine,
        jobs=jobs,
        shards=shards,
        max_events_in_memory=max_events_in_memory,
        resilience=ResilienceOptions() if resilience is None else resilience,
        observability=(
            ObservabilityOptions() if observability is None else observability
        ),
    )
    return execute_request(request, data)


def execute_request(
    request: MiningRequest,
    data: Optional[Source] = None,
    *,
    dataset_digest: Optional[str] = None,
) -> Union[
    RecurringPatternSet, Tuple[RecurringPatternSet, MiningTelemetry]
]:
    """Execute one validated :class:`~repro.core.request.MiningRequest`.

    This is the single dispatch every mining surface shares: the façade
    builds a request from its keywords, the CLI builds one from its
    flags, the sweep engine builds one per mined cell, and the service
    daemon receives one over HTTP.  ``data`` supplies the database (or
    event sequence) directly; when omitted, ``request.source`` is
    loaded — a request with neither is unexecutable and raises
    :class:`~repro.exceptions.ParameterError`.

    The return contract is the façade's: the pattern set, or
    ``(patterns, telemetry)`` when ``observability.collect_stats`` is
    true.  When telemetry is collected, the ``repro-run/v1`` record
    additionally carries the database's content ``dataset_digest`` —
    the same digest the service result cache keys on; a caller that
    already holds it passes ``dataset_digest`` (the daemon's memo maps
    a file's bytes to it), and the database is not hashed again.
    Monitor, spans, telemetry and trace come from
    :func:`repro.obs.profile_call`.  A fractional ``min_ps`` that
    resolves to one transaction warns (``RuntimeWarning``) before
    mining: every itemset that occurs would be recurring.
    """
    if data is None:
        if request.source is None:
            raise ParameterError(
                "request has no dataset: pass data to execute_request "
                "or build the MiningRequest with source=DatasetRef(...)"
            )
        data = request.source.load()

    def run(monitor):
        with span("transform"):
            database = _as_database(data)
        size = len(database)
        if isinstance(request.min_ps, float) and size and (
            resolve_count_threshold(request.min_ps, "min_ps", size) == 1
        ):
            warnings.warn(_MIN_PS_OF_ONE, RuntimeWarning)
        if request.sharded:
            from repro.shard.miner import mine_sharded_request

            found, stats, faults, report = mine_sharded_request(
                database, request, monitor=monitor
            )
        else:
            found, stats, faults = run_request(
                database, request, monitor=monitor
            )
            report = None
        return found, stats, lambda: _record_extra(
            dataset_digest or database.digest(), stats, faults, report
        )

    obs = request.observability
    params: dict = request.thresholds()
    if request.jobs > 1:
        params["jobs"] = request.jobs
    result, telemetry = profile_call(
        run,
        request.engine,
        obs,
        params=params,
        dataset=None if request.source is None else request.source.label,
    )
    if obs.collect_stats:
        return result, telemetry
    return result


def run_request(
    database: TransactionalDatabase,
    request: MiningRequest,
    *,
    monitor=None,
) -> Tuple[RecurringPatternSet, MiningStats, List]:
    """One direct (non-sharded) engine run of a request.

    The low-level sibling of :func:`execute_request`: no telemetry
    packaging, no transform — the caller owns the database and the span
    collector.  The sweep engine mines every grid cell and the shard
    pipeline every shard through this, so one
    :class:`~repro.core.request.MiningRequest` vocabulary covers
    scheduled cells and shards exactly like one-shot mines.  Returns
    ``(patterns, stats, fault_events)``; the fault log is empty for
    serial runs and for fault-free parallel runs.  ``monitor`` (a
    :class:`~repro.obs.progress.MiningMonitor`) receives live progress
    on both paths.

    The cyclic collector is paused for the whole run: the engine's
    object graph (the RP-tree, in the parallel parent too) stays live
    until the run ends, so a collection during it finds no garbage.
    """
    with paused_gc():
        if request.jobs > 1:
            from repro.parallel.miner import mine_parallel

            return mine_parallel(database, request, monitor=monitor)
        serial = get_engine(request.engine).factory(
            request.per, request.min_ps, request.min_rec
        )
        result = mine_serial(
            f"mine[{request.engine}]",
            lambda: serial.mine(database),
            monitor,
        )
        return result, serial.last_stats or MiningStats(), []


def mine_serial(label: str, mine: Callable[[], T], monitor=None) -> T:
    """Run ``mine()`` in-process as one single-unit monitor phase.

    ``monitor`` sees the run as a one-unit ``label`` phase plus the
    in-process heartbeat, so progress and metrics never go silent on a
    serial path: :func:`run_request` (``mine[engine]``) and the CLI's
    noise-tolerant and baseline miners.
    """
    if monitor is None:
        return mine()
    monitor.phase_started(label, units=1)
    try:
        result = mine()
        monitor.unit_done(0)
        monitor.serial_beat()
    finally:
        monitor.phase_finished()
    return result


def _record_extra(digest, stats, faults, report) -> dict:
    """A run record's extra fields: digest, shard report, fault log."""
    extra: dict = {"dataset_digest": digest}
    if report is not None:
        extra["shards"] = report.as_dict()
    if faults:
        extra["faults"] = {
            "chunks_retried": stats.chunks_retried,
            "chunks_fallback": stats.chunks_fallback,
            "events": [event.as_dict() for event in faults],
        }
    return extra


def _as_database(data: Source) -> TransactionalDatabase:
    if isinstance(data, TransactionalDatabase):
        return data
    if isinstance(data, EventSequence):
        return TransactionalDatabase.from_events(data)
    raise TypeError(
        "data must be an EventSequence or TransactionalDatabase, "
        f"got {type(data).__name__}"
    )
