"""Out-of-core, time-sharded mining (plan → mine shards → verify → merge).

The pipeline turns the split/merge theorem into an execution path whose
output is byte-identical to in-memory mining while never holding more
than one shard (plus output-sized candidate state) in memory:

1. **Plan** — :class:`~repro.shard.planner.ShardPlanner` cuts the time
   axis into bounded shards (never splitting a timestamp).
2. **Mine** — every shard mines independently through the existing
   engine / parallel / resilience stack at the caller's ``per``
   and ``min_ps`` but relaxed ``min_rec = 1``: any pattern with an
   interesting interval wholly inside some shard becomes a candidate.
   Meanwhile a :class:`~repro.shard.candidates.BoundaryWindowCollector`
   retains the transactions within ``per`` of each cut, from which the
   cut-spanning candidates are enumerated — together the two candidate
   sources form a proven superset of the true result (see
   ``docs/performance.md``).
3. **Verify** — a second pass over the shards computes each candidate's
   exact per-shard support and run-length encoding.
4. **Merge** — :func:`~repro.shard.merge.merge_shard_results` stitches
   runs across cuts and applies the real thresholds.

Entry points, one per source, each driven by a
:class:`~repro.core.request.MiningRequest`:
:func:`mine_sharded_request` (shard an in-memory database — the
façade's ``shards=`` / ``max_events_in_memory=`` path and the QA
relation's adversarial-cuts path) and :func:`mine_sharded_file_request`
(true out-of-core: every pass streams the file through
:func:`~repro.timeseries.io.iter_database_chunks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro._validation import resolve_count_threshold
from repro.core.intervals import _iter_runs
from repro.core.model import RecurringPatternSet
from repro.exceptions import ParameterError
from repro.obs.counters import MiningStats
from repro.obs.spans import span
from repro.shard.candidates import (
    BoundaryWindowCollector,
    boundary_candidates,
)
from repro.shard.merge import (
    MergeStats,
    ShardPatternState,
    ShardResult,
    merge_shard_results,
)
from repro.shard.planner import ShardPlanner, plan_with_cuts
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import (
    PathOrFile,
    iter_database_chunks,
    stream_transaction_rows,
)

__all__ = [
    "DEFAULT_MAX_TRANSACTIONS",
    "ShardRunReport",
    "mine_sharded_file_request",
    "mine_sharded_request",
]

#: Default per-shard transaction bound for the file-based path.
DEFAULT_MAX_TRANSACTIONS = 100_000


@dataclass(frozen=True)
class ShardRunReport:
    """What one sharded run did — attached to telemetry as ``extra``."""

    shard_count: int
    sizes: Tuple[int, ...]
    cuts: Tuple[float, ...]
    local_candidates: int
    boundary_candidates: int
    merge: MergeStats

    def as_dict(self) -> dict:
        """JSON-ready view, published as ``telemetry.extra["shards"]``."""
        return {
            "shard_count": self.shard_count,
            "sizes": list(self.sizes),
            "cuts": list(self.cuts),
            "local_candidates": self.local_candidates,
            "boundary_candidates": self.boundary_candidates,
            "stitched_runs": self.merge.stitched_runs,
            "boundary_patterns": self.merge.boundary_patterns,
            "patterns_considered": self.merge.patterns_considered,
        }


#: The full result bundle: (patterns, merged stats, fault log, report).
ShardedOutcome = Tuple[
    RecurringPatternSet, MiningStats, List, ShardRunReport
]


def mine_sharded_request(
    database: TransactionalDatabase,
    request,
    *,
    monitor=None,
    cuts: Optional[Sequence[float]] = None,
) -> ShardedOutcome:
    """Mine an in-memory database through the sharded pipeline.

    Thresholds, engine, jobs, resilience and the shard plan all come
    from one :class:`~repro.core.request.MiningRequest`.  ``cuts``
    places boundaries explicitly and overrides the request's plan (the
    QA relations use it to cut inside recurrence runs); otherwise the
    request must set ``shards`` or ``max_events_in_memory``.  The
    result is byte-identical to ``mine_recurring_patterns(database,
    ...)`` for any plan.
    """
    timestamps = [transaction.ts for transaction in database]
    if cuts is not None:
        plan = plan_with_cuts(timestamps, cuts)
    elif request.sharded:
        plan = ShardPlanner(
            shards=request.shards,
            max_transactions=request.max_events_in_memory,
        ).plan(timestamps)
    else:
        raise ParameterError(
            "the request names no shard plan: set shards or "
            "max_events_in_memory, or pass cuts"
        )
    return _mine_sharded(
        lambda: plan.slices(database),
        total=len(database),
        expected_shards=plan.shard_count,
        request=request,
        monitor=monitor,
    )


def mine_sharded_file_request(
    source: PathOrFile,
    request,
    *,
    monitor=None,
) -> ShardedOutcome:
    """Mine a time-sorted transaction file without ever loading it.

    Three sequential passes stream the file through the chunked reader
    (:func:`~repro.timeseries.io.iter_database_chunks`): a counting
    pass (fractional ``min_ps`` resolves against the full transaction
    count, exactly as in-memory mining resolves it), the mining pass
    and the verification pass.  The per-shard bound is
    ``request.max_events_in_memory`` (:data:`DEFAULT_MAX_TRANSACTIONS`
    when unset), so peak memory is bounded by it plus output-sized
    candidate state, independent of the input length.  ``source`` must
    be a path: an open handle only supports a single pass.
    """
    if request.shards is not None:
        raise ParameterError(
            "a file is sharded by max_events_in_memory (transactions per "
            f"shard), not by a shard count; got shards={request.shards!r}"
        )
    if hasattr(source, "read"):
        raise ParameterError(
            "mine_sharded_file_request needs a re-readable path, not an "
            "open handle — the pipeline streams the input more than once"
        )
    max_transactions = request.max_events_in_memory
    if max_transactions is None:
        max_transactions = DEFAULT_MAX_TRANSACTIONS
    total = 0
    previous_ts = None
    for ts, _ in stream_transaction_rows(source):
        if ts != previous_ts:
            total += 1
            previous_ts = ts
    return _mine_sharded(
        lambda: iter_database_chunks(source, max_transactions),
        total=total,
        expected_shards=-(-total // max_transactions),
        request=request,
        monitor=monitor,
    )


# ----------------------------------------------------------------------
# The pipeline core
# ----------------------------------------------------------------------
def _mine_sharded(
    provider: Callable[[], Iterator[TransactionalDatabase]],
    *,
    total: int,
    expected_shards: int,
    request,
    monitor,
) -> ShardedOutcome:
    from repro.core.miner import run_request

    if total == 0:
        empty = ShardRunReport(0, (), (), 0, 0, MergeStats(0, 0, 0))
        return RecurringPatternSet(), MiningStats(), [], empty
    per = request.per
    min_ps_abs = resolve_count_threshold(request.min_ps, "min_ps", total)
    # Every shard mines at the run's absolute min_ps but min_rec=1: a
    # pattern with one interesting interval inside a shard is a
    # candidate.
    shard_request = request.with_thresholds(min_ps=min_ps_abs, min_rec=1)
    registry = monitor.registry if monitor is not None else None

    stats = MiningStats()
    faults: List = []
    candidates: Set[FrozenSet] = set()
    collector = BoundaryWindowCollector(per)
    sizes: List[int] = []
    cut_timestamps: List[float] = []

    if monitor is not None:
        monitor.phase_started("shard-mine", units=expected_shards)
    try:
        with span("shard-mine"):
            previous_end: Optional[float] = None
            for index, shard_db in enumerate(provider()):
                if previous_end is not None:
                    collector.cut(previous_end)
                    cut_timestamps.append(previous_end)
                with span(f"shard[{index}]"):
                    found, shard_stats, shard_faults = run_request(
                        shard_db, shard_request, monitor=monitor
                    )
                stats.merge(shard_stats)
                faults.extend(shard_faults)
                for pattern in found:
                    candidates.add(pattern.items)
                for ts, itemset in shard_db:
                    collector.observe(ts, itemset)
                sizes.append(len(shard_db))
                previous_end = shard_db.end
                if monitor is not None:
                    monitor.unit_done(index)
    finally:
        if monitor is not None:
            monitor.phase_finished()

    local_count = len(candidates)
    with span("shard-candidates"):
        spanning = boundary_candidates(collector.finish())
    candidates |= spanning

    shard_results: List[ShardResult] = []
    if monitor is not None:
        monitor.phase_started("shard-verify", units=len(sizes))
    try:
        with span("shard-verify"):
            for index, shard_db in enumerate(provider()):
                states: Dict[FrozenSet, ShardPatternState] = {}
                for items in candidates:
                    timestamps = shard_db.timestamps_of(items)
                    if timestamps:
                        states[items] = ShardPatternState(
                            support=len(timestamps),
                            runs=tuple(_iter_runs(timestamps, per)),
                        )
                shard_results.append(ShardResult(index, states))
                if monitor is not None:
                    monitor.unit_done(index)
    finally:
        if monitor is not None:
            monitor.phase_finished()

    with span("shard-merge"):
        result, merge_stats = merge_shard_results(
            shard_results, per=per, min_ps=min_ps_abs,
            min_rec=request.min_rec,
        )

    # The per-shard engine counters summed above describe the relaxed
    # candidate mines; re-point the headline fields at the merged run.
    stats.patterns_found = len(result)
    stats.candidate_patterns += len(candidates)
    stats.recurrence_evaluations += merge_stats.patterns_considered

    report = ShardRunReport(
        shard_count=len(sizes),
        sizes=tuple(sizes),
        cuts=tuple(cut_timestamps),
        local_candidates=local_count,
        boundary_candidates=len(spanning),
        merge=merge_stats,
    )
    if registry is not None:
        registry.counter("repro_shard_runs_total").inc()
        registry.counter("repro_shard_mined_total").inc(len(sizes))
        registry.counter("repro_shard_transactions_total").inc(total)
        registry.counter("repro_shard_candidates_total").inc(
            len(candidates)
        )
        registry.counter("repro_shard_boundary_candidates_total").inc(
            len(spanning)
        )
        registry.counter("repro_shard_stitched_runs_total").inc(
            merge_stats.stitched_runs
        )
    return result, stats, faults, report
