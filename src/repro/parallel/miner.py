"""The multiprocess mining wrapper.

:class:`ParallelMiner` mines the same model as the serial engines by
partitioning the search space along its first explored dimension,
fanning the resulting sub-problems out to a
``concurrent.futures.ProcessPoolExecutor`` and merging the workers'
patterns, counters and spans back into one result:

* the pattern set is **identical** to the serial run's — the partition
  covers the serial search space exactly, and
  :class:`~repro.core.model.RecurringPatternSet` orders patterns
  deterministically regardless of arrival order;
* the merged :class:`~repro.obs.counters.MiningStats` equals the
  serial counters exactly (the counters are additive over the
  partition);
* worker span trees are grafted under the parent's ``mine`` span, so
  ``--profile`` tables and ``repro-run/v1`` traces stay coherent.

Chunk execution is supervised by :mod:`repro.parallel.resilience`: a
crashed, hung or misbehaving worker costs a retry (and, after
``max_retries``, an in-process serial re-mine or a
:class:`~repro.exceptions.ChunkFailedError`), never the whole run.

Every engine object — the parent's first scan, each pool worker's and
the serial fallback's — is built by the engine's registry factory, and
every engine speaks one worker protocol (``_first_scan`` lists the
roots, ``_grow`` mines one), so an engine registered with
``supports_jobs`` partitions exactly like a built-in one.
:func:`plan_chunks` bins the roots into chunks by their ts-list length.

See ``docs/performance.md`` for the partitioning scheme, the chunking
policy, when ``jobs > 1`` actually helps, and the "Failure handling"
section for the retry/fallback semantics.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
from typing import List, Optional, Sequence, Union

from repro._validation import Number
from repro.core.engines import engine_names
from repro.core.miner import mine_serial
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.core.options import ResilienceOptions
from repro.exceptions import ChunkFailedError, ParameterError
from repro.obs.counters import MiningStats
from repro.obs.spans import Span, span
from repro.parallel import worker as _worker
from repro.parallel.resilience import FaultEvent, supervise
from repro.timeseries.database import TransactionalDatabase

__all__ = ["ParallelMiner", "default_jobs", "plan_chunks"]

#: Target chunk count per worker: enough chunks to keep the straggler
#: tail short, few enough that IPC stays unmeasurable.
CHUNKS_PER_JOB = 4


def default_jobs() -> int:
    """Default worker count: one per available CPU (at least 1)."""
    return os.cpu_count() or 1


def plan_chunks(sizes: Sequence[int], max_chunks: int) -> List[List[int]]:
    """Group task indices into at most ``max_chunks`` balanced chunks.

    Longest-processing-time (LPT) greedy: tasks are visited largest
    first (ties by index) and each lands in the currently lightest
    chunk.  The returned chunks are ordered by total size, largest
    first — the submission order, so the biggest sub-problems start
    immediately and small ones backfill against straggler tails — and
    the whole plan is deterministic.

    Examples
    --------
    >>> plan_chunks([1, 8, 2, 4], max_chunks=2)
    [[1], [3, 2, 0]]
    >>> plan_chunks([5, 5], max_chunks=8)
    [[0], [1]]
    """
    if not sizes:
        return []
    if max_chunks < 1:
        raise ValueError(f"max_chunks must be >= 1, got {max_chunks!r}")
    n_bins = min(len(sizes), max_chunks)
    bins: List[List[int]] = [[] for _ in range(n_bins)]
    totals = [0] * n_bins
    # (total, bin index) heap; the index tie-break keeps it deterministic.
    heap = [(0, index) for index in range(n_bins)]
    heapq.heapify(heap)
    for index in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        total, bin_index = heapq.heappop(heap)
        bins[bin_index].append(index)
        totals[bin_index] = total + sizes[index]
        heapq.heappush(heap, (totals[bin_index], bin_index))
    ranked = sorted(range(n_bins), key=lambda b: (-totals[b], b))
    return [bins[b] for b in ranked if bins[b]]


class ParallelMiner:
    """Shared-nothing multiprocess front end over the serial engines.

    Parameters
    ----------
    per, min_ps, min_rec:
        Model thresholds, exactly as for the serial engines.
    engine:
        A registered engine with the ``supports_jobs`` capability
        (``engine_names(supports_jobs=True)``).  ``naive`` lacks it by
        design: a partitioned reference is no longer obviously correct.
        Workers build the engine by name from their own copy of the
        registry — inherited under ``fork``, rebuilt by imports under
        ``spawn``.
    jobs:
        Worker process count; ``None`` means one per CPU.  ``jobs=1``
        delegates to the serial engine in-process — no pool, no pickling,
        byte-identical behaviour.  The roots are planned into at most
        ``jobs * CHUNKS_PER_JOB`` chunks.
    mp_context:
        A :mod:`multiprocessing` context or start-method name.  The
        default prefers ``fork`` (cheap, inherits the imported
        library) and falls back to ``spawn`` where fork is unavailable
        (Windows, macOS defaults); both work because worker state
        travels through the pool initializer, never through globals
        that only exist in the parent.
    max_length, item_order:
        Forwarded to the engine's registry factory (``item_order`` to
        RP-growth's tree build).
    resilience:
        A :class:`~repro.core.options.ResilienceOptions` — the same
        object the façade and the sweep engine accept:
        ``timeout`` is the per-chunk deadline in seconds (measured from
        submission to the pool; an expired chunk is treated like a
        crashed one); ``max_retries`` the failed executions a chunk may
        accumulate before ``fallback`` applies (the first execution is
        not a retry); ``fallback="serial"`` re-mines an exhausted chunk
        in-process so the run always completes, ``"raise"`` raises
        :class:`~repro.exceptions.ChunkFailedError` naming the missing
        prefixes and carrying the partial pattern set; ``fault_plan``
        injects deterministic worker failures (tests only).  ``None``
        means ``ResilienceOptions()``.
    monitor:
        A :class:`~repro.obs.progress.MiningMonitor` receiving live
        progress: one weighted phase per mine (unit = chunk, weight =
        its LPT cost estimate, so the ETA respects unequal chunks),
        per-worker heartbeat gauges and stale-worker reports from the
        supervisor.  ``None`` (default) reports nothing.

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> miner = ParallelMiner(per=2, min_ps=3, min_rec=2, jobs=2)
    >>> len(miner.mine(paper_running_example()))
    8
    """

    def __init__(
        self,
        per: Number,
        min_ps: Union[int, float],
        min_rec: int,
        engine: str = "rp-growth",
        *,
        jobs: Optional[int] = None,
        mp_context: Union[str, object, None] = None,
        max_length: Optional[int] = None,
        item_order: str = "support-desc",
        resilience: Optional[ResilienceOptions] = None,
        monitor=None,
    ):
        parallel = engine_names(supports_jobs=True)
        if engine not in parallel:
            raise ParameterError(
                f"engine {engine!r} is not parallel-capable; "
                f"expected one of {parallel}"
            )
        if resilience is None:
            resilience = ResilienceOptions()
        if jobs is None:
            jobs = default_jobs()
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ParameterError(f"jobs must be a positive int, got {jobs!r}")
        self.params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
        self.engine = engine
        self.jobs = jobs
        self.mp_context = mp_context
        self.max_length = max_length
        self.item_order = item_order
        self.resilience = resilience
        self.monitor = monitor
        self.last_stats: Optional[MiningStats] = None
        #: Fault log of the most recent ``mine()`` call — one
        #: :class:`~repro.parallel.resilience.FaultEvent` per retry or
        #: fallback, in occurrence order.  Empty for clean runs.
        self.last_faults: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def mine(self, database: TransactionalDatabase) -> RecurringPatternSet:
        """Mine ``database``, identical in result to the serial engine."""
        self.last_faults = []
        if self.jobs == 1:
            serial = self._serial_engine()
            result = mine_serial(
                f"mine[{self.engine}]",
                lambda: serial.mine(database),
                self.monitor,
            )
            self.last_stats = serial.last_stats
            return result
        stats = MiningStats()
        self.last_stats = stats
        if len(database) == 0:
            return RecurringPatternSet()
        params = self.params.resolve(len(database))
        serial = self._serial_engine()
        candidates = serial._first_scan(database, params, stats)
        if not candidates:
            return RecurringPatternSet()
        found: List[RecurringPattern] = []
        with span("mine") as mine_span:
            with span("partition"):
                # Root i's sub-problem is mined from its ts-list; the
                # list's length is the documented cost proxy.
                sizes = [len(ts_list) for _, ts_list in candidates]
                chunks = plan_chunks(
                    sizes, max_chunks=self.jobs * CHUNKS_PER_JOB
                )
            self._run_pool(
                initargs=(
                    self._recipe(params), candidates,
                    getattr(serial, "parallel_context", None),
                ),
                chunks=chunks,
                found=found,
                stats=stats,
                mine_span=mine_span,
                chunk_prefixes=[
                    [str(candidates[index][0]) for index in chunk]
                    for chunk in chunks
                ],
                chunk_weights=[
                    float(sum(sizes[index] for index in chunk))
                    for chunk in chunks
                ],
            )
        return RecurringPatternSet(found)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        initargs: tuple,
        chunks: Sequence[Sequence[int]],
        found: List[RecurringPattern],
        stats: MiningStats,
        mine_span: Optional[Span],
        chunk_prefixes: Sequence[Sequence[str]],
        chunk_weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Fan ``chunks`` out to a supervised pool and merge the results.

        ``chunk_prefixes[i]`` names the search-space prefixes chunk
        ``i`` covers (first items for the vertical engines, suffix
        items for RP-growth) — the vocabulary of
        :class:`~repro.exceptions.ChunkFailedError`.
        ``chunk_weights[i]`` is chunk ``i``'s LPT cost estimate; the
        monitor's progress fraction and ETA are weight-based, so the
        bar is honest even when the chunk plan is deliberately uneven.
        """
        if self.monitor is not None:
            self.monitor.phase_started(
                f"mine[{self.engine}]",
                weights=chunk_weights,
                units=len(chunks),
            )
        try:
            results, events, failed = supervise(
                workers=min(self.jobs, len(chunks)),
                mp_context=self._context(),
                initializer=_worker.init_chunk_worker,
                initargs=initargs,
                chunk_fn=_worker.mine_chunk,
                payloads=chunks,
                resilience=self.resilience,
                monitor=self.monitor,
            )
        finally:
            if self.monitor is not None:
                self.monitor.phase_finished()
        self.last_faults = list(events)
        stats.chunks_retried += sum(
            1 for event in events if event.action == "retry"
        )
        stats.chunks_fallback += sum(
            1 for event in events if event.action == "fallback-serial"
        )
        for triple in results:
            if triple is None:  # terminally failed, fallback="raise"
                continue
            chunk_found, chunk_stats, chunk_spans = triple
            found.extend(chunk_found)
            stats.merge(chunk_stats)
            if mine_span is not None:
                mine_span.children.extend(
                    Span.from_dict(record) for record in chunk_spans
                )
        if failed:
            prefixes = [
                prefix
                for chunk_id in sorted(failed)
                for prefix in chunk_prefixes[chunk_id]
            ]
            raise ChunkFailedError(
                f"{len(failed)} of {len(chunks)} parallel chunk(s) failed "
                f"after {self.resilience.max_retries} retries; missing "
                f"search-space prefixes: {', '.join(prefixes)}",
                failed_prefixes=prefixes,
                partial=RecurringPatternSet(found),
                events=events,
            )

    def _context(self):
        context = self.mp_context
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = "fork" if "fork" in methods else "spawn"
        if isinstance(context, str):
            return multiprocessing.get_context(context)
        return context

    def _recipe(self, params) -> _worker.EngineRecipe:
        # The registry factory accepts the union of engine options and
        # forwards only what the concrete engine understands.
        return _worker.EngineRecipe(
            self.engine,
            params,
            {
                "item_order": self.item_order,
                "max_length": self.max_length,
            },
        )

    def _serial_engine(self):
        return self._recipe(self.params).build()
