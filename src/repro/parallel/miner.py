"""The multiprocess mining wrapper.

:class:`ParallelMiner` mines the same model as the serial engines by
partitioning the search space along its first explored dimension
(:mod:`repro.parallel.partition`), fanning the resulting sub-problems
out to a ``concurrent.futures.ProcessPoolExecutor`` and merging the
workers' patterns, counters and spans back into one result:

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
the serial fallback's — is built by the engine's registry factory, so
an engine registered with ``supports_jobs`` partitions exactly like a
built-in one.

See ``docs/performance.md`` for the partitioning scheme, the chunking
policy, when ``jobs > 1`` actually helps, and the "Failure handling"
section for the retry/fallback semantics.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple, Union

from repro._validation import Number
from repro.core.engines import engine_names, get_engine
from repro.core.miner import mine_serial
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.core.options import ResilienceOptions
from repro.core.rp_list import build_rp_list
from repro.core.rp_tree import build_rp_tree
from repro.exceptions import ChunkFailedError, ParameterError
from repro.obs.counters import MiningStats
from repro.obs.spans import Span, span
from repro.parallel import partition as _partition
from repro.parallel import worker as _worker
from repro.parallel.resilience import FaultEvent, RetryPolicy, supervise
from repro.timeseries.database import TransactionalDatabase

__all__ = ["ParallelMiner", "default_jobs"]


def default_jobs() -> int:
    """Default worker count: one per available CPU (at least 1)."""
    return os.cpu_count() or 1


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
        byte-identical behaviour.
    chunks_per_job:
        Target chunk count per worker (default 4).  More chunks means
        finer-grained load balancing but more IPC; the default keeps
        the straggler tail short without measurable overhead.
    mp_context:
        A :mod:`multiprocessing` context or start-method name.  The
        default prefers ``fork`` (cheap, inherits the imported
        library) and falls back to ``spawn`` where fork is unavailable
        (Windows, macOS defaults); both work because worker state
        travels through the pool initializer, never through globals
        that only exist in the parent.
    pruning, max_length, item_order:
        Forwarded to the engine's registry factory (``pruning`` to
        RP-eclat, ``item_order`` to RP-growth's tree build).
    retry_backoff:
        Base delay in seconds before the first retry of a chunk
        (doubles per retry, deterministic jitter added; ``0`` retries
        immediately).
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
    supervised:
        ``False`` bypasses the resilience layer entirely (raw PR-2
        fan-out: one ``future.result()`` per chunk, a worker crash
        aborts the run).  Exists so the scaling bench can measure
        supervision overhead; production code should leave it ``True``.
    monitor:
        A :class:`~repro.obs.progress.MiningMonitor` receiving live
        progress: one weighted phase per mine (unit = chunk, weight =
        its LPT cost estimate, so the ETA respects unequal chunks),
        per-worker heartbeat gauges and stale-worker reports from the
        supervisor.  ``None`` (default) reports nothing.  Ignored when
        ``supervised=False`` (the bench baseline measures the bare
        pool).

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
        chunks_per_job: int = 4,
        mp_context: Union[str, object, None] = None,
        pruning: str = "erec",
        max_length: Optional[int] = None,
        item_order: str = "support-desc",
        retry_backoff: float = 0.05,
        resilience: Optional[ResilienceOptions] = None,
        supervised: bool = True,
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
        if chunks_per_job < 1:
            raise ParameterError(
                f"chunks_per_job must be >= 1, got {chunks_per_job!r}"
            )
        self.params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
        self.engine = engine
        self.jobs = jobs
        self.chunks_per_job = chunks_per_job
        self.mp_context = mp_context
        self.pruning = pruning
        self.max_length = max_length
        self.item_order = item_order
        # Validates the backoff eagerly.
        self.retry_policy = RetryPolicy(
            timeout=resilience.timeout,
            max_retries=resilience.max_retries,
            backoff=retry_backoff,
        )
        self.fallback = resilience.fallback
        self.fault_plan = resilience.fault_plan
        self.supervised = supervised
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
            result = mine_serial(serial, self.engine, database, self.monitor)
            self.last_stats = serial.last_stats
            return result
        stats = MiningStats()
        self.last_stats = stats
        if len(database) == 0:
            return RecurringPatternSet()
        params = self.params.resolve(len(database))
        if get_engine(self.engine).family == "growth":
            return self._mine_growth(database, params, stats)
        return self._mine_vertical(database, params, stats)

    # ------------------------------------------------------------------
    # Engine-specific orchestration
    # ------------------------------------------------------------------
    def _mine_vertical(self, database, params, stats) -> RecurringPatternSet:
        serial = self._serial_engine()
        with span("first_scan"):
            candidates = serial._first_scan(database, params, stats)
        if not candidates:
            return RecurringPatternSet()
        # Task i is the lattice subtree rooted at candidates[i]; its
        # point-sequence length is the documented cost proxy.
        sizes = [len(ts_list) for _, ts_list in candidates]
        chunks = _partition.plan_chunks(
            sizes,
            max_chunks=self.jobs * self.chunks_per_job,
        )
        found: List[RecurringPattern] = []
        with span("mine") as mine_span:
            self._run_pool(
                initializer=_worker.init_vertical_worker,
                initargs=(
                    self._recipe(params), candidates,
                    getattr(serial, "parallel_context", None),
                ),
                chunk_fn=_worker.mine_vertical_chunk,
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

    def _mine_growth(self, database, params, stats) -> RecurringPatternSet:
        with span("first_scan"):
            rp_list = build_rp_list(database, params)
        stats.candidate_items = len(rp_list.candidates)
        stats.pruned_items = len(rp_list.entries) - len(rp_list.candidates)
        if not rp_list.candidates:
            return RecurringPatternSet()
        with span("tree_build"):
            tree, _ = build_rp_tree(
                database, params, rp_list, item_order=self.item_order
            )
        stats.initial_tree_nodes = tree.node_count()
        found: List[RecurringPattern] = []
        with span("mine") as mine_span:
            with span("partition"):
                tasks = _partition.collect_growth_tasks(
                    tree, params, found, stats, self.max_length
                )
            if tasks:
                sizes = [
                    _partition.growth_task_size(task) for task in tasks
                ]
                chunks = _partition.plan_chunks(
                    sizes,
                    max_chunks=self.jobs * self.chunks_per_job,
                )
                payload_chunks = [
                    [tasks[index] for index in chunk] for chunk in chunks
                ]
                self._run_pool(
                    initializer=_worker.init_growth_worker,
                    initargs=(self._recipe(params), tree.order),
                    chunk_fn=_worker.mine_growth_chunk,
                    chunks=payload_chunks,
                    found=found,
                    stats=stats,
                    mine_span=mine_span,
                    chunk_prefixes=[
                        [str(item) for item, _ in chunk]
                        for chunk in payload_chunks
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
        initializer,
        initargs: tuple,
        chunk_fn,
        chunks: Sequence[object],
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
        workers = min(self.jobs, len(chunks))
        if not self.supervised:
            self._run_pool_unsupervised(
                initializer, initargs, chunk_fn, chunks, found, stats,
                mine_span, workers,
            )
            return
        if self.monitor is not None:
            self.monitor.phase_started(
                f"mine[{self.engine}]",
                weights=chunk_weights,
                units=len(chunks),
            )
        try:
            results, events, failed = supervise(
                workers=workers,
                mp_context=self._context(),
                initializer=initializer,
                initargs=initargs,
                chunk_fn=chunk_fn,
                payloads=chunks,
                policy=self.retry_policy,
                fallback=self.fallback,
                fault_plan=self.fault_plan,
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
                f"after {self.retry_policy.max_retries} retries; missing "
                f"search-space prefixes: {', '.join(prefixes)}",
                failed_prefixes=prefixes,
                partial=RecurringPatternSet(found),
                events=events,
            )

    def _run_pool_unsupervised(
        self,
        initializer,
        initargs: tuple,
        chunk_fn,
        chunks: Sequence[object],
        found: List[RecurringPattern],
        stats: MiningStats,
        mine_span: Optional[Span],
        workers: int,
    ) -> None:
        """PR 2's raw fan-out, kept as the bench baseline for measuring
        supervision overhead (``supervised=False``).  A worker failure
        here surfaces as a bare ``BrokenProcessPool``."""
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._context(),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = [
                pool.submit(chunk_fn, chunk_id, chunk)
                for chunk_id, chunk in enumerate(chunks)
            ]
            for future in futures:
                chunk_found, chunk_stats, chunk_spans = future.result()
                found.extend(chunk_found)
                stats.merge(chunk_stats)
                if mine_span is not None:
                    mine_span.children.extend(
                        Span.from_dict(record) for record in chunk_spans
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
                "pruning": self.pruning,
                "max_length": self.max_length,
            },
        )

    def _serial_engine(self):
        return self._recipe(self.params).build()
