"""The multiprocess mining path.

:func:`mine_parallel` mines the same model as the serial engines by
partitioning the search space along its first explored dimension,
fanning the resulting sub-problems out to a
``concurrent.futures.ProcessPoolExecutor`` and merging the workers'
patterns and counters back into one result:

* the pattern set is **identical** to the serial run's — the partition
  covers the serial search space exactly, and
  :class:`~repro.core.model.RecurringPatternSet` orders patterns
  deterministically regardless of arrival order;
* the merged :class:`~repro.obs.counters.MiningStats` equals the
  serial counters exactly (the counters are additive over the
  partition);
* when a span collector is active, each chunk adds one leaf
  ``chunk[i]`` span, timed in its worker, under the parent's ``mine``
  span, so ``--profile`` tables and ``repro-run/v1`` traces stay
  coherent.

Chunk execution is supervised by :mod:`repro.parallel.resilience`: a
crashed, hung or misbehaving worker costs a retry (and, after
``max_retries``, an in-process serial re-mine or a
:class:`~repro.exceptions.ChunkFailedError`), never the whole run.

Every engine object — the parent's first scan, each pool worker's and
the serial fallback's — is built as
``get_engine(name).factory(per, min_ps, min_rec)``, and every engine
speaks one worker protocol (``_first_scan`` lists the roots, ``_grow``
mines one), so an engine registered with ``supports_jobs`` partitions
exactly like a built-in one.  :func:`plan_chunks` bins the roots into
chunks by their ts-list length.

See ``docs/performance.md`` for the partitioning scheme, the chunking
policy, when ``jobs > 1`` actually helps, and the "Failure handling"
section for the retry/fallback semantics.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from repro.core.engines import get_engine
from repro.core.model import MiningParameters, RecurringPatternSet
from repro.core.request import MiningRequest
from repro.exceptions import ChunkFailedError
from repro.obs.counters import MiningStats
from repro.obs.spans import Span, span
from repro.parallel import worker as _worker
from repro.parallel.resilience import FaultEvent, supervise
from repro.timeseries.database import TransactionalDatabase

__all__ = ["mine_parallel", "plan_chunks"]

#: Target chunk count per worker: enough chunks to keep the straggler
#: tail short, few enough that IPC stays unmeasurable.
CHUNKS_PER_JOB = 4


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


def mine_parallel(
    database: TransactionalDatabase,
    request: MiningRequest,
    *,
    monitor=None,
) -> Tuple[RecurringPatternSet, MiningStats, List[FaultEvent]]:
    """Mine ``database`` with ``request.jobs`` supervised workers.

    The ``jobs > 1`` branch of :func:`repro.core.miner.run_request`,
    which has validated ``request`` and returns the same
    ``(patterns, stats, fault_events)``.  The parent runs the engine's
    ``_first_scan``, plans the roots into at most
    ``jobs * CHUNKS_PER_JOB`` chunks and hands them to
    :func:`~repro.parallel.resilience.supervise` under
    ``request.resilience``.  ``monitor`` (a
    :class:`~repro.obs.progress.MiningMonitor`, or ``None``) sees one
    phase whose units are the chunks, weighted by their cost estimate
    so the ETA respects unequal chunks.

    Raises :class:`~repro.exceptions.ChunkFailedError`, naming the
    missing prefixes and carrying the partial pattern set, when a chunk
    fails terminally under ``fallback="raise"``.
    """
    stats = MiningStats()
    if len(database) == 0:
        return RecurringPatternSet(), stats, []
    params = MiningParameters(
        per=request.per, min_ps=request.min_ps, min_rec=request.min_rec
    ).resolve(len(database))
    parent = get_engine(request.engine).factory(
        request.per, request.min_ps, request.min_rec
    )
    candidates = parent._first_scan(database, params, stats)
    if not candidates:
        return RecurringPatternSet(), stats, []
    found = []
    with span("mine") as mine_span:
        with span("partition"):
            # Root i's sub-problem is mined from its ts-list; the
            # list's length is the documented cost proxy.
            sizes = [len(ts_list) for _, ts_list in candidates]
            chunks = plan_chunks(
                sizes, max_chunks=request.jobs * CHUNKS_PER_JOB
            )
        if monitor is not None:
            monitor.phase_started(
                f"mine[{request.engine}]",
                weights=[
                    float(sum(sizes[index] for index in chunk))
                    for chunk in chunks
                ],
                units=len(chunks),
            )
        try:
            results, events, failed = supervise(
                workers=min(request.jobs, len(chunks)),
                initializer=_worker.init_chunk_worker,
                initargs=(
                    request.engine, params, candidates,
                    getattr(parent, "parallel_context", None),
                ),
                chunk_fn=_worker.mine_chunk,
                payloads=chunks,
                resilience=request.resilience,
                monitor=monitor,
            )
        finally:
            if monitor is not None:
                monitor.phase_finished()
        stats.chunks_retried += sum(
            event.action == "retry" for event in events
        )
        stats.chunks_fallback += sum(
            event.action == "fallback-serial" for event in events
        )
        for chunk_id, result in enumerate(results):
            if result is None:  # terminally failed, fallback="raise"
                continue
            chunk_found, chunk_stats, seconds = result
            found.extend(chunk_found)
            stats.merge(chunk_stats)
            if mine_span is not None:
                mine_span.children.append(
                    Span(f"chunk[{chunk_id}]", started=0.0, seconds=seconds)
                )
        if failed:
            prefixes = [
                str(candidates[index][0])
                for chunk_id in sorted(failed)
                for index in chunks[chunk_id]
            ]
            raise ChunkFailedError(
                f"{len(failed)} of {len(chunks)} parallel chunk(s) failed "
                f"after {request.resilience.max_retries} retries; missing "
                f"search-space prefixes: {', '.join(prefixes)}",
                failed_prefixes=prefixes,
                partial=RecurringPatternSet(found),
                events=events,
            )
    return RecurringPatternSet(found), stats, events
