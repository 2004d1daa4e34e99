"""Prefix partitioning of the mining search space.

Both engine families decompose into independent sub-problems along
their first explored dimension:

* **vertical engines** (RP-eclat, RP-eclat-vec) — the depth-first
  lattice walk rooted at candidate index ``i`` only ever touches
  ``candidates[i]`` and the extensions after it in the canonical order
  (:mod:`repro.core.ordering`).  Each root index is therefore a
  self-contained task;
* **RP-growth** — each suffix item's conditional pattern base
  (Algorithm 4) is mined into a conditional tree that never interacts
  with any other suffix's tree.  The bottom-up header sweep that
  *produces* the bases mutates the shared tree (the Lemma 3 push-up)
  and stays serial — it is a cheap tree traversal — while the
  expensive conditional mining becomes the task.

:func:`plan_chunks` then groups tasks into worker-sized chunks using
longest-processing-time (LPT) greedy binning on a per-task size
estimate, and orders the chunks largest first, so the biggest
sub-problems start immediately and small ones backfill — the classic
defence against straggler tails.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.core.intervals import estimated_recurrence
from repro.core.model import RecurringPattern, ResolvedParameters
from repro.core.rp_tree import RPTree
from repro.obs.counters import MiningStats
from repro.timeseries.events import Item

__all__ = [
    "GrowthTask",
    "collect_growth_tasks",
    "growth_task_size",
    "plan_chunks",
]

#: One RP-growth sub-problem: the suffix item and its serialized
#: conditional pattern base — ``(path root→parent, ts-list)`` pairs,
#: deep-copied so the payload survives later tree mutation.
GrowthTask = Tuple[Item, List[Tuple[List[Item], List[float]]]]


def plan_chunks(sizes: Sequence[int], max_chunks: int) -> List[List[int]]:
    """Group task indices into at most ``max_chunks`` balanced chunks.

    LPT greedy: tasks are visited largest first (ties by index) and
    each lands in the currently lightest chunk.  The returned chunks
    are ordered by total size, largest first — the submission order —
    and the whole plan is deterministic.

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


def collect_growth_tasks(
    tree: RPTree,
    params: ResolvedParameters,
    found: List[RecurringPattern],
    stats: MiningStats,
    max_length: Optional[int] = None,
) -> List[GrowthTask]:
    """The serial header sweep of Algorithm 4, yielding parallel tasks.

    Performs exactly the top level of :meth:`RPGrowth._mine_tree` —
    bottom-up over the header, per suffix item: assemble the pattern's
    point sequence, apply the ``Erec`` candidate test, report the
    1-extension pattern into ``found``, then push the item's ts-lists
    up (Lemma 3) — but instead of recursing into each conditional
    tree it snapshots the conditional pattern base as a picklable
    :data:`GrowthTask`.

    Counter increments mirror the serial top level exactly, so after
    the workers' counters (which cover conditional construction and
    recursion) are merged back, the totals equal a serial run's.

    The base must be snapshotted (deep-copied) here: ``prefix_paths``
    returns live references into the tree, and the subsequent
    ``remove_item`` push-ups splice those lists into parent nodes
    which later suffixes will serialize again.
    """
    tasks: List[GrowthTask] = []
    for item in tree.header_bottom_up():
        beta = (item,)
        beta_ts = tree.pattern_timestamps(item)
        stats.erec_evaluations += 1
        if (
            estimated_recurrence(beta_ts, params.per, params.min_ps)
            >= params.min_rec
        ):
            stats.candidate_patterns += 1
            stats.recurrence_evaluations += 1
            pattern = params.pattern_from_timestamps(beta, beta_ts)
            if pattern is not None:
                stats.patterns_found += 1
                found.append(pattern)
            if max_length is None or len(beta) < max_length:
                base = tree.prefix_paths(item)
                if base:
                    tasks.append((
                        item,
                        [
                            (list(path), list(ts_list))
                            for path, ts_list in base
                        ],
                    ))
        tree.remove_item(item)
    return tasks


def growth_task_size(task: GrowthTask) -> int:
    """Size estimate of one RP-growth task: ts entries in its base."""
    return sum(len(ts_list) for _, ts_list in task[1])
