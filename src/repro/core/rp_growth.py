"""RP-growth — the paper's pattern-growth miner (Algorithms 4–5).

The miner proceeds bottom-up over a support-descending RP-tree.  For
each suffix item it assembles the pattern's point sequence from the
tail-node ts-lists, applies the ``Erec`` candidate test (Section 4.1),
reports the pattern when its true recurrence passes ``minRec``
(Algorithm 5 — implemented by
:func:`repro.core.intervals.recurrence` /
:meth:`~repro.core.model.ResolvedParameters.pattern_from_timestamps`),
builds the conditional tree restricted to items that are themselves
candidates within the conditional base, recurses, and finally pushes
the suffix item's ts-lists up to the parents (Lemma 3) so the next
header item sees complete occurrence information.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._validation import Number
from repro.core.intervals import estimated_recurrence
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    RecurringPatternSet,
    ResolvedParameters,
)
from repro.core.rp_list import RPList, build_rp_list
from repro.core.rp_tree import RPTree, build_rp_tree
from repro.obs.counters import MiningStats
from repro.obs.spans import span
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["RPGrowth", "conditional_tree_from_base"]

#: One conditional-pattern-base entry: the prefix path (root→parent
#: order) and the tail node's ts-list.
BaseEntry = Tuple[Sequence[Item], Sequence[float]]


def conditional_tree_from_base(
    base: Sequence[BaseEntry],
    order: Dict[Item, int],
    params: ResolvedParameters,
    stats: MiningStats,
) -> Optional[RPTree]:
    """Build a conditional RP-tree from a conditional pattern base.

    ``base`` is what :meth:`RPTree.prefix_paths` returns — every item
    on a prefix path is credited with the tail node's ts-list
    (Property 4).  Items whose conditional ``Erec`` falls below
    ``minRec`` are dropped (Properties 1–2) and the surviving paths are
    re-inserted in the global item ``order``.  Returns ``None`` when
    the base is empty or no item survives.

    This is a standalone function (not a method) because the parallel
    layer ships serialized bases to worker processes, which rebuild and
    mine the conditional tree without ever holding the parent tree.

    Each contributing ts-list is a concatenation of sorted runs, so
    the ``sort()`` that assembles a conditional item's point sequence
    is effectively a k-way merge executed by Timsort's C-speed run
    detection — measured faster than an explicit :func:`heapq.merge`
    (see docs/performance.md).
    """
    if not base:
        return None
    contributions: Dict[Item, List[Sequence[float]]] = {}
    for path, ts_list in base:
        for path_item in path:
            contributions.setdefault(path_item, []).append(ts_list)
    keep = set()
    for path_item, ts_lists in contributions.items():
        merged: List[float] = []
        for ts_list in ts_lists:
            merged.extend(ts_list)
        merged.sort()
        stats.erec_evaluations += 1
        if (
            estimated_recurrence(merged, params.per, params.min_ps)
            >= params.min_rec
        ):
            keep.add(path_item)
    if not keep:
        return None
    conditional = RPTree(order)
    for path, ts_list in base:
        conditional.insert(
            [path_item for path_item in path if path_item in keep],
            ts_list,
        )
    stats.conditional_trees += 1
    return conditional


class RPGrowth:
    """The RP-growth mining engine.

    Parameters
    ----------
    per, min_ps, min_rec:
        The model thresholds (Definition 10).  ``min_ps`` may be an
        absolute count or a fraction of the database size.

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> miner = RPGrowth(per=2, min_ps=3, min_rec=2)
    >>> found = miner.mine(paper_running_example())
    >>> len(found)
    8
    """

    def __init__(
        self,
        per: Number,
        min_ps: Union[int, float],
        min_rec: int,
        item_order: str = "support-desc",
        max_length: Optional[int] = None,
    ):
        self.params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
        self.item_order = item_order
        if max_length is not None and max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length!r}")
        self.max_length = max_length
        self.last_stats: Optional[MiningStats] = None

    def mine(self, database: TransactionalDatabase) -> RecurringPatternSet:
        """Mine the complete set of recurring patterns in ``database``.

        An empty database yields an empty result set.  Statistics about
        the run are left in :attr:`last_stats`.
        """
        stats = MiningStats()
        self.last_stats = stats
        if len(database) == 0:
            return RecurringPatternSet()
        params = self.params.resolve(len(database))
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
        with span("mine"):
            self._mine_tree(tree, (), params, found, stats)
        return RecurringPatternSet(found)

    # ------------------------------------------------------------------
    # Recursive pattern growth (Algorithm 4)
    # ------------------------------------------------------------------
    def _mine_tree(
        self,
        tree: RPTree,
        suffix: Tuple[Item, ...],
        params: ResolvedParameters,
        found: List[RecurringPattern],
        stats: MiningStats,
    ) -> None:
        for item in tree.header_bottom_up():
            beta = suffix + (item,)
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
                if self.max_length is None or len(beta) < self.max_length:
                    conditional = self._conditional_tree(
                        tree, item, params, stats
                    )
                    if conditional is not None:
                        self._mine_tree(
                            conditional, beta, params, found, stats
                        )
            tree.remove_item(item)

    def _conditional_tree(
        self,
        tree: RPTree,
        item: Item,
        params: ResolvedParameters,
        stats: MiningStats,
    ) -> Optional[RPTree]:
        """Build ``item``'s conditional tree, or ``None`` when empty.

        Delegates to :func:`conditional_tree_from_base`, which the
        parallel layer shares.
        """
        return conditional_tree_from_base(
            tree.prefix_paths(item), tree.order, params, stats
        )
