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

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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

__all__ = ["RPGrowth"]

#: One conditional-pattern-base entry: the prefix path (root→parent
#: order) and the ts-list it carries.
BaseEntry = Tuple[Sequence[Item], Sequence[float]]


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
        #: The initial RP-tree of the last ``_first_scan``; the parallel
        #: layer ships it to workers alongside the header items.
        self.parallel_context: Optional[RPTree] = None

    def attach_context(self, tree: RPTree) -> None:
        """Install the shared initial RP-tree (worker-side counterpart
        of the ``parallel_context`` produced by ``_first_scan``)."""
        self.parallel_context = tree

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
        tree = self._build_tree(database, params, rp_list, stats)
        if tree is None:
            return RecurringPatternSet()
        found: List[RecurringPattern] = []
        with span("mine"):
            self._mine_tree(tree, (), params, found, stats)
        return RecurringPatternSet(found)

    def _build_tree(
        self,
        database: TransactionalDatabase,
        params: ResolvedParameters,
        rp_list: RPList,
        stats: MiningStats,
    ) -> Optional[RPTree]:
        """Algorithms 2–3: the initial RP-tree, or ``None`` when the
        RP-list has no candidate item."""
        stats.candidate_items = len(rp_list.candidates)
        stats.pruned_items = len(rp_list.entries) - len(rp_list.candidates)
        if not rp_list.candidates:
            return None
        with span("tree_build"):
            tree, _ = build_rp_tree(
                database, params, rp_list, item_order=self.item_order
            )
        stats.initial_tree_nodes = tree.node_count()
        return tree

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------
    def _first_scan(
        self,
        database: TransactionalDatabase,
        params: ResolvedParameters,
        stats: MiningStats,
    ) -> List[Tuple[Item, Sequence[float]]]:
        """The header items bottom-up, each with its ts-list (from the
        database's cached vertical scan, so no header sweep runs here).

        Builds the RP-list and the initial RP-tree, kept as
        :attr:`parallel_context` for :meth:`_grow`.
        """
        with span("first_scan"):
            rp_list = build_rp_list(database, params)
            item_ts = database.item_timestamps()
        tree = self._build_tree(database, params, rp_list, stats)
        if tree is None:
            return []
        self.attach_context(tree)
        return [(item, item_ts[item]) for item in tree.header_bottom_up()]

    def _grow(
        self,
        prefix: Tuple[Item, ...],
        prefix_ts: Sequence[float],
        extensions: Sequence[Tuple[Item, Sequence[float]]],
        params: ResolvedParameters,
        found: List[RecurringPattern],
        stats: MiningStats,
    ) -> None:
        """Mine the header item ``prefix == (item,)`` and its suffix tree.

        By Lemma 3 the item's conditional pattern base is fixed by the
        attached initial tree, so it is read off that tree
        (:meth:`~repro.core.rp_tree.RPTree.subtree_prefix_paths`) in any
        order and any process.  ``extensions`` is unused: the tree
        already limits the base to the items ranked above the suffix.
        """
        tree = self.parallel_context
        self._grow_suffix(
            prefix, prefix_ts, tree.subtree_prefix_paths, tree.order,
            params, found, stats,
        )

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
            self._grow_suffix(
                suffix + (item,), tree.pattern_timestamps(item),
                tree.prefix_paths, tree.order, params, found, stats,
            )
            tree.remove_item(item)

    def _grow_suffix(
        self,
        beta: Tuple[Item, ...],
        beta_ts: Sequence[float],
        base_of: Callable[[Item], List[BaseEntry]],
        order: Dict[Item, int],
        params: ResolvedParameters,
        found: List[RecurringPattern],
        stats: MiningStats,
    ) -> None:
        """One suffix ``beta``: the ``Erec`` test, the report, then the
        conditional tree of ``base_of(beta[-1])`` and the recursion."""
        stats.erec_evaluations += 1
        if (
            estimated_recurrence(beta_ts, params.per, params.min_ps)
            < params.min_rec
        ):
            return
        stats.candidate_patterns += 1
        stats.recurrence_evaluations += 1
        pattern = params.pattern_from_timestamps(beta, beta_ts)
        if pattern is not None:
            stats.patterns_found += 1
            found.append(pattern)
        if self.max_length is not None and len(beta) >= self.max_length:
            return
        conditional = self._conditional_tree(
            base_of(beta[-1]), order, params, stats
        )
        if conditional is not None:
            self._mine_tree(conditional, beta, params, found, stats)

    @staticmethod
    def _conditional_tree(
        base: Sequence[BaseEntry],
        order: Dict[Item, int],
        params: ResolvedParameters,
        stats: MiningStats,
    ) -> Optional[RPTree]:
        """Build a conditional RP-tree from a conditional pattern base.

        Every item on a prefix path is credited with the entry's ts-list
        (Property 4).  Items whose conditional ``Erec`` falls below
        ``minRec`` are dropped (Properties 1–2) and the surviving paths
        are re-inserted in the global item ``order``.  Returns ``None``
        when the base is empty or no item survives.

        Each contributing ts-list is a concatenation of sorted runs, so
        the ``sort()`` that assembles a conditional item's point
        sequence is effectively a k-way merge executed by Timsort's
        C-speed run detection — measured faster than an explicit
        :func:`heapq.merge` (see docs/performance.md).
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
