"""A vertical recurring-pattern miner (ts-list intersection).

This engine is *not* in the paper; it is an independent implementation
of the same model used for cross-validation of RP-growth and for the
pruning ablation (DESIGN.md E-A1/E-A2).  It explores the candidate-item
lattice depth-first, carrying each pattern's point sequence explicitly
and intersecting sorted ts-lists on extension — the Eclat strategy
transplanted to time-based data.

Two pruning strategies are available:

* ``"erec"`` — the paper's estimated-maximum-recurrence bound;
* ``"support"`` — the best bound available *without* the paper's
  insight: a recurring pattern needs ``minRec`` interesting intervals of
  at least ``minPS`` occurrences each, so any pattern (and any superset)
  with ``support < minPS * minRec`` can be skipped.  Support is
  anti-monotone, so this is sound but much weaker; comparing the two is
  exactly the ablation the paper's Section 4.1 motivates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro._validation import Number
from repro.core.intervals import estimated_recurrence
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    RecurringPatternSet,
    ResolvedParameters,
)
from repro.core.ordering import sort_candidates
from repro.obs.counters import MiningStats
from repro.obs.spans import span
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["RPEclat", "intersect_sorted"]

_PRUNING_STRATEGIES = ("erec", "support")


def intersect_sorted(
    left: Sequence[float], right: Sequence[float]
) -> List[float]:
    """Intersection of two strictly increasing sequences, in order."""
    result: List[float] = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        a, b = left[i], right[j]
        if a == b:
            result.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return result


class RPEclat:
    """Depth-first vertical miner for recurring patterns.

    Parameters
    ----------
    per, min_ps, min_rec:
        Model thresholds, as for :class:`~repro.core.rp_growth.RPGrowth`.
    pruning:
        ``"erec"`` (default, the paper's bound) or ``"support"`` (weak
        baseline bound for the ablation).

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> found = RPEclat(per=2, min_ps=3, min_rec=2).mine(
    ...     paper_running_example())
    >>> sorted("".join(sorted(p.items)) for p in found)
    ['a', 'ab', 'b', 'cd', 'd', 'e', 'ef', 'f']
    """

    def __init__(
        self,
        per: Number,
        min_ps: Union[int, float],
        min_rec: int,
        pruning: str = "erec",
        max_length: Union[int, None] = None,
    ):
        if pruning not in _PRUNING_STRATEGIES:
            raise ValueError(
                f"pruning must be one of {_PRUNING_STRATEGIES}, got {pruning!r}"
            )
        self.params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
        self.pruning = pruning
        if max_length is not None and max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length!r}")
        self.max_length = max_length
        self.last_stats: MiningStats | None = None

    def mine(self, database: TransactionalDatabase) -> RecurringPatternSet:
        """Mine the complete set of recurring patterns in ``database``."""
        stats = MiningStats()
        self.last_stats = stats
        if len(database) == 0:
            return RecurringPatternSet()
        params = self.params.resolve(len(database))

        candidates = self._first_scan(database, params, stats)
        found: List[RecurringPattern] = []
        with span("mine"):
            for index, (item, ts_list) in enumerate(candidates):
                self._grow(
                    (item,), ts_list, candidates[index + 1:],
                    params, found, stats,
                )
        return RecurringPatternSet(found)

    def _first_scan(
        self,
        database: TransactionalDatabase,
        params: ResolvedParameters,
        stats: MiningStats,
    ) -> List[Tuple[Item, Tuple[float, ...]]]:
        """Candidate 1-items with their ts-lists, in canonical order.

        The rarest-first extension order keeps intermediate ts-lists
        short; the exact key is the cross-engine contract of
        :mod:`repro.core.ordering`.  Timed as the ``first_scan`` span.
        """
        with span("first_scan"):
            item_ts = database.item_timestamps()
            candidates: List[Tuple[Item, Tuple[float, ...]]] = []
            for item in sorted(item_ts, key=repr):
                ts_list = item_ts[item]
                stats.erec_evaluations += 1
                if self._passes_bound(ts_list, params, stats):
                    candidates.append((item, ts_list))
                    stats.tid_list_entries += len(ts_list)
                else:
                    stats.pruned_items += 1
            stats.candidate_items = len(candidates)
            return sort_candidates(candidates)

    # ------------------------------------------------------------------
    # Depth-first growth
    # ------------------------------------------------------------------
    def _grow(
        self,
        prefix: Tuple[Item, ...],
        prefix_ts: Sequence[float],
        extensions: List[Tuple[Item, Tuple[float, ...]]],
        params: ResolvedParameters,
        found: List[RecurringPattern],
        stats: MiningStats,
    ) -> None:
        stats.candidate_patterns += 1
        stats.recurrence_evaluations += 1
        pattern = params.pattern_from_timestamps(prefix, prefix_ts)
        if pattern is not None:
            stats.patterns_found += 1
            found.append(pattern)
        if self.max_length is not None and len(prefix) >= self.max_length:
            return
        for index, (item, item_ts) in enumerate(extensions):
            new_ts = intersect_sorted(prefix_ts, item_ts)
            stats.erec_evaluations += 1
            stats.tid_list_entries += len(new_ts)
            if not self._passes_bound(new_ts, params, stats):
                continue
            self._grow(
                prefix + (item,),
                new_ts,
                extensions[index + 1:],
                params,
                found,
                stats,
            )

    def _passes_bound(
        self,
        ts_list: Sequence[float],
        params: ResolvedParameters,
        stats: MiningStats,
    ) -> bool:
        if self.pruning == "erec":
            return (
                estimated_recurrence(ts_list, params.per, params.min_ps)
                >= params.min_rec
            )
        return len(ts_list) >= params.min_ps * params.min_rec
