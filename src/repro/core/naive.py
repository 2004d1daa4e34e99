"""Exhaustive reference miner — ground truth for the test suite.

Recurring patterns are not anti-monotone, so the only pruning that is
*obviously* correct (requiring no proof at all) is "the pattern never
occurs".  This miner therefore enumerates every itemset that occurs in
at least one transaction, computes its point sequence by intersection
and checks Definition 9 directly.  It is exponential by construction
and refuses databases with more distinct items than ``max_items``;
its purpose is validating the clever engines on small inputs, not
production mining.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro._validation import Number
from repro.core.intervals import intersect_sorted
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.exceptions import SearchSpaceError
from repro.obs.counters import MiningStats
from repro.obs.spans import span
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["mine_recurring_patterns_naive"]

DEFAULT_MAX_ITEMS = 16


def mine_recurring_patterns_naive(
    database: TransactionalDatabase,
    per: Number,
    min_ps: Union[int, float],
    min_rec: int,
    max_items: int = DEFAULT_MAX_ITEMS,
    stats: Optional[MiningStats] = None,
) -> RecurringPatternSet:
    """Mine recurring patterns by brute force (for verification).

    Parameters match :class:`~repro.core.rp_growth.RPGrowth`;
    ``max_items`` caps the item universe (default 16, i.e. at most
    65535 candidate itemsets) and a larger database raises
    :class:`~repro.exceptions.SearchSpaceError`.

    Only itemsets that are a subset of at least one transaction are
    enumerated — any other itemset has an empty point sequence and
    cannot be recurring — but *no* other pruning is applied.

    When ``stats`` is given it is populated with the shared counters:
    since this miner never prunes, every enumerated itemset counts as a
    candidate pattern and gets an exact recurrence evaluation, and
    ``erec_evaluations`` stays 0.
    """
    params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
    counters = stats if stats is not None else MiningStats()
    if len(database) == 0:
        return RecurringPatternSet()
    resolved = params.resolve(len(database))

    items = sorted(database.items(), key=repr)
    if len(items) > max_items:
        raise SearchSpaceError(
            f"naive miner refuses {len(items)} items (limit {max_items}); "
            "use RPGrowth or RPEclatVec for real mining"
        )
    counters.candidate_items = len(items)

    with span("first_scan"):
        occurring = _occurring_itemsets(database)
        item_ts = database.item_timestamps()

    found: List[RecurringPattern] = []
    with span("mine"):
        for itemset in occurring:
            ts_lists = sorted(
                (item_ts[item] for item in itemset), key=len
            )
            timestamps = list(ts_lists[0])
            for other in ts_lists[1:]:
                timestamps = intersect_sorted(timestamps, other)
            counters.candidate_patterns += 1
            counters.recurrence_evaluations += 1
            counters.tid_list_entries += len(timestamps)
            pattern = resolved.pattern_from_timestamps(itemset, timestamps)
            if pattern is not None:
                counters.patterns_found += 1
                found.append(pattern)
    return RecurringPatternSet(found)


def _occurring_itemsets(
    database: TransactionalDatabase,
) -> Set[FrozenSet[Item]]:
    """Every non-empty itemset that is a subset of some transaction."""
    itemsets: Set[FrozenSet[Item]] = set()
    for _, transaction_items in database:
        items = sorted(transaction_items, key=repr)
        for size in range(1, len(items) + 1):
            for combo in combinations(items, size):
                itemsets.add(frozenset(combo))
    return itemsets
