"""Periodic-frequent pattern mining (Tanbeer et al. 2009; Kiran &
Kitsuregawa 2014 — "PF-growth++" semantics).

A frequent pattern is *periodic-frequent* when it exhibits complete
cyclic repetitions throughout the database: its maximum periodicity —
the largest inter-arrival time over its whole point sequence,
including the lead-in from the first transaction of the database and
the lead-out to the last — must not exceed ``max_per``, and its support
must reach ``min_sup``.

Both measures are anti-monotone (a superset's point sequence is a
subset, so gaps only merge and grow), so the search is a plain
depth-first lattice walk over ts-list intersections; this reproduces
the *model* the paper compares against in Table 8 — the comparison
there is about pattern counts, not about the mining engine.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro._validation import Number, check_positive, resolve_count_threshold
from repro.baselines.model import PatternCollection, PeriodicFrequentPattern
from repro.core.intervals import intersect_sorted
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["max_periodicity", "mine_periodic_frequent_patterns"]


def max_periodicity(
    timestamps: Sequence[float], db_start: float, db_end: float
) -> float:
    """The periodicity measure: largest gap over the whole database span.

    ``max(ts_1 - db_start, iat_1, …, iat_k, db_end - ts_last)``.
    An empty point sequence has infinite periodicity.

    Examples
    --------
    >>> max_periodicity([1, 3, 4, 7, 11, 12, 14], db_start=1, db_end=14)
    4
    """
    if not timestamps:
        return float("inf")
    worst = max(timestamps[0] - db_start, db_end - timestamps[-1])
    for earlier, later in zip(timestamps, timestamps[1:]):
        gap = later - earlier
        if gap > worst:
            worst = gap
    return worst


def mine_periodic_frequent_patterns(
    database: TransactionalDatabase,
    min_sup: Union[int, float],
    max_per: Number,
) -> PatternCollection[PeriodicFrequentPattern]:
    """Mine all periodic-frequent patterns.

    Parameters
    ----------
    database:
        The transactional database.
    min_sup:
        Minimum support (count, or fraction of the database size).
    max_per:
        Maximum allowed periodicity.

    Examples
    --------
    In the paper's running example, ``a`` appears at
    {1,2,3,4,7,11,12,14}: its largest gap is 4, so it is
    periodic-frequent at ``max_per=4`` but not at ``max_per=3``:

    >>> from repro.datasets import paper_running_example
    >>> db = paper_running_example()
    >>> found = mine_periodic_frequent_patterns(db, 6, 4)
    >>> found.pattern("a").periodicity
    4
    >>> "a" in mine_periodic_frequent_patterns(db, 6, 3)
    False
    """
    check_positive(max_per, "max_per")
    if len(database) == 0:
        return PatternCollection()
    threshold = resolve_count_threshold(min_sup, "min_sup", len(database))
    db_start, db_end = database.start, database.end

    item_ts = database.item_timestamps()
    roots: List[Tuple[Item, Tuple[float, ...]]] = []
    for item in sorted(item_ts, key=repr):
        ts_list = item_ts[item]
        if (
            len(ts_list) >= threshold
            and max_periodicity(ts_list, db_start, db_end) <= max_per
        ):
            roots.append((item, ts_list))
    roots.sort(key=lambda pair: (len(pair[1]), repr(pair[0])))

    found: List[PeriodicFrequentPattern] = []

    def grow(
        prefix: Tuple[Item, ...],
        prefix_ts: Sequence[float],
        extensions: List[Tuple[Item, Tuple[float, ...]]],
    ) -> None:
        found.append(
            PeriodicFrequentPattern(
                frozenset(prefix),
                len(prefix_ts),
                max_periodicity(prefix_ts, db_start, db_end),
            )
        )
        for index, (item, item_ts_list) in enumerate(extensions):
            new_ts = intersect_sorted(prefix_ts, item_ts_list)
            if (
                len(new_ts) >= threshold
                and max_periodicity(new_ts, db_start, db_end) <= max_per
            ):
                grow(prefix + (item,), new_ts, extensions[index + 1:])

    for index, (item, ts_list) in enumerate(roots):
        grow((item,), ts_list, roots[index + 1:])
    return PatternCollection(found)
