"""p-pattern mining — Ma & Hellerstein, ICDE 2001 (periodic-first).

A *p-pattern* is a set of items whose joint occurrences are
(partially) periodic: the number of its periodic inter-arrival times
throughout the data must reach ``minSup``.  Note the twist the paper
stresses: in this model ``minSup`` thresholds *periodic appearances*,
not plain occurrences.

Two notions of "periodic inter-arrival time" are supported:

* ``mode="threshold"`` (default) — an inter-arrival time qualifies when
  it is ≤ ``per``.  This is how the EDBT'15 paper parameterises
  p-patterns in its comparison (Table 8 uses ``per`` and ``minSup``
  with ``w = 1`` on minute-stamped data, where the window is absorbed
  by the timestamp granularity).  The count of qualifying gaps is
  anti-monotone, so the level-wise search is exact.
* ``mode="tolerance"`` — an inter-arrival time qualifies when it is
  within ``window`` of ``per`` (the original fixed-period semantics,
  with the period found by
  :func:`~repro.baselines.period_detection.detect_periods` when
  unknown).  The periodic count is *not* anti-monotone here, so the
  level-wise search prunes on plain support (which upper-bounds the
  periodic count by ``support - 1``); the result is still exact, just
  less aggressively pruned — matching the "periodic-first" algorithm's
  candidate structure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Union

from repro._validation import (
    Number,
    check_non_negative,
    check_positive,
    resolve_count_threshold,
)
from repro.baselines.apriori import generate_candidates
from repro.baselines.model import PatternCollection, PPattern
from repro.core.intervals import intersect_sorted
from repro.exceptions import ParameterError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["periodic_appearances", "mine_p_patterns"]

_MODES = ("threshold", "tolerance")
_ALGORITHMS = ("periodic-first", "association-first")


def periodic_appearances(
    timestamps: Sequence[float],
    per: Number,
    window: Optional[Number] = None,
) -> int:
    """Count the periodic inter-arrival times of a point sequence.

    With ``window=None`` a gap qualifies when it is ≤ ``per``
    (threshold semantics); otherwise when ``|gap - per| <= window``
    (tolerance semantics).

    Examples
    --------
    >>> periodic_appearances([1, 3, 4, 7, 11, 12, 14], per=2)
    4
    >>> periodic_appearances([1, 3, 4, 7, 11, 12, 14], per=2, window=1)
    5
    """
    check_positive(per, "per")
    count = 0
    for earlier, later in zip(timestamps, timestamps[1:]):
        gap = later - earlier
        if window is None:
            if gap <= per:
                count += 1
        elif abs(gap - per) <= window:
            count += 1
    return count


def mine_p_patterns(
    database: TransactionalDatabase,
    per: Number,
    min_sup: Union[int, float],
    window: Number = 0,
    mode: str = "threshold",
    algorithm: str = "periodic-first",
) -> PatternCollection[PPattern]:
    """Mine all p-patterns.

    Ma & Hellerstein propose two Apriori-like algorithms;
    ``algorithm`` selects between them (identical output, tested):

    * ``"periodic-first"`` (default) — level-wise search pruned on the
      periodicity structure; the paper uses this one because it is
      "relatively faster than the association-first algorithm";
    * ``"association-first"`` — mine frequent itemsets first (every
      p-pattern with ``minSup`` periodic gaps occurs in at least
      ``minSup + 1`` transactions), then filter by periodic count.

    Parameters
    ----------
    database:
        The transactional database (items co-occurring at a timestamp
        are already grouped, which subsumes the original's
        ``w``-windowed co-occurrence for minute-granularity data).
    per:
        The period.
    min_sup:
        Minimum number of periodic appearances (count, or fraction of
        the database size).
    window:
        Tolerance around ``per`` (only used in ``"tolerance"`` mode).
    mode:
        ``"threshold"`` or ``"tolerance"`` (see module docstring).

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> found = mine_p_patterns(paper_running_example(), per=2, min_sup=4)
    >>> found.pattern("ab").periodic_support
    4
    """
    if mode not in _MODES:
        raise ParameterError(f"mode must be one of {_MODES}, got {mode!r}")
    if algorithm not in _ALGORITHMS:
        raise ParameterError(
            f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}"
        )
    check_positive(per, "per")
    check_non_negative(window, "window")
    if len(database) == 0:
        return PatternCollection()
    threshold = resolve_count_threshold(min_sup, "min_sup", len(database))
    tolerance = window if mode == "tolerance" else None

    if algorithm == "association-first":
        return _association_first(database, per, threshold, tolerance)

    item_ts = database.item_timestamps()

    def qualifies_for_expansion(timestamps: Sequence[float]) -> bool:
        if mode == "threshold":
            return periodic_appearances(timestamps, per) >= threshold
        # Tolerance mode: periodic count is not anti-monotone; prune on
        # its anti-monotone upper bound, the gap count.
        return len(timestamps) - 1 >= threshold

    # Level 1: periodic items ("periodic-first").
    ts_of: Dict[FrozenSet[Item], Sequence[float]] = {}
    current: Set[FrozenSet[Item]] = set()
    for item, timestamps in item_ts.items():
        if qualifies_for_expansion(timestamps):
            singleton = frozenset((item,))
            ts_of[singleton] = timestamps
            current.add(singleton)

    found: List[PPattern] = []
    while current:
        for itemset in current:
            timestamps = ts_of[itemset]
            count = periodic_appearances(timestamps, per, tolerance)
            if count >= threshold:
                found.append(PPattern(itemset, len(timestamps), count))
        candidates = generate_candidates(current)
        next_level: Set[FrozenSet[Item]] = set()
        for candidate in candidates:
            parts = sorted(candidate, key=repr)
            timestamps: Sequence[float] = item_ts[parts[0]]
            for part in parts[1:]:
                timestamps = intersect_sorted(timestamps, item_ts[part])
                if not timestamps:
                    break
            if timestamps and qualifies_for_expansion(timestamps):
                ts_of[candidate] = timestamps
                next_level.add(candidate)
        current = next_level
    return PatternCollection(found)


def _association_first(
    database: TransactionalDatabase,
    per: Number,
    threshold: int,
    tolerance: Optional[Number],
) -> PatternCollection[PPattern]:
    """The association-first algorithm: frequent itemsets, then filter.

    A pattern with ``threshold`` periodic inter-arrival times has at
    least ``threshold + 1`` occurrences, so FP-growth at
    ``min_sup = threshold + 1`` yields a superset of all p-patterns,
    which a single periodicity pass then filters.
    """
    from repro.baselines.fp_growth import mine_frequent_patterns

    frequent = mine_frequent_patterns(database, threshold + 1)
    found: List[PPattern] = []
    for pattern in frequent:
        timestamps = database.timestamps_of(pattern.items)
        count = periodic_appearances(timestamps, per, tolerance)
        if count >= threshold:
            found.append(PPattern(pattern.items, pattern.support, count))
    return PatternCollection(found)
