"""Periodic-interval mathematics (Definitions 4–8 of the paper).

Everything in this module operates on an *ordered* sequence of
occurrence timestamps (a point sequence, ``TS^X``).  The functions are
the single source of truth for the model's measures; every mining
engine — RP-growth, the vertical engine and the exhaustive reference —
delegates here, which is what makes the cross-engine equivalence tests
meaningful.

Glossary (paper notation):

* ``iat`` — inter-arrival time between two consecutive occurrences;
* *periodic-interval* ``pi`` — a maximal run of consecutive timestamps
  whose inter-arrival times are all ≤ ``per`` (Definition 5);
* *periodic-support* ``ps`` — the number of timestamps in a run
  (Definition 6);
* *interesting* periodic-interval — one with ``ps ≥ minPS``
  (Definition 7);
* *recurrence* ``Rec`` — the number of interesting periodic-intervals
  (Definition 8);
* ``Erec`` — the estimated maximum recurrence of any superset,
  ``Σ floor(ps_i / minPS)`` (Section 4.1), the pruning bound.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro._validation import check_count, check_positive

__all__ = [
    "inter_arrival_times",
    "intersect_sorted",
    "periodic_intervals",
    "interesting_intervals",
    "periodic_supports",
    "recurrence",
    "estimated_recurrence",
]

# A raw periodic-interval: (start timestamp, end timestamp, periodic support).
RawInterval = Tuple[float, float, int]


def inter_arrival_times(timestamps: Sequence[float]) -> Tuple[float, ...]:
    """``IAT^X``: differences between consecutive occurrence timestamps.

    Examples
    --------
    >>> inter_arrival_times([1, 3, 4, 7, 11, 12, 14])
    (2, 1, 3, 4, 1, 2)
    """
    return tuple(
        later - earlier for earlier, later in zip(timestamps, timestamps[1:])
    )


def intersect_sorted(
    left: Sequence[float], right: Sequence[float]
) -> List[float]:
    """Intersection of two strictly increasing sequences, in order.

    ``TS^(X∪Y) = TS^X ∩ TS^Y``: how the scalar miners derive a
    superset's point sequence from two of its subsets'.

    Examples
    --------
    >>> intersect_sorted([1, 3, 5, 7], [3, 4, 7, 9])
    [3, 7]
    """
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


def periodic_intervals(
    timestamps: Sequence[float], per: float
) -> List[RawInterval]:
    """All maximal periodic-intervals of a point sequence (Definition 5).

    A run is maximal when extending it on either side would include an
    inter-arrival time larger than ``per``.  Every timestamp belongs to
    exactly one run; an isolated occurrence forms a run of
    periodic-support 1.

    Parameters
    ----------
    timestamps:
        Occurrence timestamps in strictly increasing order.
    per:
        The period threshold (> 0).

    Returns
    -------
    list of ``(start, end, periodic_support)`` tuples in time order.

    Examples
    --------
    The paper's Example 5 (pattern ``ab``, ``per = 2``):

    >>> periodic_intervals([1, 3, 4, 7, 11, 12, 14], per=2)
    [(1, 4, 3), (7, 7, 1), (11, 14, 3)]
    """
    check_positive(per, "per")
    return list(_iter_runs(timestamps, per))


def periodic_supports(timestamps: Sequence[float], per: float) -> List[int]:
    """``PS^X``: the periodic-support of every periodic-interval.

    Examples
    --------
    >>> periodic_supports([1, 3, 4, 7, 11, 12, 14], per=2)
    [3, 1, 3]
    """
    check_positive(per, "per")
    return [ps for _, _, ps in _iter_runs(timestamps, per)]


def interesting_intervals(
    timestamps: Sequence[float], per: float, min_ps: int
) -> List[RawInterval]:
    """``IPI^X``: periodic-intervals with ``ps ≥ min_ps`` (Definition 7).

    Examples
    --------
    >>> interesting_intervals([1, 3, 4, 7, 11, 12, 14], per=2, min_ps=3)
    [(1, 4, 3), (11, 14, 3)]
    """
    check_positive(per, "per")
    check_count(min_ps, "min_ps")
    return [run for run in _iter_runs(timestamps, per) if run[2] >= min_ps]


def recurrence(timestamps: Sequence[float], per: float, min_ps: int) -> int:
    """``Rec(X)``: the number of interesting periodic-intervals.

    This is the paper's Algorithm 5 (``getRecurrence``) as a pure
    function: a single forward scan that counts maximal runs of length
    at least ``min_ps``.

    Examples
    --------
    >>> recurrence([1, 3, 4, 7, 11, 12, 14], per=2, min_ps=3)
    2
    """
    check_positive(per, "per")
    check_count(min_ps, "min_ps")
    count = 0
    for _, _, ps in _iter_runs(timestamps, per):
        if ps >= min_ps:
            count += 1
    return count


def estimated_recurrence(
    timestamps: Sequence[float], per: float, min_ps: int
) -> int:
    """``Erec(X) = Σ floor(ps_i / min_ps)`` — the pruning bound (Sec. 4.1).

    ``Erec`` upper-bounds the recurrence of ``X`` *and of every superset
    of X* (Properties 1–2), because a superset's timestamps are a subset
    of ``X``'s and any single run of length ``ps`` can split into at most
    ``floor(ps / min_ps)`` interesting runs.

    Examples
    --------
    The paper's Example 11 (item ``g``, ``per=2, minPS=3``):

    >>> estimated_recurrence([1, 5, 6, 7, 12, 14], per=2, min_ps=3)
    1
    """
    check_positive(per, "per")
    check_count(min_ps, "min_ps")
    total = 0
    for _, _, ps in _iter_runs(timestamps, per):
        total += ps // min_ps
    return total


def _iter_runs(
    timestamps: Sequence[float], per: float
) -> Iterator[RawInterval]:
    """Yield maximal periodic runs as ``(start, end, ps)`` tuples.

    The input must be strictly increasing; this is guaranteed by the
    unique-timestamp invariant of
    :class:`~repro.timeseries.database.TransactionalDatabase`, and
    asserted cheaply here to catch misuse early.
    """
    iterator = iter(timestamps)
    try:
        start = previous = next(iterator)
    except StopIteration:
        return
    ps = 1
    for current in iterator:
        if current <= previous:
            raise ValueError(
                "timestamps must be strictly increasing; "
                f"saw {previous!r} then {current!r}"
            )
        if current - previous <= per:
            ps += 1
        else:
            yield (start, previous, ps)
            start = current
            ps = 1
        previous = current
    yield (start, previous, ps)
