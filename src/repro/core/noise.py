"""Noise-tolerant recurring patterns (the paper's first future-work item).

Section 6 of the paper: *"In our current study, we did not considered
noisy data … For future work, we will develop methods for handling
these two scenarios."*  This module supplies that extension.

Real measurement streams drop events: a seasonal pattern that truly
repeats daily may show a single missing day, which under the strict
model splits one long periodic-interval in two (or destroys it, if the
halves fall below ``minPS``).  The **fault-tolerant** model forgives a
bounded number of slightly-too-long gaps per interval:

* a gap ≤ ``per`` extends the current interval as before;
* a gap in ``(per, fault_per]`` also extends it, but consumes one of
  the interval's ``max_faults`` *fault credits*;
* a gap > ``fault_per``, or a fault when no credit remains, closes the
  interval.

Intervals are carved greedily left-to-right, which keeps the
decomposition deterministic and makes ``max_faults = 0`` coincide
exactly with the strict model (tested).

Pruning stays sound through a relaxed bound: every fault-tolerant
interval has all internal gaps ≤ ``fault_per``, so it lies inside one
*relaxed run* (the strict decomposition at period ``fault_per``).  A
relaxed run of length ``ps`` can contain at most ``floor(ps / minPS)``
disjoint interesting intervals, and the relaxed-run ``Erec`` is
anti-monotone by the paper's own Property 2 — so
``estimated_recurrence(ts, fault_per, minPS)`` upper-bounds the
fault-tolerant recurrence of the pattern and of every superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro._validation import Number, check_count, check_positive
from repro.core.intervals import estimated_recurrence, intersect_sorted
from repro.core.model import (
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.exceptions import ParameterError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = [
    "FaultTolerantInterval",
    "fault_tolerant_intervals",
    "fault_tolerant_recurrence",
    "NoiseTolerantMiner",
    "mine_noise_tolerant_patterns",
]


@dataclass(frozen=True)
class FaultTolerantInterval:
    """One fault-tolerant periodic-interval.

    Like :class:`~repro.core.model.PeriodicInterval` plus the number of
    fault credits the interval consumed.
    """

    start: float
    end: float
    periodic_support: int
    faults: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"interval end {self.end} precedes start {self.start}"
            )
        check_count(self.periodic_support, "periodic_support")
        check_count(self.faults, "faults", minimum=0)

    def as_periodic_interval(self) -> PeriodicInterval:
        """Drop the fault count, yielding the base-model interval."""
        return PeriodicInterval(self.start, self.end, self.periodic_support)

    def __str__(self) -> str:
        suffix = f"~{self.faults}" if self.faults else ""
        return (
            f"[{self.start:g}, {self.end:g}]:{self.periodic_support}{suffix}"
        )


def fault_tolerant_intervals(
    timestamps: Sequence[float],
    per: Number,
    fault_per: Number,
    max_faults: int,
) -> List[FaultTolerantInterval]:
    """Greedy left-to-right fault-tolerant run decomposition.

    Parameters
    ----------
    timestamps:
        Strictly increasing occurrence timestamps.
    per:
        The strict period threshold.
    fault_per:
        The forgiving threshold for faulty gaps; must be >= ``per``.
    max_faults:
        Fault credits per interval (0 reproduces the strict model).

    Examples
    --------
    One missing beat splits the strict decomposition but not the
    fault-tolerant one:

    >>> ts = [1, 2, 3, 5, 6, 7]             # the beat at 4 was dropped
    >>> fault_tolerant_intervals(ts, per=1, fault_per=2, max_faults=0)
    [FaultTolerantInterval(start=1, end=3, periodic_support=3, faults=0), \
FaultTolerantInterval(start=5, end=7, periodic_support=3, faults=0)]
    >>> fault_tolerant_intervals(ts, per=1, fault_per=2, max_faults=1)
    [FaultTolerantInterval(start=1, end=7, periodic_support=6, faults=1)]
    """
    check_positive(per, "per")
    check_positive(fault_per, "fault_per")
    check_count(max_faults, "max_faults", minimum=0)
    if fault_per < per:
        raise ParameterError(
            f"fault_per ({fault_per}) must be >= per ({per})"
        )
    iterator = iter(timestamps)
    try:
        start = previous = next(iterator)
    except StopIteration:
        return []
    intervals: List[FaultTolerantInterval] = []
    ps = 1
    faults = 0
    for current in iterator:
        if current <= previous:
            raise ValueError(
                "timestamps must be strictly increasing; "
                f"saw {previous!r} then {current!r}"
            )
        gap = current - previous
        if gap <= per:
            ps += 1
        elif gap <= fault_per and faults < max_faults:
            faults += 1
            ps += 1
        else:
            intervals.append(
                FaultTolerantInterval(start, previous, ps, faults)
            )
            start = current
            ps = 1
            faults = 0
        previous = current
    intervals.append(FaultTolerantInterval(start, previous, ps, faults))
    return intervals


def fault_tolerant_recurrence(
    timestamps: Sequence[float],
    per: Number,
    fault_per: Number,
    max_faults: int,
    min_ps: int,
) -> int:
    """Number of interesting fault-tolerant intervals."""
    check_count(min_ps, "min_ps")
    return sum(
        1
        for interval in fault_tolerant_intervals(
            timestamps, per, fault_per, max_faults
        )
        if interval.periodic_support >= min_ps
    )


class NoiseTolerantMiner:
    """Depth-first miner for fault-tolerant recurring patterns.

    Parameters
    ----------
    per, min_ps, min_rec:
        As for :class:`~repro.core.rp_growth.RPGrowth`.
    fault_per:
        Gap length up to which a faulty gap is forgiven (default
        ``2 * per``).
    max_faults:
        Fault credits per interval (default 1).

    Examples
    --------
    >>> from repro.timeseries.database import TransactionalDatabase
    >>> db = TransactionalDatabase(
    ...     [(ts, "a") for ts in [1, 2, 3, 5, 6, 7]])
    >>> strict = NoiseTolerantMiner(1, 4, 1, max_faults=0).mine(db)
    >>> len(strict)
    0
    >>> tolerant = NoiseTolerantMiner(1, 4, 1, max_faults=1).mine(db)
    >>> tolerant.pattern("a").intervals
    (PeriodicInterval(start=1, end=7, periodic_support=6),)
    """

    def __init__(
        self,
        per: Number,
        min_ps: Union[int, float],
        min_rec: int,
        fault_per: Union[Number, None] = None,
        max_faults: int = 1,
    ):
        check_positive(per, "per")
        check_count(min_rec, "min_rec")
        check_count(max_faults, "max_faults", minimum=0)
        self.per = per
        self.fault_per = 2 * per if fault_per is None else fault_per
        check_positive(self.fault_per, "fault_per")
        if self.fault_per < per:
            raise ParameterError(
                f"fault_per ({self.fault_per}) must be >= per ({per})"
            )
        self.min_ps = min_ps
        self.min_rec = min_rec
        self.max_faults = max_faults

    def mine(self, database: TransactionalDatabase) -> RecurringPatternSet:
        """Mine all fault-tolerant recurring patterns in ``database``."""
        if len(database) == 0:
            return RecurringPatternSet()
        from repro._validation import resolve_count_threshold

        min_ps = resolve_count_threshold(
            self.min_ps, "min_ps", len(database)
        )
        item_ts = database.item_timestamps()
        roots: List[Tuple[Item, Tuple[float, ...]]] = []
        for item in sorted(item_ts, key=repr):
            ts_list = item_ts[item]
            if self._candidate(ts_list, min_ps):
                roots.append((item, ts_list))
        roots.sort(key=lambda pair: (len(pair[1]), repr(pair[0])))

        found: List[RecurringPattern] = []
        for index, (item, ts_list) in enumerate(roots):
            self._grow(
                (item,), ts_list, roots[index + 1:], min_ps, found
            )
        return RecurringPatternSet(found)

    # ------------------------------------------------------------------
    def _candidate(self, ts_list: Sequence[float], min_ps: int) -> bool:
        # Relaxed-run Erec bound (sound for the fault-tolerant model;
        # see the module docstring).
        return (
            estimated_recurrence(ts_list, self.fault_per, min_ps)
            >= self.min_rec
        )

    def _grow(
        self,
        prefix: Tuple[Item, ...],
        prefix_ts: Sequence[float],
        extensions: List[Tuple[Item, Tuple[float, ...]]],
        min_ps: int,
        found: List[RecurringPattern],
    ) -> None:
        interesting = [
            interval
            for interval in fault_tolerant_intervals(
                prefix_ts, self.per, self.fault_per, self.max_faults
            )
            if interval.periodic_support >= min_ps
        ]
        if len(interesting) >= self.min_rec:
            found.append(
                RecurringPattern(
                    items=frozenset(prefix),
                    support=len(prefix_ts),
                    intervals=tuple(
                        interval.as_periodic_interval()
                        for interval in interesting
                    ),
                )
            )
        for index, (item, item_ts) in enumerate(extensions):
            new_ts = intersect_sorted(prefix_ts, item_ts)
            if self._candidate(new_ts, min_ps):
                self._grow(
                    prefix + (item,),
                    new_ts,
                    extensions[index + 1:],
                    min_ps,
                    found,
                )


def mine_noise_tolerant_patterns(
    database: TransactionalDatabase,
    per: Number,
    min_ps: Union[int, float],
    min_rec: int = 1,
    fault_per: Union[Number, None] = None,
    max_faults: int = 1,
) -> RecurringPatternSet:
    """Functional façade over :class:`NoiseTolerantMiner`."""
    return NoiseTolerantMiner(
        per, min_ps, min_rec, fault_per=fault_per, max_faults=max_faults
    ).mine(database)
