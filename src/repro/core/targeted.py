"""Targeted queries: recurring patterns containing given anchor items.

Analysts often start from an entity, not from thresholds: *"what recurs
together with #flood?"*, *"which alarms episode with disk_err?"*.
Mining everything and filtering answers that, but wastes the whole
search; anchoring the depth-first search at the query items explores
only the sub-lattice above them.

Because recurring patterns are not anti-monotone, the anchor itself is
*not* required to be recurring — only to be an ``Erec`` candidate
(otherwise, by Properties 1–2, no superset can be recurring either and
the answer is empty).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

from repro._validation import Number
from repro.core.intervals import estimated_recurrence, intersect_sorted
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["mine_patterns_containing"]


def mine_patterns_containing(
    database: TransactionalDatabase,
    anchor: Iterable[Item],
    per: Number,
    min_ps: Union[int, float],
    min_rec: int = 1,
) -> RecurringPatternSet:
    """All recurring patterns that contain every item of ``anchor``.

    Equivalent to mining everything and keeping the supersets of
    ``anchor`` (property-tested), but explores only the anchored
    sub-lattice.

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> found = mine_patterns_containing(
    ...     paper_running_example(), anchor="d", per=2, min_ps=3, min_rec=2)
    >>> sorted("".join(sorted(p.items)) for p in found)
    ['cd', 'd']
    """
    anchor_items = frozenset(anchor)
    if not anchor_items:
        raise ValueError("anchor must contain at least one item")
    params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
    if len(database) == 0:
        return RecurringPatternSet()
    resolved = params.resolve(len(database))

    anchor_ts: Sequence[float] = database.timestamps_of(anchor_items)
    if (
        estimated_recurrence(anchor_ts, resolved.per, resolved.min_ps)
        < resolved.min_rec
    ):
        return RecurringPatternSet()

    item_ts = database.item_timestamps()
    extensions: List[Tuple[Item, Sequence[float]]] = []
    for item in sorted(set(item_ts) - anchor_items, key=repr):
        joint = intersect_sorted(anchor_ts, item_ts[item])
        if (
            estimated_recurrence(joint, resolved.per, resolved.min_ps)
            >= resolved.min_rec
        ):
            extensions.append((item, joint))
    extensions.sort(key=lambda pair: (len(pair[1]), repr(pair[0])))

    found: List[RecurringPattern] = []

    def grow(
        extra: Tuple[Item, ...],
        ts: Sequence[float],
        remaining: List[Tuple[Item, Sequence[float]]],
    ) -> None:
        pattern = resolved.pattern_from_timestamps(
            anchor_items | frozenset(extra), ts
        )
        if pattern is not None:
            found.append(pattern)
        for index, (item, item_joint) in enumerate(remaining):
            new_ts = intersect_sorted(ts, item_joint)
            if (
                estimated_recurrence(new_ts, resolved.per, resolved.min_ps)
                >= resolved.min_rec
            ):
                grow(extra + (item,), new_ts, remaining[index + 1:])

    grow((), anchor_ts, extensions)
    return RecurringPatternSet(found)
