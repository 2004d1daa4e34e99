"""Event sequences and point sequences (Definitions 1–2 of the paper).

An *event* is a pair ``(item, ts)`` where ``item`` is a hashable symbol
(event type) and ``ts`` is a real-valued timestamp.  An *event
sequence* is an ordered collection of events with non-decreasing
timestamps.  The *point sequence* of an item (or of a pattern) is the
ordered collection of timestamps at which it occurs.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from repro.exceptions import DataFormatError

Item = Hashable

__all__ = ["Item", "Event", "EventSequence"]


class Event(NamedTuple):
    """A single occurrence of an item at a timestamp."""

    item: Item
    ts: float


class EventSequence:
    """An ordered collection of events (Definition 1).

    The constructor accepts events in any order and sorts them by
    timestamp (stable, so simultaneous events keep their input order).
    Timestamps must be finite real numbers.

    Parameters
    ----------
    events:
        Iterable of ``Event`` or plain ``(item, ts)`` pairs.

    Examples
    --------
    >>> seq = EventSequence([("a", 1), ("b", 1), ("a", 2)])
    >>> len(seq)
    3
    >>> seq.point_sequence("a")
    (1, 2)
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Tuple[Item, float]] = ()):
        parsed: List[Event] = []
        for raw in events:
            try:
                item, ts = raw
            except (TypeError, ValueError) as exc:
                raise DataFormatError(
                    f"event must be an (item, ts) pair, got {raw!r}"
                ) from exc
            if isinstance(ts, bool) or not isinstance(ts, (int, float)):
                raise DataFormatError(
                    f"event timestamp must be a number, got {ts!r}"
                )
            try:
                finite = math.isfinite(ts)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise DataFormatError(
                    f"event timestamp must be finite, got {ts!r}"
                )
            parsed.append(Event(item, ts))
        parsed.sort(key=lambda event: event.ts)
        self._events: Tuple[Event, ...] = tuple(parsed)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSequence):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        span = f", span=[{self.start}, {self.end}]" if self._events else ""
        return f"EventSequence({len(self._events)} events{span})"

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[Event, ...]:
        """All events in timestamp order."""
        return self._events

    @property
    def start(self) -> float:
        """Timestamp of the first event.

        Raises :class:`ValueError` on an empty sequence.
        """
        if not self._events:
            raise ValueError("empty event sequence has no start")
        return self._events[0].ts

    @property
    def end(self) -> float:
        """Timestamp of the last event."""
        if not self._events:
            raise ValueError("empty event sequence has no end")
        return self._events[-1].ts

    def items(self) -> Tuple[Item, ...]:
        """Distinct items, ordered by first occurrence."""
        seen: Dict[Item, None] = {}
        for event in self._events:
            seen.setdefault(event.item, None)
        return tuple(seen)

    # ------------------------------------------------------------------
    # Point sequences (Definition 2)
    # ------------------------------------------------------------------
    def point_sequence(self, item: Item) -> Tuple[float, ...]:
        """Ordered, de-duplicated occurrence timestamps of ``item``.

        Duplicate ``(item, ts)`` events collapse to one point, matching
        the set semantics of timestamps in the transactional view.
        """
        points: List[float] = []
        for event in self._events:
            if event.item == item:
                if not points or points[-1] != event.ts:
                    points.append(event.ts)
        return tuple(points)

    def point_sequences(self) -> Dict[Item, Tuple[float, ...]]:
        """Point sequences of every item, in one pass."""
        points: Dict[Item, List[float]] = {}
        for event in self._events:
            bucket = points.setdefault(event.item, [])
            if not bucket or bucket[-1] != event.ts:
                bucket.append(event.ts)
        return {item: tuple(ts_list) for item, ts_list in points.items()}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_point_sequences(
        cls, points: Dict[Item, Sequence[float]]
    ) -> "EventSequence":
        """Build a sequence from per-item occurrence-timestamp lists."""
        pairs: List[Tuple[Item, float]] = []
        for item, ts_list in points.items():
            pairs.extend((item, ts) for ts in ts_list)
        return cls(pairs)

    def restrict_items(self, keep: Iterable[Item]) -> "EventSequence":
        """Sequence containing only events whose item is in ``keep``."""
        keep_set = set(keep)
        return EventSequence(
            (event.item, event.ts)
            for event in self._events
            if event.item in keep_set
        )

    def window(self, start: float, end: float) -> "EventSequence":
        """Events with ``start <= ts <= end`` (inclusive on both sides)."""
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        return EventSequence(
            (event.item, event.ts)
            for event in self._events
            if start <= event.ts <= end
        )
