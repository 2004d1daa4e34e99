"""Temporally ordered transactional databases (Section 3 of the paper).

A transaction is a pair ``(ts, Y)`` of a timestamp and an itemset.  A
transactional database is a timestamp-ordered set of transactions with
*unique* timestamps — the construction from a time series groups all
events sharing a timestamp into one transaction, so the point sequence
of every pattern in the database equals its point sequence in the
original series (no temporal information is lost).
"""

from __future__ import annotations

import bisect
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro._gc import paused_gc
from repro.exceptions import DataFormatError, EmptyDatabaseError
from repro.timeseries.events import Event, EventSequence, Item

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.timeseries.columnar import ColumnarTDB

__all__ = ["Transaction", "TransactionalDatabase"]


class Transaction(NamedTuple):
    """One timestamped itemset."""

    ts: float
    items: FrozenSet[Item]


class TransactionalDatabase:
    """A timestamp-ordered transactional database with unique timestamps.

    The constructor validates, merges and orders its input:

    * timestamps must be finite numbers;
    * transactions are sorted by timestamp;
    * transactions sharing a timestamp are merged (itemset union), which
      is exactly the grouping step of the paper's time-series-to-TDB
      transformation;
    * empty itemsets are dropped (a timestamp with no events does not
      produce a transaction — cf. timestamps 8 and 13 of the paper's
      running example).

    Parameters
    ----------
    transactions:
        Iterable of ``(ts, items)`` pairs; ``items`` is any iterable of
        hashable items.  **Note**: a plain string is an iterable of
        characters — ``(1, "abg")`` means the three items a, b, g
        (handy for compact examples); a single multi-character item
        must be wrapped, ``(1, ["beat"])``.

    Examples
    --------
    >>> db = TransactionalDatabase([(1, "ab"), (2, "a"), (1, "g")])
    >>> len(db)
    2
    >>> sorted(db[0].items)
    ['a', 'b', 'g']
    """

    __slots__ = ("_transactions", "_item_index", "_columnar", "_digest")

    def __init__(self, transactions: Iterable[Tuple[float, Iterable[Item]]] = ()):
        # The pause also covers a lazy source: a file parsed row by row
        # into this loop allocates without a collector pass.
        with paused_gc():
            merged: Dict[float, FrozenSet[Item]] = {}
            for raw in transactions:
                try:
                    ts, items = raw
                except (TypeError, ValueError) as exc:
                    raise DataFormatError(
                        f"transaction must be a (ts, items) pair, got {raw!r}"
                    ) from exc
                if isinstance(ts, bool) or not isinstance(ts, (int, float)):
                    raise DataFormatError(
                        f"transaction timestamp must be a number, got {ts!r}"
                    )
                if not math.isfinite(ts):
                    raise DataFormatError(
                        f"transaction timestamp must be finite, got {ts!r}"
                    )
                itemset = frozenset(items)
                if not itemset:
                    continue
                # ``setdefault`` hands back an earlier row's itemset
                # when the timestamp repeats.
                first = merged.setdefault(ts, itemset)
                if first is not itemset:
                    merged[ts] = first | itemset
            self._transactions: Tuple[Transaction, ...] = tuple(
                Transaction(ts, merged[ts]) for ts in sorted(merged)
            )
        self._item_index: Optional[Dict[Item, Tuple[float, ...]]] = None
        self._columnar = None
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self._transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionalDatabase):
            return NotImplemented
        return self._transactions == other._transactions

    def __hash__(self) -> int:
        return hash(self._transactions)

    def __repr__(self) -> str:
        if not self._transactions:
            return "TransactionalDatabase(empty)"
        return (
            f"TransactionalDatabase({len(self._transactions)} transactions, "
            f"{len(self.items())} items, span=[{self.start}, {self.end}])"
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """All transactions in timestamp order."""
        return self._transactions

    @property
    def start(self) -> float:
        """Timestamp of the first transaction."""
        self._require_non_empty()
        return self._transactions[0].ts

    @property
    def end(self) -> float:
        """Timestamp of the last transaction."""
        self._require_non_empty()
        return self._transactions[-1].ts

    @property
    def span(self) -> float:
        """``end - start``; zero for a single-transaction database."""
        return self.end - self.start

    def items(self) -> FrozenSet[Item]:
        """The set of distinct items appearing in the database."""
        return frozenset(self.item_timestamps())

    # ------------------------------------------------------------------
    # Point-sequence access
    # ------------------------------------------------------------------
    def item_timestamps(self) -> Dict[Item, Tuple[float, ...]]:
        """Mapping of every item to its ordered occurrence timestamps.

        Built lazily on first use and cached; the database is immutable
        so the cache never goes stale.
        """
        if self._item_index is None:
            index: Dict[Item, List[float]] = {}
            for ts, itemset in self._transactions:
                for item in itemset:
                    index.setdefault(item, []).append(ts)
            self._item_index = {
                item: tuple(ts_list) for item, ts_list in index.items()
            }
        return self._item_index

    def columnar(self) -> "ColumnarTDB":
        """Array-backed vertical view (see :mod:`repro.timeseries.columnar`).

        Built from the cached :meth:`item_timestamps` scan on first use
        and cached alongside it; the database is immutable so neither
        cache ever goes stale.  Repeated mines and sweep columns over
        the same database therefore share one materialisation.
        """
        if self._columnar is None:
            from repro.timeseries.columnar import ColumnarTDB

            self._columnar = ColumnarTDB.from_database(self)
        return self._columnar

    def digest(self) -> str:
        """Stable content hash of the database (hex SHA-256, 64 chars).

        The hash covers the canonical line encoding the TSV writer
        uses — one ``<ts>\\t<item> <item> ...`` line per transaction in
        timestamp order, items in sorted-by-repr order — except that
        items are ``repr``-escaped so the digest is defined even for
        items the TSV format itself refuses (whitespace, tabs).  Two
        databases have equal digests iff they compare equal, because
        the constructor already canonicalises (sorts, merges, drops
        empties) and the encoding is injective on that canonical form.

        Built on first use and cached like :meth:`columnar`; the
        database is immutable so the cache never goes stale.  This is
        the ``dataset_digest`` of the service result cache and of
        ``repro-run/v1`` records.

        Examples
        --------
        >>> a = TransactionalDatabase([(1, "ab"), (2, "a")])
        >>> b = TransactionalDatabase([(2, "a"), (1, "ba")])
        >>> a.digest() == b.digest()
        True
        >>> len(a.digest())
        64
        """
        if self._digest is None:
            import hashlib

            hasher = hashlib.sha256()
            for ts, itemset in self._transactions:
                # int-valued floats print the way the TSV writer prints
                # them, so 3 and 3.0 (equal timestamps) hash equally.
                if isinstance(ts, float) and ts.is_integer():
                    ts_text = str(int(ts))
                else:
                    ts_text = repr(ts)
                line = ts_text + "\t" + " ".join(
                    sorted(repr(item) for item in itemset)
                )
                hasher.update(line.encode("utf-8"))
                hasher.update(b"\n")
            self._digest = hasher.hexdigest()
        return self._digest

    def timestamps_of(self, pattern: Iterable[Item]) -> Tuple[float, ...]:
        """``TS^X``: ordered timestamps of transactions containing ``pattern``.

        Implemented by intersecting the per-item timestamp lists,
        starting from the rarest item.
        """
        items = list(set(pattern))
        if not items:
            raise ValueError("pattern must contain at least one item")
        index = self.item_timestamps()
        try:
            lists = sorted((index[item] for item in items), key=len)
        except KeyError:
            return ()
        result = set(lists[0])
        for ts_list in lists[1:]:
            result.intersection_update(ts_list)
            if not result:
                return ()
        return tuple(sorted(result))

    def support(self, pattern: Iterable[Item]) -> int:
        """``Sup(X)``: number of transactions containing ``pattern``."""
        return len(self.timestamps_of(pattern))

    # ------------------------------------------------------------------
    # Derived databases
    # ------------------------------------------------------------------
    def restrict_items(self, keep: Iterable[Item]) -> "TransactionalDatabase":
        """Database with every transaction projected onto ``keep``."""
        keep_set = set(keep)
        return TransactionalDatabase(
            (ts, itemset & keep_set) for ts, itemset in self._transactions
        )

    def window(self, start: float, end: float) -> "TransactionalDatabase":
        """Transactions with ``start <= ts <= end``."""
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        ts_values = [ts for ts, _ in self._transactions]
        lo = bisect.bisect_left(ts_values, start)
        hi = bisect.bisect_right(ts_values, end)
        return TransactionalDatabase(self._transactions[lo:hi])

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: EventSequence) -> "TransactionalDatabase":
        """Group a time series into a transactional database.

        This is the paper's (lossless) transformation: all events that
        share a timestamp become one transaction.
        """
        return cls((event.ts, (event.item,)) for event in events)

    def to_events(self) -> EventSequence:
        """Flatten the database back into an event sequence.

        Items within a transaction are emitted in sorted-by-repr order
        so the output is deterministic.
        """
        pairs: List[Tuple[Item, float]] = []
        for ts, itemset in self._transactions:
            for item in sorted(itemset, key=repr):
                pairs.append((item, ts))
        return EventSequence(pairs)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_non_empty(self) -> None:
        if not self._transactions:
            raise EmptyDatabaseError("the database has no transactions")
