"""Temporally ordered transactional databases (Section 3 of the paper).

A transaction is a pair ``(ts, Y)`` of a timestamp and an itemset.  A
transactional database is a timestamp-ordered set of transactions with
*unique* timestamps — the construction from a time series groups all
events sharing a timestamp into one transaction, so the point sequence
of every pattern in the database equals its point sequence in the
original series (no temporal information is lost).

The database stores columns, not row objects:

* the transaction timestamps, increasing, each the Python number it
  was given as (a repeated timestamp keeps its first spelling);
* :attr:`~TransactionalDatabase.item_labels` — the distinct items
  sorted by ``repr``; an item's position in this tuple is its *item
  id*;
* every transaction's item ids, sorted, laid end to end in one flat
  ``array('i')`` with row offsets (read through
  :meth:`~TransactionalDatabase.id_rows`).

The row tuple (:attr:`~TransactionalDatabase.transactions`), the
item → timestamps index (:meth:`~TransactionalDatabase.item_timestamps`)
and the NumPy view (:meth:`~TransactionalDatabase.columnar`) are views
built from the columns on first use and cached.  Algorithm 1 and the
RP-tree build read the id rows, so a serial RP-growth mine builds no
row object (``docs/performance.md``, "Columnar-first database").
"""

from __future__ import annotations

import bisect
import math
import operator
from array import array
from itertools import accumulate, chain, compress, islice
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
from repro.timeseries.events import EventSequence, Item

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
      transformation; the merged transaction keeps the timestamp's
      first spelling (``2``, not a later ``2.0``);
    * items that compare equal (``1``, ``1.0`` and ``True``) are one
      item, which likewise keeps its first spelling in every
      transaction, in :meth:`digest` and in the files written;
    * empty itemsets are dropped (a timestamp with no events does not
      produce a transaction — cf. timestamps 8 and 13 of the paper's
      running example).

    It writes the columns (module docstring) as the rows stream in,
    keeping no row object, so a file parsed line by line into it is
    never held as rows.  Files, generators and in-memory rows share
    this one build path.

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
    >>> db.item_labels
    ('a', 'b', 'g')
    >>> [(ts, ids.tolist()) for ts, ids in db.id_rows()]
    [(1, [0, 1, 2]), (2, [0])]
    """

    __slots__ = (
        "_timestamps",
        "_labels",
        "_ids",
        "_offsets",
        "_rows",
        "_item_index",
        "_columnar",
        "_digest",
    )

    def __init__(self, transactions: Iterable[Tuple[float, Iterable[Item]]] = ()):
        # The pause also covers a lazy source: a file parsed row by row
        # into this loop allocates without a collector pass.
        with paused_gc():
            (
                self._timestamps, self._labels, self._ids, self._offsets
            ) = _build_columns(transactions)
        self._rows: Optional[Tuple[Transaction, ...]] = None
        self._item_index: Optional[Dict[Item, Tuple[float, ...]]] = None
        self._columnar = None
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionalDatabase):
            return NotImplemented
        return (
            self._timestamps == other._timestamps
            and self._labels == other._labels
            and self._offsets == other._offsets
            and self._ids == other._ids
        )

    def __hash__(self) -> int:
        return hash((self._timestamps, self._labels))

    def __repr__(self) -> str:
        if not self._timestamps:
            return "TransactionalDatabase(empty)"
        return (
            f"TransactionalDatabase({len(self._timestamps)} transactions, "
            f"{len(self._labels)} items, span=[{self.start}, {self.end}])"
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """All transactions in timestamp order.

        A view: built from the columns on first use and cached (the
        database is immutable).  Iteration and slicing read it too.
        """
        if self._rows is None:
            label = self._labels.__getitem__
            with paused_gc():
                self._rows = tuple(
                    Transaction(ts, frozenset(map(label, ids)))
                    for ts, ids in self.id_rows()
                )
        return self._rows

    @property
    def item_labels(self) -> Tuple[Item, ...]:
        """The distinct items sorted by ``repr``: item id ``i`` (in
        :meth:`id_rows`) is ``item_labels[i]``."""
        return self._labels

    @property
    def start(self) -> float:
        """Timestamp of the first transaction."""
        self._require_non_empty()
        return self._timestamps[0]

    @property
    def end(self) -> float:
        """Timestamp of the last transaction."""
        self._require_non_empty()
        return self._timestamps[-1]

    @property
    def span(self) -> float:
        """``end - start``; zero for a single-transaction database."""
        return self.end - self.start

    def items(self) -> FrozenSet[Item]:
        """The set of distinct items appearing in the database."""
        return frozenset(self._labels)

    def id_rows(self) -> Iterator[Tuple[float, "array[int]"]]:
        """``(ts, ids)`` per transaction, in timestamp order.

        ``ids`` is an ``array('i')`` of the transaction's item ids
        (positions in :attr:`item_labels`), increasing.  This is the
        scan Algorithm 1 and the RP-tree build read: no row object is
        built.
        """
        ids = self._ids
        offsets = self._offsets
        for ts, start, end in zip(
            self._timestamps, offsets, islice(offsets, 1, None)
        ):
            yield ts, ids[start:end]

    # ------------------------------------------------------------------
    # Point-sequence access
    # ------------------------------------------------------------------
    def item_timestamps(self) -> Dict[Item, Tuple[float, ...]]:
        """Mapping of every item to its ordered occurrence timestamps.

        A view of the id rows, keyed in :attr:`item_labels` order,
        built on first use and cached; the database is immutable so
        the cache never goes stale.
        """
        if self._item_index is None:
            columns: List[List[float]] = [[] for _ in self._labels]
            for ts, ids in self.id_rows():
                for item_id in ids:
                    columns[item_id].append(ts)
            self._item_index = dict(zip(self._labels, map(tuple, columns)))
        return self._item_index

    def columnar(self) -> "ColumnarTDB":
        """Array-backed vertical view (see :mod:`repro.timeseries.columnar`).

        Transposed from the id rows on first use
        (:meth:`~repro.timeseries.columnar.ColumnarTDB.from_id_rows`)
        and cached; the database is immutable so the cache never goes
        stale.  Repeated mines and sweep columns over the same database
        therefore share one materialisation.
        """
        if self._columnar is None:
            from repro.timeseries.columnar import ColumnarTDB

            self._columnar = ColumnarTDB.from_id_rows(
                self._timestamps, self._labels, self._ids, self._offsets
            )
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

        Read from the columns: a row's ids are already in sorted-by-repr
        order, so each item is ``repr``-ed once, not once per
        occurrence.  Built on first use and cached like
        :meth:`columnar`; the database is immutable so the cache never
        goes stale.  This is the ``dataset_digest`` of the service
        result cache and of ``repro-run/v1`` records.

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

            text = [repr(item) for item in self._labels].__getitem__
            hasher = hashlib.sha256()
            for ts, ids in self.id_rows():
                # int-valued floats print the way the TSV writer prints
                # them, so 3 and 3.0 (equal timestamps) hash equally.
                if isinstance(ts, float) and ts.is_integer():
                    ts_text = str(int(ts))
                else:
                    ts_text = repr(ts)
                line = ts_text + "\t" + " ".join(map(text, ids)) + "\n"
                hasher.update(line.encode("utf-8"))
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
        label = self._labels.__getitem__
        return TransactionalDatabase(
            (ts, [item for item in map(label, ids) if item in keep_set])
            for ts, ids in self.id_rows()
        )

    def window(self, start: float, end: float) -> "TransactionalDatabase":
        """Transactions with ``start <= ts <= end``."""
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        lo = bisect.bisect_left(self._timestamps, start)
        hi = bisect.bisect_right(self._timestamps, end)
        label = self._labels.__getitem__
        return TransactionalDatabase(
            (ts, map(label, ids))
            for ts, ids in islice(self.id_rows(), lo, hi)
        )

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
        label = self._labels.__getitem__
        return EventSequence(
            [
                (label(item_id), ts)
                for ts, ids in self.id_rows()
                for item_id in ids
            ]
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_non_empty(self) -> None:
        if not self._timestamps:
            raise EmptyDatabaseError("the database has no transactions")


class _FirstSeenIds(dict):
    """Item → provisional id; an item not seen before takes the next id.

    ``map(ids.__getitem__, items)`` numbers a row at C speed: the only
    Python-level call is ``__missing__``, once per distinct item.
    """

    __slots__ = ()

    def __missing__(self, item: Item) -> int:
        self[item] = number = len(self)
        return number


def _build_columns(
    transactions: Iterable[Tuple[float, Iterable[Item]]],
) -> Tuple[Tuple[float, ...], Tuple[Item, ...], "array[int]", "array[int]"]:
    """The constructor's columns: timestamps, labels, ids and offsets.

    :func:`_number_rows` numbers the rows as they stream in; rows out
    of time order are then put in order by :func:`_in_time_order`.
    Only at the end are all the items known, so the ids are then
    renumbered into ``repr`` order.  Rows whose items came in ``repr``
    order, as :func:`~repro.timeseries.io.save_transactional_database`
    writes them, are then done; any other row is sorted, and a
    repeated item dropped.
    """
    stamps, ids, ends, seen = _number_rows(transactions)
    if not stamps:
        return (), (), array("i"), array("q", [0])
    if not _ascending(stamps):
        stamps, ids, ends = _in_time_order(stamps, ids, ends)
    reprs = [repr(item) for item in seen]
    by_repr = sorted(range(len(seen)), key=reprs.__getitem__)
    renumbered = [0] * len(seen)
    for new, old in enumerate(by_repr):
        renumbered[old] = new
    labels = tuple(seen[old] for old in by_repr)
    ids = list(map(renumbered.__getitem__, ids))
    if not _rows_ascending(ids, ends):
        _sort_rows(ids, ends)
        if not _rows_ascending(ids, ends):  # an item repeats
            ids, ends = _drop_repeats(ids, ends)
    ends.insert(0, 0)
    return tuple(stamps), labels, array("i", ids), array("q", ends)


def _number_rows(
    transactions: Iterable[Tuple[float, Iterable[Item]]],
) -> Tuple[List[float], List[int], List[int], List[Item]]:
    """Check each row, number its items and drop it.

    Items are numbered in first-seen order and appended, in the row's
    own order, to one flat list; a row ends at its entry in the ends
    list.  A row whose timestamp equals the previous row's (``==``, so
    ``2`` and ``2.0``) continues that row, which keeps the first
    spelling: a time series' events, grouped here by timestamp, make
    one row each.  Returns the timestamps, the flat ids, the row ends
    and the items by provisional id.
    """
    stamps: List[float] = []
    ids: List[int] = []
    ends: List[int] = []
    extend, append_end, append_ts = ids.extend, ends.append, stamps.append
    isfinite = math.isfinite
    first_seen = _FirstSeenIds()
    number = first_seen.__getitem__
    end = 0
    last: object = None
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
        try:
            finite = isfinite(ts)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise DataFormatError(
                f"transaction timestamp must be finite, got {ts!r}"
            )
        extend(map(number, items))
        if len(ids) > end:  # an empty itemset makes no transaction
            end = len(ids)
            if ts == last:
                ends[-1] = end
            else:
                append_end(end)
                append_ts(ts)
                last = ts
    return stamps, ids, ends, list(first_seen)


def _in_time_order(
    stamps: List[float], ids: List[int], ends: List[int]
) -> Tuple[List[float], List[int], List[int]]:
    """The rows stably sorted by timestamp, each run of equal
    timestamps merged into its first row, so the first spelling stays.
    Built at C speed, without a loop per row."""
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    starts = [0] + ends
    lengths = list(map(operator.sub, ends, starts))
    ids = list(
        chain.from_iterable(
            map(
                ids.__getitem__,
                map(
                    slice,
                    map(starts.__getitem__, order),
                    map(ends.__getitem__, order),
                ),
            )
        )
    )
    ends = list(accumulate(map(lengths.__getitem__, order)))
    stamps = list(map(stamps.__getitem__, order))
    new_run = list(map(operator.ne, islice(stamps, 1, None), stamps))
    return (
        list(compress(stamps, chain((True,), new_run))),
        ids,
        list(compress(ends, chain(new_run, (True,)))),
    )


def _ascending(values: Sequence[float]) -> bool:
    """Whether ``values`` strictly increase."""
    return all(map(operator.lt, values, islice(values, 1, None)))


def _rows_ascending(flat: List[int], ends: List[int]) -> bool:
    """Whether each row of ``flat`` (rows end at ``ends``) strictly
    increases.  One C-speed pass over neighbouring ids, skipping the
    pairs that straddle two rows, stops at the first row that does
    not."""
    within = bytearray(b"\x01") * (len(flat) - 1)
    for end in islice(ends, len(ends) - 1):
        within[end - 1] = 0
    return all(
        map(
            operator.lt,
            compress(flat, within),
            compress(islice(flat, 1, None), within),
        )
    )


def _sort_rows(flat: List[int], ends: List[int]) -> None:
    """Sort each row of ``flat`` in place."""
    start = 0
    for end in ends:
        row = flat[start:end]
        row.sort()
        flat[start:end] = row
        start = end


def _drop_repeats(
    flat: List[int], ends: List[int]
) -> Tuple[List[int], List[int]]:
    """Sorted rows without their repeated items."""
    kept: List[int] = []
    kept_ends: List[int] = []
    start = 0
    for end in ends:
        kept.extend(dict.fromkeys(flat[start:end]))
        kept_ends.append(len(kept))
        start = end
    return kept, kept_ends
