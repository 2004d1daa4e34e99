"""Plain-text readers and writers for event sequences and databases.

Two line-oriented formats are supported, both friendly to shell tools:

* **event format** — one event per line: ``<ts><TAB><item>``;
* **transaction format** — one transaction per line:
  ``<ts><TAB><item> <item> ...`` (items separated by single spaces).

Timestamps are parsed as ``int`` when possible, otherwise ``float``.
Blank lines and lines starting with ``#`` are ignored.  Malformed lines
raise :class:`~repro.exceptions.DataFormatError` with the line number.

The transaction format is read as a stream:

* :func:`stream_transaction_rows` lazily yields parsed ``(ts, items)``
  rows without materializing the file;
* :func:`load_transactional_database` feeds that stream straight into
  the database constructor, which writes its item-id columns as the
  rows arrive, so no row list and no row object outlives its line;
* :func:`iter_database_chunks` cuts a *time-sorted* file into bounded
  :class:`~repro.timeseries.database.TransactionalDatabase` chunks,
  merging rows that share a timestamp and never splitting one across
  chunks.
"""

from __future__ import annotations

import math
import os
from typing import IO, Iterator, List, Tuple, Union

from repro.exceptions import DataFormatError, ParameterError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import EventSequence

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]

__all__ = [
    "load_event_sequence",
    "save_event_sequence",
    "load_transactional_database",
    "save_transactional_database",
    "stream_transaction_rows",
    "iter_database_chunks",
    "load_spmf_transactions",
    "save_spmf_transactions",
]


def load_event_sequence(source: PathOrFile) -> EventSequence:
    """Read an event sequence from ``source`` (path or open text file)."""
    pairs = []
    for line_no, line in _lines(source):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise DataFormatError(
                f"line {line_no}: expected '<ts>\\t<item>', got {line!r}"
            )
        pairs.append((parts[1], _parse_ts(parts[0], line_no)))
    return EventSequence(pairs)


def save_event_sequence(events: EventSequence, target: PathOrFile) -> None:
    """Write an event sequence in event format.

    Items whose string form contains a tab or newline cannot be
    represented in the format and raise
    :class:`~repro.exceptions.DataFormatError` (silent corruption would
    be worse).
    """
    tab_or_newline = "\t\n"
    with _Opened(target, "w") as handle:
        for event in events:
            item_text = _checked_item(event.item, separators=tab_or_newline)
            handle.write(f"{_format_ts(event.ts)}\t{item_text}\n")


def load_transactional_database(source: PathOrFile) -> TransactionalDatabase:
    """Read a transactional database from ``source``.

    Rows are parsed one at a time as the constructor consumes them
    (:func:`stream_transaction_rows`), so no intermediate row list is
    built.
    """
    return TransactionalDatabase(stream_transaction_rows(source))


def stream_transaction_rows(
    source: PathOrFile,
) -> Iterator[Tuple[float, List[str]]]:
    """Lazily yield ``(ts, items)`` rows of a transaction-format source.

    The generator parses one line at a time, so the file is never
    materialized: blank lines and ``#`` comments are skipped, and a
    malformed line raises :class:`~repro.exceptions.DataFormatError`
    *when the iterator reaches it*, carrying its line number in the
    file (skipped lines counted).
    """
    for _, ts, items in _transaction_lines(source):
        yield ts, items


def iter_database_chunks(
    source: PathOrFile, max_transactions: int
) -> Iterator[TransactionalDatabase]:
    """Cut a *time-sorted* transaction file into bounded database chunks.

    Yields :class:`~repro.timeseries.database.TransactionalDatabase`
    chunks of at most ``max_transactions`` transactions each.  Rows
    sharing a timestamp are merged into one transaction (exactly like
    the database constructor) and are never split across a chunk
    boundary, so concatenating the chunks reproduces
    :func:`load_transactional_database`'s database transaction for
    transaction.

    Timestamps must be non-decreasing in file order — chunking an
    unsorted file by position would not partition the *time* axis, so a
    timestamp regression raises
    :class:`~repro.exceptions.DataFormatError` with the offending line
    number.  This is the reader that feeds the out-of-core sharded
    miner (:mod:`repro.shard`); chunk boundaries are deterministic, so
    repeated passes over the same file see identical chunks.  A
    ``max_transactions`` that is not a positive int raises
    :class:`~repro.exceptions.ParameterError` when the iterator starts.
    """
    if isinstance(max_transactions, bool) or not isinstance(
        max_transactions, int
    ) or max_transactions < 1:
        raise ParameterError(
            f"max_transactions must be a positive int, "
            f"got {max_transactions!r}"
        )
    rows: List[Tuple[float, List[str]]] = []
    distinct = 0
    previous_ts: float = float("-inf")
    for line_no, ts, items in _transaction_lines(source):
        if ts < previous_ts:
            raise DataFormatError(
                f"line {line_no}: timestamps must be non-decreasing for "
                f"chunked reading, saw {previous_ts!r} then {ts!r}"
            )
        if ts != previous_ts:
            if distinct == max_transactions:
                yield TransactionalDatabase(rows)
                rows = []
                distinct = 0
            distinct += 1
            previous_ts = ts
        rows.append((ts, items))
    if rows:
        yield TransactionalDatabase(rows)


def save_transactional_database(
    database: TransactionalDatabase, target: PathOrFile
) -> None:
    """Write a database in transaction format (items sorted per line).

    Items whose string form contains whitespace cannot be represented
    (the format separates items with spaces) and raise
    :class:`~repro.exceptions.DataFormatError` before any line is
    written.  Lines are written from the database's id rows, so no row
    object is built.
    """
    text = _item_texts(database).__getitem__
    with _Opened(target, "w") as handle:
        for ts, ids in database.id_rows():
            handle.write(f"{_format_ts(ts)}\t{' '.join(map(text, ids))}\n")


def load_spmf_transactions(
    source: PathOrFile, start_ts: int = 1
) -> TransactionalDatabase:
    """Read an SPMF-style transaction file.

    The SPMF library (whose format much of the periodic-pattern-mining
    ecosystem shares) writes one transaction per line as space-separated
    items, with ``@``-prefixed metadata lines and ``%`` comments.  The
    format has no timestamps, so — exactly like the paper does for
    T10I4D100K — consecutive integer timestamps starting at
    ``start_ts`` are assigned in file order.

    Lines containing the sequence markers ``-1``/``-2`` are rejected:
    that is SPMF's *sequence* format, which holds ordering information
    this loader would silently discard.
    """
    rows: List[Tuple[float, List[str]]] = []
    ts = start_ts
    for line_no, line in _lines(source):
        stripped = line.strip()
        if stripped.startswith("@") or stripped.startswith("%"):
            continue
        items = stripped.split()
        if "-1" in items or "-2" in items:
            raise DataFormatError(
                f"line {line_no}: SPMF sequence markers found; this is a "
                "sequence file, not a transaction file"
            )
        rows.append((ts, items))
        ts += 1
    return TransactionalDatabase(rows)


def save_spmf_transactions(
    database: TransactionalDatabase, target: PathOrFile
) -> None:
    """Write a database as SPMF transactions (timestamps are dropped).

    Items are sorted per line for determinism.  The temporal structure
    beyond transaction order is lost — that is inherent to the format,
    and precisely the limitation of symbolic-sequence mining the paper
    discusses.
    """
    text = _item_texts(database).__getitem__
    with _Opened(target, "w") as handle:
        for _, ids in database.id_rows():
            handle.write(" ".join(map(text, ids)) + "\n")


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _lines(source: PathOrFile) -> Iterator[Tuple[int, str]]:
    """Yield (line_number, stripped_line), skipping blanks and comments."""
    with _Opened(source, "r") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not _skipped(line):
                yield line_no, line


def _skipped(line: str) -> bool:
    """Whether ``line`` is blank or a ``#`` comment."""
    return not line.strip() or line.lstrip().startswith("#")


#: An int written in at most this many characters is below 10**308,
#: inside the float range (about 1.8e308), so the transaction reader's
#: fast path needs no range check; a longer timestamp goes through
#: :func:`_parse_ts`, which checks it.
_FLOAT_SAFE_CHARS = 308


def _transaction_lines(
    source: PathOrFile,
) -> Iterator[Tuple[int, float, List[str]]]:
    """Yield ``(line_number, ts, items)`` per transaction line.

    The one parser of the transaction format.  A line of an int
    timestamp of at most :data:`_FLOAT_SAFE_CHARS` characters, one tab
    and at least one item — every line the writer emits — is parsed
    with two splits and an ``int``; any other line is skipped if blank
    or a comment (:func:`_skipped`), else parsed by
    :func:`_parse_transaction_line`, which raises with its line number
    on a malformed one.
    """
    with _Opened(source, "r") as handle:
        for line_no, raw in enumerate(handle, start=1):
            parts = raw.split("\t")
            if len(parts) == 2 and len(parts[0]) <= _FLOAT_SAFE_CHARS:
                items = parts[1].split()
                if items:
                    try:
                        ts = int(parts[0])
                    except ValueError:
                        pass
                    else:
                        yield line_no, ts, items
                        continue
            line = raw.rstrip("\n")
            if not _skipped(line):
                yield (line_no,) + _parse_transaction_line(line_no, line)


def _parse_transaction_line(
    line_no: int, line: str
) -> Tuple[float, List[str]]:
    """Parse one transaction-format line (shared by every reader)."""
    parts = line.split("\t")
    if len(parts) != 2 or not parts[1].strip():
        raise DataFormatError(
            f"line {line_no}: expected '<ts>\\t<items>', got {line!r}"
        )
    return _parse_ts(parts[0], line_no), parts[1].split()


class _Opened:
    """Context manager that opens paths but leaves open handles alone.

    ``mode`` is ``"r"`` or ``"w"``; an object with a ``read`` (or
    ``write``) method is taken as an open handle.
    """

    def __init__(self, source: PathOrFile, mode: str):
        self._source = source
        self._mode = mode
        self._owned = not hasattr(source, "read" if mode == "r" else "write")
        self._handle: IO[str] = None  # type: ignore[assignment]

    def __enter__(self) -> IO[str]:
        if self._owned:
            self._handle = open(self._source, self._mode, encoding="utf-8")
        else:
            self._handle = self._source  # type: ignore[assignment]
        return self._handle

    def __exit__(self, *exc_info: object) -> None:
        if self._owned:
            self._handle.close()


def _parse_ts(text: str, line_no: int) -> float:
    text = text.strip()
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError as exc:
            raise DataFormatError(
                f"line {line_no}: unparsable timestamp {text!r}"
            ) from exc
    # float() also reads 'nan', 'inf' and out-of-range values like
    # '1e400', and int() reads ints beyond the float range, where
    # isfinite raises; the database would reject them without the
    # line number.
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise DataFormatError(
            f"line {line_no}: timestamp must be finite, got {text!r}"
        )
    return value


def _item_texts(database: TransactionalDatabase) -> List[str]:
    """Each item's text by item id, checked once per distinct item."""
    return [
        _checked_item(item, separators=" \t\n")
        for item in database.item_labels
    ]


def _checked_item(item: object, separators: str) -> str:
    """Stringify ``item``, refusing strings the format cannot hold."""
    text = str(item)
    if not text or any(ch in text for ch in separators):
        raise DataFormatError(
            f"item {text!r} cannot be written: it is empty or contains "
            "a separator character of the file format"
        )
    return text


def _format_ts(ts: float) -> str:
    if isinstance(ts, int) or (isinstance(ts, float) and ts.is_integer()):
        return str(int(ts))
    return repr(ts)
