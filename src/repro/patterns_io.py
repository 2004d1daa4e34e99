"""Persistence for mined pattern sets.

Mining a large archive can take minutes; analysts re-query the result
far more often than they re-mine.  This module serialises a
:class:`~repro.core.model.RecurringPatternSet` to a line-oriented TSV
that survives a round trip exactly (tested), keeps integer timestamps
as integers, and stays greppable:

```
# repro recurring patterns v1
a b<TAB>7<TAB>1:4:3,11:14:3
```

Columns: space-separated items, support, comma-separated
``start:end:periodic_support`` interval triples.  Items may hold none
of the separators, so :func:`filter_patterns_tsv` can select rows by
their interval count without parsing them.
"""

from __future__ import annotations

import os
from typing import IO, List, Union

from repro.core.model import (
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.exceptions import DataFormatError

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]

__all__ = [
    "count_patterns_tsv",
    "filter_patterns_tsv",
    "load_patterns",
    "save_patterns",
]

_HEADER = "# repro recurring patterns v1"


def save_patterns(patterns: RecurringPatternSet, target: PathOrFile) -> None:
    """Write a pattern set (deterministic order, exact round trip)."""
    if hasattr(target, "write"):
        _write(patterns, target)  # type: ignore[arg-type]
    else:
        with open(target, "w", encoding="utf-8") as handle:
            _write(patterns, handle)


def load_patterns(source: PathOrFile) -> RecurringPatternSet:
    """Read a pattern set written by :func:`save_patterns`."""
    if hasattr(source, "read"):
        return _read(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as handle:
        return _read(handle)


def count_patterns_tsv(patterns_tsv: str) -> int:
    """The number of patterns in a :func:`save_patterns` text: one per
    line after the header."""
    return patterns_tsv.count("\n") - 1


def filter_patterns_tsv(patterns_tsv: str, min_recurrence: int) -> str:
    """The header and the rows of ``patterns_tsv`` whose pattern has at
    least ``min_recurrence`` periodic-intervals.

    Equal to ``save_patterns(patterns.filter(min_recurrence=...))`` for
    the set ``patterns`` the text was saved from: a filter keeps the
    set's order, every row holds at least one interval triple (as every
    mined pattern does, and as :func:`load_patterns` requires), and no
    item or number holds a ``,``, so a row's commas count its triples
    less one.
    """
    header, _, body = patterns_tsv.partition("\n")
    commas = min_recurrence - 1
    # ``[:-1]`` drops the empty piece after the last row's newline.
    kept = [row for row in body.split("\n")[:-1] if row.count(",") >= commas]
    return "\n".join([header, *kept, ""])


def _write(patterns: RecurringPatternSet, handle: IO[str]) -> None:
    handle.write(_HEADER + "\n")
    for pattern in patterns:
        items = " ".join(
            _checked_item(item) for item in pattern.sorted_items()
        )
        intervals = ",".join(
            f"{_num(iv.start)}:{_num(iv.end)}:{iv.periodic_support}"
            for iv in pattern.intervals
        )
        handle.write(f"{items}\t{pattern.support}\t{intervals}\n")


def _read(handle: IO[str]) -> RecurringPatternSet:
    first = handle.readline().rstrip("\n")
    if first != _HEADER:
        raise DataFormatError(
            f"missing pattern-file header; got {first!r}"
        )
    patterns: List[RecurringPattern] = []
    for line_no, raw in enumerate(handle, start=2):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(
                f"line {line_no}: expected 3 tab-separated columns"
            )
        items_text, support_text, intervals_text = parts
        items = items_text.split()
        if not items:
            raise DataFormatError(f"line {line_no}: empty itemset")
        try:
            support = int(support_text)
        except ValueError as error:
            raise DataFormatError(
                f"line {line_no}: bad support {support_text!r}"
            ) from error
        intervals = []
        for chunk in intervals_text.split(","):
            fields = chunk.split(":")
            if len(fields) != 3:
                raise DataFormatError(
                    f"line {line_no}: bad interval {chunk!r}"
                )
            try:
                intervals.append(
                    PeriodicInterval(
                        _parse_num(fields[0]),
                        _parse_num(fields[1]),
                        int(fields[2]),
                    )
                )
            except ValueError as error:
                raise DataFormatError(
                    f"line {line_no}: bad interval {chunk!r}"
                ) from error
        patterns.append(
            RecurringPattern(
                items=frozenset(items),
                support=support,
                intervals=tuple(intervals),
            )
        )
    return RecurringPatternSet(patterns)


def _checked_item(item: object) -> str:
    """Stringify ``item``, refusing strings the format cannot hold."""
    text = str(item)
    if not text or any(ch in text for ch in " \t\n,:"):
        raise DataFormatError(
            f"item {text!r} cannot be written: it is empty or contains "
            "a separator character of the pattern-file format"
        )
    return text


def _num(value: float) -> str:
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(value)


def _parse_num(text: str) -> float:
    try:
        return int(text)
    except ValueError:
        return float(text)
