"""Streaming/chunked readers vs. a fully materialized read.

``tests/timeseries/corpus/`` holds checked-in transaction files — the
paper's running example (annotated with comments and blank lines), a
planted workload, float/negative timestamps, duplicate timestamps and
a deliberately unsorted file.  Every reader, from a path or from an
open handle, must agree byte for byte with the database built from the
file's rows read into a list first, and errors stay lazy and
line-numbered (``DataFormatError``).
"""

from __future__ import annotations

import io
import pathlib

import pytest

from repro.exceptions import DataFormatError, ParameterError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import (
    iter_database_chunks,
    load_transactional_database,
    save_transactional_database,
    stream_transaction_rows,
)

CORPUS = pathlib.Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.tsv"))
SORTED_FILES = [p for p in CORPUS_FILES if p.name != "unsorted.tsv"]


def _content_equal(left: TransactionalDatabase,
                   right: TransactionalDatabase) -> bool:
    return list(left) == list(right) and [
        type(ts) for ts, _ in left
    ] == [type(ts) for ts, _ in right]


def test_corpus_is_present_and_nontrivial():
    assert len(CORPUS_FILES) >= 5
    assert all(path.stat().st_size > 0 for path in CORPUS_FILES)


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=lambda p: p.name
)
def test_streaming_loader_matches_eager_on_corpus(path):
    eager = TransactionalDatabase(list(stream_transaction_rows(path)))
    streamed = load_transactional_database(path)
    assert _content_equal(streamed, eager)


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=lambda p: p.name
)
def test_streaming_works_on_open_handles(path):
    with open(path, encoding="utf-8") as handle:
        streamed = load_transactional_database(handle)
    assert _content_equal(streamed, load_transactional_database(path))


@pytest.mark.parametrize("path", SORTED_FILES, ids=lambda p: p.name)
@pytest.mark.parametrize("from_handle", (False, True))
@pytest.mark.parametrize("max_transactions", (1, 3, 1000))
def test_chunks_concatenate_to_eager_database(
    path, from_handle, max_transactions
):
    eager = load_transactional_database(path)
    if from_handle:
        with open(path, encoding="utf-8") as handle:
            chunks = list(iter_database_chunks(handle, max_transactions))
    else:
        chunks = list(iter_database_chunks(path, max_transactions))
    rebuilt = [(ts, items) for chunk in chunks for ts, items in chunk]
    assert rebuilt == list(eager)
    assert all(1 <= len(chunk) <= max_transactions for chunk in chunks)
    expected_count = -(-len(eager) // max_transactions) if len(eager) else 0
    assert len(chunks) == expected_count


def test_chunking_never_splits_duplicate_timestamps():
    path = CORPUS / "duplicate_ts.tsv"
    # max_transactions=1: each chunk is exactly one merged transaction.
    chunks = list(iter_database_chunks(path, 1))
    eager = load_transactional_database(path)
    assert [list(chunk) for chunk in chunks] == [
        [transaction] for transaction in eager
    ]


def test_chunker_rejects_unsorted_files():
    path = CORPUS / "unsorted.tsv"
    # The eager loader sorts silently; the chunker must refuse, naming
    # the first offending line (line 3: ts=1 after ts=5... line 2 has
    # the comment header shifting numbers — assert via the message).
    iterator = iter_database_chunks(path, 10)
    with pytest.raises(DataFormatError, match="non-decreasing"):
        list(iterator)


def test_chunker_validates_max_transactions():
    # A bad bound is a bad argument, not bad data: ParameterError.
    path = CORPUS / "running_example.tsv"
    for bad in (0, -1, True, 2.5):
        with pytest.raises(ParameterError, match="max_transactions"):
            list(iter_database_chunks(path, bad))


def test_stream_errors_are_lazy_and_line_numbered():
    source = io.StringIO(
        "# header comment\n"
        "1\ta b\n"
        "\n"
        "2\tc\n"
        "not-a-row\n"
        "3\td\n"
    )
    rows = stream_transaction_rows(source)
    assert next(rows) == (1, ["a", "b"])
    assert next(rows) == (2, ["c"])
    # The malformed line only raises when the iterator reaches it, and
    # the reported number counts comments and blanks like the eager
    # loader does.
    with pytest.raises(DataFormatError, match="line 5"):
        next(rows)


def test_streaming_error_line_numbers_match_eager(tmp_path):
    path = tmp_path / "broken.tsv"
    path.write_text("# c\n\n1\ta\nbroken-line\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as eager_error:
        load_transactional_database(path)
    with pytest.raises(DataFormatError) as stream_error:
        list(stream_transaction_rows(path))
    assert "line 4" in str(eager_error.value)
    assert str(stream_error.value) == str(eager_error.value)


def test_stream_handles_blank_lines_comments_and_crlf(tmp_path):
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"# comment\r\n\r\n1\ta b\r\n2\tc\r\n")
    expected = [(1, ["a", "b"]), (2, ["c"])]
    assert list(stream_transaction_rows(path)) == expected


def test_stream_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    assert list(stream_transaction_rows(path)) == []
    assert len(TransactionalDatabase(stream_transaction_rows(path))) == 0


def test_round_trip_through_save(tmp_path):
    for source in SORTED_FILES:
        database = load_transactional_database(source)
        target = tmp_path / source.name
        save_transactional_database(database, target)
        assert _content_equal(
            TransactionalDatabase(stream_transaction_rows(target)),
            database,
        )
        chunks = list(iter_database_chunks(target, 2))
        assert [
            (ts, items) for chunk in chunks for ts, items in chunk
        ] == list(database)
