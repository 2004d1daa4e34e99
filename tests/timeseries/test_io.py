"""Unit tests for the plain-text I/O formats."""

import io

import pytest

from repro.exceptions import DataFormatError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import EventSequence
from repro.timeseries.io import (
    load_event_sequence,
    load_spmf_transactions,
    load_transactional_database,
    save_event_sequence,
    save_spmf_transactions,
    save_transactional_database,
)


# What float() reads as not finite, and ints beyond the float range,
# which math.isfinite refuses with OverflowError instead.
NON_FINITE_TEXTS = [
    "nan",
    "inf",
    "-inf",
    "1e400",
    pytest.param("1" + "0" * 400, id="int-beyond-float"),
    pytest.param("-1" + "0" * 400, id="negative-int-beyond-float"),
]


class TestEventFormat:
    def test_round_trip_via_path(self, tmp_path):
        seq = EventSequence([("a", 1), ("b", 2), ("a", 2)])
        path = tmp_path / "events.tsv"
        save_event_sequence(seq, path)
        assert load_event_sequence(path) == seq

    def test_round_trip_via_handle(self):
        seq = EventSequence([("x", 5), ("y", 7)])
        buffer = io.StringIO()
        save_event_sequence(seq, buffer)
        buffer.seek(0)
        assert load_event_sequence(buffer) == seq

    def test_blank_lines_and_comments_skipped(self):
        text = "# header\n1\ta\n\n2\tb\n"
        assert len(load_event_sequence(io.StringIO(text))) == 2

    def test_float_timestamps_survive(self):
        seq = EventSequence([("a", 1.5)])
        buffer = io.StringIO()
        save_event_sequence(seq, buffer)
        buffer.seek(0)
        assert load_event_sequence(buffer)[0].ts == 1.5

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(DataFormatError, match="line 2"):
            load_event_sequence(io.StringIO("1\ta\nbroken line\n"))

    def test_bad_timestamp_reports_line_number(self):
        with pytest.raises(DataFormatError, match="line 1"):
            load_event_sequence(io.StringIO("one\ta\n"))

    @pytest.mark.parametrize("text", NON_FINITE_TEXTS)
    def test_non_finite_timestamp_reports_line_number(self, text):
        with pytest.raises(DataFormatError, match="line 2: .*finite"):
            load_event_sequence(io.StringIO(f"1\ta\n{text}\tb\n"))


class TestTransactionFormat:
    def test_round_trip_via_path(self, tmp_path, running_example):
        path = tmp_path / "db.tsv"
        save_transactional_database(running_example, path)
        assert load_transactional_database(path) == running_example

    def test_round_trip_via_handle(self):
        db = TransactionalDatabase([(1, ["x", "y"]), (3, ["z"])])
        buffer = io.StringIO()
        save_transactional_database(db, buffer)
        buffer.seek(0)
        assert load_transactional_database(buffer) == db

    def test_items_with_multiple_spaces(self):
        db = load_transactional_database(io.StringIO("1\ta  b   c\n"))
        assert db[0].items == frozenset("abc")

    def test_missing_items_column(self):
        with pytest.raises(DataFormatError, match="line 1"):
            load_transactional_database(io.StringIO("1\n"))

    def test_empty_items_column(self):
        with pytest.raises(DataFormatError, match="line 1"):
            load_transactional_database(io.StringIO("1\t \n"))

    @pytest.mark.parametrize("text", NON_FINITE_TEXTS)
    def test_non_finite_timestamp_reports_line_number(self, text):
        with pytest.raises(DataFormatError, match="line 2: .*finite"):
            load_transactional_database(io.StringIO(f"1\ta\n{text}\tb\n"))

    def test_handle_left_open_after_write(self):
        buffer = io.StringIO()
        save_transactional_database(TransactionalDatabase([(1, "a")]), buffer)
        assert not buffer.closed

    def test_integer_timestamps_written_without_decimal(self):
        buffer = io.StringIO()
        save_transactional_database(
            TransactionalDatabase([(3.0, "a")]), buffer
        )
        assert buffer.getvalue().startswith("3\t")


class TestSpmfFormat:
    def test_load_assigns_sequential_timestamps(self):
        db = load_spmf_transactions(io.StringIO("1 2 3\n2 4\n"))
        assert [ts for ts, _ in db] == [1, 2]
        assert db[0].items == frozenset({"1", "2", "3"})

    def test_start_ts(self):
        db = load_spmf_transactions(io.StringIO("a\nb\n"), start_ts=10)
        assert [ts for ts, _ in db] == [10, 11]

    def test_metadata_and_comment_lines_skipped(self):
        text = "@CONVERTED_FROM_TEXT\n% comment\na b\n"
        db = load_spmf_transactions(io.StringIO(text))
        assert len(db) == 1

    def test_sequence_markers_rejected(self):
        with pytest.raises(DataFormatError, match="sequence"):
            load_spmf_transactions(io.StringIO("1 -1 2 -1 -2\n"))

    def test_round_trip_loses_timestamps_only(self, running_example):
        buffer = io.StringIO()
        save_spmf_transactions(running_example, buffer)
        buffer.seek(0)
        reloaded = load_spmf_transactions(buffer)
        assert len(reloaded) == len(running_example)
        assert [items for _, items in reloaded] == [
            items for _, items in running_example
        ]
        # Timestamps became 1..12: the silent gaps at 8 and 13 are gone.
        assert [ts for ts, _ in reloaded] == list(range(1, 13))


class TestSeparatorSafety:
    """Items that would corrupt the line formats are rejected loudly."""

    def test_event_format_rejects_tab_in_item(self):
        seq = EventSequence([("bad\titem", 1)])
        with pytest.raises(DataFormatError, match="separator"):
            save_event_sequence(seq, io.StringIO())

    def test_event_format_allows_spaces(self):
        # The event format is tab-separated, so spaces are fine.
        seq = EventSequence([("two words", 1)])
        buffer = io.StringIO()
        save_event_sequence(seq, buffer)
        buffer.seek(0)
        assert load_event_sequence(buffer) == seq

    def test_transaction_format_rejects_space_in_item(self):
        db = TransactionalDatabase([(1, ["two words"])])
        with pytest.raises(DataFormatError, match="separator"):
            save_transactional_database(db, io.StringIO())

    def test_spmf_format_rejects_space_in_item(self):
        db = TransactionalDatabase([(1, ["two words"])])
        with pytest.raises(DataFormatError, match="separator"):
            save_spmf_transactions(db, io.StringIO())

    def test_newline_rejected_everywhere(self):
        db = TransactionalDatabase([(1, ["sneaky\nitem"])])
        with pytest.raises(DataFormatError):
            save_transactional_database(db, io.StringIO())
