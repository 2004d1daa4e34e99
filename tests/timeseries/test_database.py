"""Unit tests for the transactional database (Section 3)."""

import pytest

from repro.exceptions import DataFormatError, EmptyDatabaseError
from repro.timeseries.database import Transaction, TransactionalDatabase
from repro.timeseries.events import EventSequence


class TestConstruction:
    def test_empty(self):
        db = TransactionalDatabase()
        assert len(db) == 0
        assert db.items() == frozenset()

    def test_orders_by_timestamp(self):
        db = TransactionalDatabase([(5, "a"), (1, "b"), (3, "c")])
        assert [ts for ts, _ in db] == [1, 3, 5]

    def test_merges_duplicate_timestamps(self):
        db = TransactionalDatabase([(1, "ab"), (1, "bc")])
        assert len(db) == 1
        assert db[0].items == frozenset("abc")

    def test_drops_empty_itemsets(self):
        db = TransactionalDatabase([(1, "a"), (2, ""), (3, [])])
        assert len(db) == 1

    def test_rejects_bad_timestamp(self):
        with pytest.raises(DataFormatError):
            TransactionalDatabase([("x", "a")])

    def test_rejects_nan_timestamp(self):
        with pytest.raises(DataFormatError):
            TransactionalDatabase([(float("nan"), "a")])

    def test_rejects_int_timestamp_beyond_float_range(self):
        with pytest.raises(DataFormatError, match="finite"):
            TransactionalDatabase([(1, "a"), (10 ** 400, "b")])

    def test_rejects_malformed_row(self):
        with pytest.raises(DataFormatError):
            TransactionalDatabase([(1, "a", "extra")])

    def test_paper_table1_shape(self, running_example):
        # Table 1: 12 transactions, 7 items, timestamps 8/13 missing.
        assert len(running_example) == 12
        assert running_example.items() == frozenset("abcdefg")
        assert [ts for ts, _ in running_example] == [
            1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14,
        ]


class TestAccessors:
    def test_start_end_span(self):
        db = TransactionalDatabase([(2, "a"), (9, "b")])
        assert (db.start, db.end, db.span) == (2, 9, 7)

    def test_empty_start_raises(self):
        with pytest.raises(EmptyDatabaseError):
            TransactionalDatabase().start

    def test_transactions_are_named_tuples(self):
        db = TransactionalDatabase([(1, "a")])
        assert isinstance(db[0], Transaction)
        assert db[0].ts == 1

    def test_equality(self):
        left = TransactionalDatabase([(1, "ab")])
        right = TransactionalDatabase([(1, "ba")])
        assert left == right

    def test_repr(self):
        assert "empty" in repr(TransactionalDatabase())
        assert "2 transactions" in repr(
            TransactionalDatabase([(1, "a"), (2, "b")])
        )


class TestPointSequences:
    def test_item_timestamps(self, running_example):
        index = running_example.item_timestamps()
        assert index["a"] == (1, 2, 3, 4, 7, 11, 12, 14)
        assert index["g"] == (1, 5, 6, 7, 12, 14)

    def test_timestamps_of_pattern(self, running_example):
        # Example 2 of the paper: TS^ab.
        assert running_example.timestamps_of("ab") == (1, 3, 4, 7, 11, 12, 14)

    def test_timestamps_of_absent_item(self, running_example):
        assert running_example.timestamps_of("az") == ()

    def test_timestamps_of_empty_pattern_raises(self, running_example):
        with pytest.raises(ValueError):
            running_example.timestamps_of("")

    def test_support(self, running_example):
        # Example 3 of the paper: Sup(ab) = 7.
        assert running_example.support("ab") == 7
        assert running_example.support("a") == 8

    def test_support_of_disjoint_pattern(self, running_example):
        assert running_example.support(["a", "nonexistent"]) == 0


class TestDerivedDatabases:
    def test_restrict_items(self, running_example):
        restricted = running_example.restrict_items("ab")
        assert restricted.items() == frozenset("ab")
        # Transactions without a or b disappear (ts 5, 6, 9, 10).
        assert len(restricted) == 8

    def test_window(self, running_example):
        windowed = running_example.window(5, 10)
        assert [ts for ts, _ in windowed] == [5, 6, 7, 9, 10]

    def test_window_rejects_inverted_bounds(self, running_example):
        with pytest.raises(ValueError):
            running_example.window(10, 5)


class TestConversions:
    def test_from_events_matches_paper(self, running_example_events, running_example):
        assert TransactionalDatabase.from_events(running_example_events) == (
            running_example
        )

    def test_round_trip_via_events(self, running_example):
        events = running_example.to_events()
        assert TransactionalDatabase.from_events(events) == running_example

    def test_to_events_deterministic_order(self):
        db = TransactionalDatabase([(1, "ba")])
        events = db.to_events()
        assert [e.item for e in events] == ["a", "b"]

    def test_point_sequence_preserved(self, running_example_events):
        # The key losslessness claim of Section 3: TS^X in the database
        # equals the point sequence in the raw series.
        db = TransactionalDatabase.from_events(running_example_events)
        for item in "abcdefg":
            assert db.item_timestamps()[item] == (
                running_example_events.point_sequence(item)
            )
