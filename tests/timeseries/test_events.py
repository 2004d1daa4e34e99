"""Unit tests for events and event sequences (Definitions 1-2)."""

import pytest

from repro.exceptions import DataFormatError
from repro.timeseries.events import Event, EventSequence


class TestConstruction:
    def test_empty_sequence(self):
        seq = EventSequence()
        assert len(seq) == 0
        assert list(seq) == []

    def test_events_are_sorted_by_timestamp(self):
        seq = EventSequence([("b", 5), ("a", 1), ("c", 3)])
        assert [e.ts for e in seq] == [1, 3, 5]
        assert [e.item for e in seq] == ["a", "c", "b"]

    def test_simultaneous_events_keep_input_order(self):
        seq = EventSequence([("x", 2), ("y", 2), ("z", 2)])
        assert [e.item for e in seq] == ["x", "y", "z"]

    def test_accepts_event_namedtuples(self):
        seq = EventSequence([Event("a", 1), Event("b", 2)])
        assert len(seq) == 2

    def test_float_timestamps(self):
        seq = EventSequence([("a", 1.5), ("b", 0.25)])
        assert seq.start == 0.25
        assert seq.end == 1.5

    def test_rejects_non_pair(self):
        with pytest.raises(DataFormatError):
            EventSequence([("a", 1, 2)])

    def test_rejects_non_numeric_timestamp(self):
        with pytest.raises(DataFormatError):
            EventSequence([("a", "one")])

    def test_rejects_boolean_timestamp(self):
        with pytest.raises(DataFormatError):
            EventSequence([("a", True)])

    def test_rejects_nan_timestamp(self):
        with pytest.raises(DataFormatError):
            EventSequence([("a", float("nan"))])

    def test_rejects_infinite_timestamp(self):
        with pytest.raises(DataFormatError):
            EventSequence([("a", float("inf"))])

    def test_rejects_int_timestamp_beyond_float_range(self):
        with pytest.raises(DataFormatError, match="finite"):
            EventSequence([("a", 1), ("b", -(10 ** 400))])


class TestAccessors:
    def test_start_end(self):
        seq = EventSequence([("a", 3), ("b", 9)])
        assert (seq.start, seq.end) == (3, 9)

    def test_start_of_empty_raises(self):
        with pytest.raises(ValueError):
            EventSequence().start

    def test_end_of_empty_raises(self):
        with pytest.raises(ValueError):
            EventSequence().end

    def test_indexing(self):
        seq = EventSequence([("a", 1), ("b", 2)])
        assert seq[0] == Event("a", 1)
        assert seq[-1] == Event("b", 2)

    def test_items_in_first_occurrence_order(self):
        seq = EventSequence([("b", 1), ("a", 2), ("b", 3)])
        assert seq.items() == ("b", "a")

    def test_equality_and_hash(self):
        left = EventSequence([("a", 1), ("b", 2)])
        right = EventSequence([("b", 2), ("a", 1)])
        assert left == right
        assert hash(left) == hash(right)

    def test_inequality_with_other_type(self):
        assert EventSequence() != 42

    def test_repr_mentions_span(self):
        seq = EventSequence([("a", 1), ("b", 9)])
        assert "span=[1, 9]" in repr(seq)


class TestPointSequences:
    def test_point_sequence_paper_example(self, running_example_events):
        # Example 1 of the paper.
        assert running_example_events.point_sequence("a") == (
            1, 2, 3, 4, 7, 11, 12, 14,
        )
        assert running_example_events.point_sequence("b") == (
            1, 3, 4, 7, 11, 12, 14,
        )

    def test_point_sequence_of_absent_item(self):
        assert EventSequence([("a", 1)]).point_sequence("z") == ()

    def test_duplicate_events_collapse(self):
        seq = EventSequence([("a", 1), ("a", 1), ("a", 2)])
        assert seq.point_sequence("a") == (1, 2)

    def test_point_sequences_all_items(self):
        seq = EventSequence([("a", 1), ("b", 1), ("a", 3)])
        assert seq.point_sequences() == {"a": (1, 3), "b": (1,)}

    def test_from_point_sequences_round_trip(self):
        points = {"a": (1, 3, 5), "b": (2, 3)}
        seq = EventSequence.from_point_sequences(points)
        assert seq.point_sequences() == {"a": (1, 3, 5), "b": (2, 3)}


class TestDerivedSequences:
    def test_restrict_items(self):
        seq = EventSequence([("a", 1), ("b", 2), ("c", 3)])
        restricted = seq.restrict_items({"a", "c"})
        assert [e.item for e in restricted] == ["a", "c"]

    def test_window_inclusive(self):
        seq = EventSequence([("a", 1), ("b", 2), ("c", 3), ("d", 4)])
        windowed = seq.window(2, 3)
        assert [e.item for e in windowed] == ["b", "c"]

    def test_window_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            EventSequence([("a", 1)]).window(3, 2)
