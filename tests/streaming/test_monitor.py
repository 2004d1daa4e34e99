"""Monitor-level tests: same-timestamp merging and exact serialization.

The merge tests are the regression suite for the bug where a repeated
timestamp raised instead of merging (the batch ``TransactionalDatabase``
constructor has always merged same-timestamp rows, so the streamed
state silently diverged from batch on split inputs).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import DataFormatError
from repro.streaming import (
    StreamingRecurrenceMonitor,
    decode_item,
    encode_item,
    item_sort_key,
)
from repro.timeseries.database import TransactionalDatabase
from tests.conftest import mining_parameters, small_databases

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSameTimestampMerge:
    def test_repeated_timestamp_merges_instead_of_raising(self):
        monitor = StreamingRecurrenceMonitor(per=1, min_ps=1)
        monitor.observe(5, "ab")
        monitor.observe(5, "bc")  # regression: used to raise ValueError
        # A transaction is a set: one occurrence each, not two for "b".
        assert monitor.support("a") == 1
        assert monitor.support("b") == 1
        assert monitor.support("c") == 1

    def test_decreasing_timestamp_still_raises(self):
        monitor = StreamingRecurrenceMonitor(per=1, min_ps=1)
        monitor.observe(5, "a")
        with pytest.raises(ValueError, match="non-decreasing"):
            monitor.observe(4, "b")

    def test_merge_completes_a_watched_composite_exactly_once(self):
        monitor = StreamingRecurrenceMonitor(per=2, min_ps=1)
        monitor.watch_pattern("ab", label="A+B")
        monitor.observe(1, "a")
        monitor.observe(1, "b")  # merge completes the composite
        monitor.observe(1, "ab")  # already counted at ts=1: no double
        assert monitor.support("A+B") == 1
        monitor.observe(2, "ab")
        assert monitor.support("A+B") == 2

    def test_split_rows_stream_to_the_batch_state(self, running_example):
        # Feed every transaction as one-item rows sharing a timestamp;
        # the monitor must land in the same state as a whole-row feed.
        split = StreamingRecurrenceMonitor(per=2, min_ps=3, min_rec=2)
        whole = StreamingRecurrenceMonitor(per=2, min_ps=3, min_rec=2)
        for label in ("A+B",):
            split.watch_pattern("ab", label=label)
            whole.watch_pattern("ab", label=label)
        whole.observe_database(running_example)
        for ts, itemset in running_example:
            for item in sorted(itemset):
                split.observe(ts, [item])
        assert split.state_dict() == whole.state_dict()

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_split_feed_equals_whole_feed_on_random_streams(
        self, db, params
    ):
        per, min_ps, min_rec = params
        split = StreamingRecurrenceMonitor(per, min_ps, min_rec)
        whole = StreamingRecurrenceMonitor(per, min_ps, min_rec)
        whole.observe_database(db)
        for ts, itemset in db:
            for item in sorted(itemset):
                split.observe(ts, [item])
        assert split.state_dict() == whole.state_dict()


class TestItemCodec:
    def test_scalars_pass_through(self):
        for item in ("a", 3, 2.5, True):
            assert decode_item(encode_item(item)) == item

    def test_composite_labels_round_trip(self):
        label = frozenset(["b", "a"])
        assert decode_item(encode_item(label)) == label
        nested = ("pair", frozenset(["x", "y"]))
        assert decode_item(encode_item(nested)) == nested

    def test_unsupported_type_is_an_error_not_a_lossy_fallback(self):
        with pytest.raises(DataFormatError, match="cannot serialize"):
            encode_item(object())

    def test_unrecognised_encoding_rejected(self):
        with pytest.raises(DataFormatError):
            decode_item({"set": ["a"]})

    def test_sort_key_is_deterministic_for_frozensets(self):
        a = frozenset(["a", "b", "c"])
        b = frozenset(["c", "b", "a"])
        assert item_sort_key(a) == item_sort_key(b)


class TestStateDict:
    def _example_monitor(self):
        monitor = StreamingRecurrenceMonitor(per=2, min_ps=2, min_rec=1)
        monitor.watch_pattern("ab", label=frozenset("ab"))
        for ts, items in [(1, "ab"), (2, "a"), (3, "ab"), (7, "b")]:
            monitor.observe(ts, items)
        return monitor

    def test_round_trip_is_bit_identical(self):
        monitor = self._example_monitor()
        clone = StreamingRecurrenceMonitor.from_state(monitor.state_dict())
        assert clone.state_dict() == monitor.state_dict()

    def test_round_trip_preserves_the_merge_buffer(self):
        monitor = self._example_monitor()
        clone = StreamingRecurrenceMonitor.from_state(monitor.state_dict())
        # Observing the checkpointed timestamp again must merge, not
        # re-count: the buffer of items seen at last_ts survived.
        monitor.observe(7, "b")
        clone.observe(7, "b")
        assert clone.support("b") == monitor.support("b")
        assert clone.state_dict() == monitor.state_dict()

    def test_resumed_monitor_tracks_the_original_forever(self):
        monitor = self._example_monitor()
        clone = StreamingRecurrenceMonitor.from_state(monitor.state_dict())
        for ts, items in [(8, "ab"), (9, "a"), (15, "ab")]:
            monitor.observe(ts, items)
            clone.observe(ts, items)
        assert clone.state_dict() == monitor.state_dict()

    def test_threshold_mismatch_rejected(self):
        state = self._example_monitor().state_dict()
        other = StreamingRecurrenceMonitor(per=9, min_ps=2, min_rec=1)
        with pytest.raises(DataFormatError, match="per"):
            other.load_state(state)

    def test_wrong_kind_rejected(self):
        with pytest.raises(DataFormatError, match="kind"):
            StreamingRecurrenceMonitor.from_state({"kind": "nope"})

    def test_state_dict_is_json_stable_across_insertion_order(self):
        import json

        forward = StreamingRecurrenceMonitor(per=2, min_ps=1)
        backward = StreamingRecurrenceMonitor(per=2, min_ps=1)
        forward.observe(1, ["a", "b", "c"])
        backward.observe(1, ["c", "b", "a"])
        assert json.dumps(forward.state_dict()) == json.dumps(
            backward.state_dict()
        )
