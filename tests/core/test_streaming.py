"""Unit and property tests for the streaming recurrence monitor."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.intervals import (
    estimated_recurrence,
    interesting_intervals,
    recurrence,
)
from repro.core.rp_list import build_rp_list
from repro.core.model import MiningParameters
from repro.streaming import StreamingRecurrenceMonitor
from tests.conftest import mining_parameters, small_databases

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestObserve:
    def test_rejects_decreasing_timestamps(self):
        monitor = StreamingRecurrenceMonitor(per=1, min_ps=1)
        monitor.observe(5, "a")
        with pytest.raises(ValueError):
            monitor.observe(4, "b")

    def test_repeated_timestamp_merges_like_batch(self):
        # Same-timestamp rows merge into one set-valued transaction,
        # exactly as the batch TransactionalDatabase constructor does.
        monitor = StreamingRecurrenceMonitor(per=1, min_ps=1)
        monitor.observe(5, "a")
        monitor.observe(5, "ab")
        assert monitor.support("a") == 1
        assert monitor.support("b") == 1

    def test_unseen_item_defaults(self):
        monitor = StreamingRecurrenceMonitor(per=1, min_ps=1)
        assert monitor.recurrence("ghost") == 0
        assert monitor.support("ghost") == 0
        assert monitor.erec("ghost") == 0
        assert monitor.intervals("ghost") == ()

    def test_interval_closes_on_break(self):
        closed = []
        monitor = StreamingRecurrenceMonitor(
            per=2, min_ps=3, on_interval=lambda item, iv: closed.append((item, iv))
        )
        for ts in (1, 3, 4):
            monitor.observe(ts, "a")
        assert closed == []  # run still open
        monitor.observe(10, "a")
        assert len(closed) == 1
        item, interval = closed[0]
        assert item == "a"
        assert (interval.start, interval.end, interval.periodic_support) == (
            1, 4, 3,
        )

    def test_open_run_counted_optionally(self):
        monitor = StreamingRecurrenceMonitor(per=2, min_ps=3, min_rec=1)
        for ts in (1, 2, 3):
            monitor.observe(ts, "a")
        assert monitor.recurrence("a") == 0
        assert monitor.recurrence("a", include_open_run=True) == 1
        assert monitor.is_recurring("a")


class TestWatchPattern:
    def test_composite_counts_joint_occurrences(self, running_example):
        monitor = StreamingRecurrenceMonitor(per=2, min_ps=3, min_rec=2)
        monitor.watch_pattern("ab", label="A+B")
        monitor.observe_database(running_example)
        assert monitor.support("A+B") == 7
        assert monitor.is_recurring("A+B")
        # The second interval is still an open run at end-of-stream.
        assert [
            (iv.start, iv.end, iv.periodic_support)
            for iv in monitor.intervals("A+B", include_open_run=True)
        ] == [(1, 4, 3), (11, 14, 3)]

    def test_empty_pattern_rejected(self):
        monitor = StreamingRecurrenceMonitor(per=1, min_ps=1)
        with pytest.raises(ValueError):
            monitor.watch_pattern([], label="X")


class TestMatchesBatch:
    def test_erec_matches_rp_list(self, running_example):
        params = MiningParameters(per=2, min_ps=3, min_rec=2).resolve(
            len(running_example)
        )
        rp_list = build_rp_list(running_example, params)
        monitor = StreamingRecurrenceMonitor(per=2, min_ps=3, min_rec=2)
        monitor.observe_database(running_example)
        for item, entry in rp_list.entries.items():
            assert monitor.erec(item) == entry.erec, item
            assert monitor.support(item) == entry.support, item

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_streaming_equals_batch_on_random_streams(self, db, params):
        per, min_ps, min_rec = params
        monitor = StreamingRecurrenceMonitor(per, min_ps, min_rec)
        monitor.observe_database(db)
        for item, ts in db.item_timestamps().items():
            assert monitor.erec(item) == estimated_recurrence(ts, per, min_ps)
            assert monitor.recurrence(
                item, include_open_run=True
            ) == recurrence(ts, per, min_ps)
            assert [
                (iv.start, iv.end, iv.periodic_support)
                for iv in monitor.intervals(item, include_open_run=True)
            ] == interesting_intervals(ts, per, min_ps)

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_incremental_split_feed_equals_single_feed(self, db, params):
        # Feeding the database in two halves must equal one pass: the
        # incremental-maintenance property.
        per, min_ps, min_rec = params
        whole = StreamingRecurrenceMonitor(per, min_ps, min_rec)
        whole.observe_database(db)
        split = StreamingRecurrenceMonitor(per, min_ps, min_rec)
        half = len(db) // 2
        for ts, items in db.transactions[:half]:
            split.observe(ts, items)
        for ts, items in db.transactions[half:]:
            split.observe(ts, items)
        for item in db.items():
            assert split.erec(item) == whole.erec(item)
            assert split.intervals(
                item, include_open_run=True
            ) == whole.intervals(item, include_open_run=True)

    def test_recurring_items_listing(self, running_example):
        monitor = StreamingRecurrenceMonitor(per=2, min_ps=3, min_rec=2)
        monitor.observe_database(running_example)
        assert monitor.recurring_items() == ["a", "b", "d", "e", "f"]
