"""Stateful property test for the streaming monitor.

A hypothesis rule-based state machine drives a
:class:`~repro.streaming.StreamingRecurrenceMonitor` with an
arbitrary interleaving of transactions and queries, maintaining a naive
shadow model (the full transaction log, recomputed from scratch via the
pure interval functions).  Any divergence between the O(1)-per-event
incremental state and the recomputation is a bug in the streaming
bookkeeping.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.intervals import (
    estimated_recurrence,
    interesting_intervals,
    recurrence,
)
from repro.streaming import StreamingRecurrenceMonitor

ITEMS = "abcd"


class StreamingShadowModel(RuleBasedStateMachine):
    """Drive the monitor and a recompute-from-scratch shadow in lockstep."""

    @initialize(
        per=st.integers(1, 5),
        min_ps=st.integers(1, 4),
        min_rec=st.integers(1, 3),
    )
    def setup(self, per, min_ps, min_rec):
        self.per = per
        self.min_ps = min_ps
        self.min_rec = min_rec
        self.monitor = StreamingRecurrenceMonitor(per, min_ps, min_rec)
        self.monitor.watch_pattern(["a", "b"], label="a&b")
        self.clock = 0
        self.log = {}  # item -> [timestamps]

    @rule(
        gap=st.integers(1, 12),
        itemset=st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
    )
    def feed(self, gap, itemset):
        self.clock += gap
        self.monitor.observe(self.clock, itemset)
        for item in itemset:
            self.log.setdefault(item, []).append(self.clock)
        if {"a", "b"} <= itemset:
            self.log.setdefault("a&b", []).append(self.clock)

    @invariant()
    def incremental_state_matches_recomputation(self):
        if not hasattr(self, "log"):
            return
        for item, timestamps in self.log.items():
            assert self.monitor.support(item) == len(timestamps), item
            assert self.monitor.erec(item) == estimated_recurrence(
                timestamps, self.per, self.min_ps
            ), item
            assert self.monitor.recurrence(
                item, include_open_run=True
            ) == recurrence(timestamps, self.per, self.min_ps), item
            assert [
                (iv.start, iv.end, iv.periodic_support)
                for iv in self.monitor.intervals(item, include_open_run=True)
            ] == interesting_intervals(
                timestamps, self.per, self.min_ps
            ), item

    @invariant()
    def unseen_items_stay_zero(self):
        if not hasattr(self, "log"):
            return
        assert self.monitor.support("never-seen") == 0


StreamingShadowModel.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestStreamingShadowModel = StreamingShadowModel.TestCase
