"""Unit tests for the periodic-interval mathematics (Definitions 4-8)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import (
    estimated_recurrence,
    inter_arrival_times,
    interesting_intervals,
    intersect_sorted,
    periodic_intervals,
    periodic_supports,
    recurrence,
)
from repro.exceptions import ParameterError
from tests.conftest import point_sequences

TS_AB = [1, 3, 4, 7, 11, 12, 14]  # TS^ab from the running example


class TestInterArrivalTimes:
    def test_paper_example4(self):
        assert inter_arrival_times(TS_AB) == (2, 1, 3, 4, 1, 2)

    def test_empty(self):
        assert inter_arrival_times([]) == ()

    def test_single(self):
        assert inter_arrival_times([5]) == ()

    def test_floats(self):
        assert inter_arrival_times([0.5, 2.0]) == (1.5,)


class TestIntersectSorted:
    def test_basic(self):
        assert intersect_sorted([1, 3, 5, 7], [3, 4, 7, 9]) == [3, 7]

    def test_disjoint(self):
        assert intersect_sorted([1, 2], [3, 4]) == []

    def test_empty_sides(self):
        assert intersect_sorted([], [1]) == []
        assert intersect_sorted([1], []) == []

    def test_identical(self):
        assert intersect_sorted([1, 2, 3], [1, 2, 3]) == [1, 2, 3]

    def test_floats(self):
        assert intersect_sorted([0.5, 1.5], [1.5, 2.5]) == [1.5]


class TestPeriodicIntervals:
    def test_paper_example5(self):
        assert periodic_intervals(TS_AB, per=2) == [
            (1, 4, 3), (7, 7, 1), (11, 14, 3),
        ]

    def test_empty_sequence(self):
        assert periodic_intervals([], per=2) == []

    def test_single_occurrence_is_one_run(self):
        assert periodic_intervals([9], per=2) == [(9, 9, 1)]

    def test_all_gaps_within_period_one_run(self):
        assert periodic_intervals([1, 2, 3, 4], per=1) == [(1, 4, 4)]

    def test_all_gaps_outside_period_all_singletons(self):
        assert periodic_intervals([1, 5, 9], per=2) == [
            (1, 1, 1), (5, 5, 1), (9, 9, 1),
        ]

    def test_gap_exactly_per_continues_run(self):
        assert periodic_intervals([1, 3], per=2) == [(1, 3, 2)]

    def test_float_period(self):
        assert periodic_intervals([0.0, 1.4, 3.0], per=1.5) == [
            (0.0, 1.4, 2), (3.0, 3.0, 1),
        ]

    def test_rejects_non_positive_period(self):
        with pytest.raises(ParameterError):
            periodic_intervals(TS_AB, per=0)

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            periodic_intervals([1, 1, 2], per=2)

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            periodic_intervals([3, 1], per=2)

    def test_periodic_supports(self):
        assert periodic_supports(TS_AB, per=2) == [3, 1, 3]


class TestInterestingIntervals:
    def test_paper_example7(self):
        assert interesting_intervals(TS_AB, per=2, min_ps=3) == [
            (1, 4, 3), (11, 14, 3),
        ]

    def test_min_ps_one_keeps_everything(self):
        assert len(interesting_intervals(TS_AB, per=2, min_ps=1)) == 3

    def test_high_min_ps_keeps_nothing(self):
        assert interesting_intervals(TS_AB, per=2, min_ps=4) == []

    def test_rejects_bad_min_ps(self):
        with pytest.raises(ParameterError):
            interesting_intervals(TS_AB, per=2, min_ps=0)


class TestRecurrence:
    def test_paper_example8(self):
        assert recurrence(TS_AB, per=2, min_ps=3) == 2

    def test_pattern_c_from_example10(self):
        # TS^c = {2,4,5,7,9,10,12}: one long run => Rec = 1.
        ts_c = [2, 4, 5, 7, 9, 10, 12]
        assert recurrence(ts_c, per=2, min_ps=3) == 1

    def test_empty(self):
        assert recurrence([], per=2, min_ps=1) == 0


class TestEstimatedRecurrence:
    def test_paper_example11(self):
        # TS^g = {1,5,6,7,12,14}; runs {1}, {5,6,7}, {12,14}.
        assert estimated_recurrence([1, 5, 6, 7, 12, 14], per=2, min_ps=3) == 1

    def test_long_run_counts_multiple(self):
        # One run of 6 with min_ps=3 could split into 2 interesting runs.
        assert estimated_recurrence([1, 2, 3, 4, 5, 6], per=1, min_ps=3) == 2

    def test_empty(self):
        assert estimated_recurrence([], per=1, min_ps=1) == 0


class TestIntervalInvariants:
    """Property-based invariants of the run decomposition."""

    @given(ts=point_sequences(), per=st.integers(1, 10))
    def test_runs_partition_the_sequence(self, ts, per):
        runs = periodic_intervals(ts, per)
        assert sum(ps for _, _, ps in runs) == len(ts)

    @given(ts=point_sequences(), per=st.integers(1, 10))
    def test_runs_are_maximal_and_ordered(self, ts, per):
        runs = periodic_intervals(ts, per)
        for (_, prev_end, _), (next_start, _, _) in zip(runs, runs[1:]):
            assert next_start - prev_end > per  # maximality between runs

    @given(ts=point_sequences(), per=st.integers(1, 10))
    def test_run_boundaries_are_occurrences(self, ts, per):
        occurrences = set(ts)
        for start, end, _ in periodic_intervals(ts, per):
            assert start in occurrences
            assert end in occurrences
            assert start <= end

    @given(
        ts=point_sequences(),
        per=st.integers(1, 10),
        min_ps=st.integers(1, 5),
    )
    def test_erec_upper_bounds_recurrence(self, ts, per, min_ps):
        # Property 1 of the paper.
        assert estimated_recurrence(ts, per, min_ps) >= recurrence(
            ts, per, min_ps
        )

    @given(
        ts=point_sequences(max_size=20),
        per=st.integers(1, 10),
        min_ps=st.integers(1, 5),
        drop=st.data(),
    )
    def test_erec_is_anti_monotone_under_subsetting(
        self, ts, per, min_ps, drop
    ):
        # Property 2: removing occurrences can only lower Erec.
        if not ts:
            return
        subset = sorted(
            drop.draw(st.sets(st.sampled_from(ts), max_size=len(ts)))
        )
        assert estimated_recurrence(subset, per, min_ps) <= (
            estimated_recurrence(ts, per, min_ps)
        )

    @given(
        ts=point_sequences(),
        per=st.integers(1, 10),
        min_ps=st.integers(1, 5),
    )
    def test_larger_period_never_decreases_erec(self, ts, per, min_ps):
        assert estimated_recurrence(ts, per + 1, min_ps) >= (
            estimated_recurrence(ts, per, min_ps)
        )
