"""The columnar kernel primitives pinned to their pure-python twins.

The batched ``rp-eclat-vec`` engine is only trustworthy because every
one of its primitives is byte-identical to a slow, obviously-correct
counterpart: ``segmented_interval_stats`` to the per-sequence interval
functions of :mod:`repro.core.intervals`, ``intersect_arrays`` (both
the bitmap and the sort-merge path) to
:func:`repro.core.rp_eclat.intersect_sorted`, and the whole engine to
``rp-growth`` / ``rp-eclat`` on random databases.  ``as_timestamp_array``
must refuse — not silently corrupt — timestamps the int64/float64
column cannot represent exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.accel import (
    INT64_SAFE_BOUND,
    as_timestamp_array,
    intersect_arrays,
    segmented_interval_stats,
)
from repro.core.intervals import (
    estimated_recurrence,
    interesting_intervals,
    recurrence,
)
from repro.core.rp_eclat import RPEclat, intersect_sorted
from repro.core.rp_eclat_vec import RPEclatVec
from repro.core.rp_growth import RPGrowth
from repro.exceptions import ParameterError
from tests.conftest import mining_parameters, point_sequences, small_databases

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# segmented_interval_stats vs the per-sequence interval functions
# ----------------------------------------------------------------------
class TestSegmentedIntervalStats:
    def test_paper_example5_segments(self):
        ts = np.array([1, 3, 4, 7, 11, 12, 14, 1, 5, 6, 7, 12, 14])
        erec, rec, seg, first, last = segmented_interval_stats(
            ts, np.array([0, 7]), per=2, min_ps=3
        )
        assert erec.tolist() == [2, 1]
        assert rec.tolist() == [2, 1]
        assert seg.tolist() == [0, 0, 1]
        # Runs report inclusive offsets into the concatenated array.
        assert ts[first].tolist() == [1, 11, 5]
        assert ts[last].tolist() == [4, 14, 7]

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        erec, rec, seg, first, last = segmented_interval_stats(
            empty, empty, per=1, min_ps=1
        )
        for array in (erec, rec, seg, first, last):
            assert array.size == 0

    def test_single_event_segments(self):
        erec, rec, seg, first, last = segmented_interval_stats(
            np.array([5, 9]), np.array([0, 1]), per=2, min_ps=1
        )
        assert erec.tolist() == [1, 1]
        assert rec.tolist() == [1, 1]
        assert first.tolist() == [0, 1]
        assert last.tolist() == [0, 1]

    def test_empty_segments_via_duplicate_offsets(self):
        # Segment 1 is empty (starts[1] == starts[2]); it must report
        # zeros and not steal segment 2's runs.
        erec, rec, seg, _, _ = segmented_interval_stats(
            np.array([1, 2, 10, 11]), np.array([0, 2, 2]), per=1, min_ps=2
        )
        assert erec.tolist() == [1, 0, 1]
        assert rec.tolist() == [1, 0, 1]
        assert seg.tolist() == [0, 2]

    def test_all_duplicate_timestamps_across_segments(self):
        # Identical single-point segments: every one is its own run.
        ts = np.array([7, 7, 7])
        erec, rec, seg, first, last = segmented_interval_stats(
            ts, np.array([0, 1, 2]), per=3, min_ps=1
        )
        assert erec.tolist() == [1, 1, 1]
        assert rec.tolist() == [1, 1, 1]
        assert seg.tolist() == [0, 1, 2]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            segmented_interval_stats(
                np.array([1]), np.array([0]), per=0, min_ps=1
            )
        with pytest.raises(ParameterError):
            segmented_interval_stats(
                np.array([1]), np.array([0]), per=1, min_ps=0
            )

    @RELAXED
    @given(
        sequences=st.lists(point_sequences(max_size=15), max_size=5),
        per=st.integers(1, 10),
        min_ps=st.integers(1, 5),
    )
    # Float timestamps (and a float per) take the float64 column path.
    @example(sequences=[[0.5, 1.0, 9.5, 10.0]], per=0.5, min_ps=2)
    def test_matches_per_sequence_python(self, sequences, per, min_ps):
        """One batched call == the pure-python loop over segments."""
        sequences = [s for s in sequences if s]
        if not sequences:
            return
        ts = np.concatenate([np.asarray(s) for s in sequences])
        sizes = [len(s) for s in sequences]
        starts = np.array([0] + list(np.cumsum(sizes))[:-1], dtype=np.int64)
        erec, rec, seg, first, last = segmented_interval_stats(
            ts, starts, per, min_ps
        )
        assert erec.tolist() == [
            estimated_recurrence(s, per, min_ps) for s in sequences
        ]
        assert rec.tolist() == [
            recurrence(s, per, min_ps) for s in sequences
        ]
        runs = [
            (int(s), (ts[f].item(), ts[l].item()))
            for s, f, l in zip(seg, first, last)
        ]
        expected = [
            (i, (run[0], run[1]))
            for i, s in enumerate(sequences)
            for run in interesting_intervals(s, per, min_ps)
        ]
        assert runs == expected


# ----------------------------------------------------------------------
# intersect_arrays vs intersect_sorted
# ----------------------------------------------------------------------
class TestIntersectArrays:
    @RELAXED
    @given(
        left=point_sequences(max_size=25),
        right=point_sequences(max_size=25),
    )
    def test_sort_merge_path_matches_python(self, left, right):
        result = intersect_arrays(np.asarray(left), np.asarray(right))
        assert result.tolist() == intersect_sorted(left, right)

    @RELAXED
    @given(
        left=point_sequences(max_size=25),
        right=point_sequences(max_size=25),
    )
    def test_bitmap_path_matches_python(self, left, right):
        # universe=201 covers the strategy's 0..200 value range; any
        # non-trivial operands cross the density threshold (201 >> 3).
        result = intersect_arrays(
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            universe=201,
        )
        assert result.tolist() == intersect_sorted(left, right)

    def test_bitmap_needs_integer_operands(self):
        # Float operands must fall back to sort-merge, never index.
        result = intersect_arrays(
            np.array([0.5, 2.5]), np.array([2.5, 3.5]), universe=4
        )
        assert result.tolist() == [2.5]


# ----------------------------------------------------------------------
# as_timestamp_array dtype selection and overflow guards
# ----------------------------------------------------------------------
class TestAsTimestampArray:
    def test_integer_column(self):
        array = as_timestamp_array([3, 1, 2])
        assert array.dtype == np.int64
        assert array.tolist() == [3, 1, 2]

    def test_float_column(self):
        array = as_timestamp_array([1, 2.5])
        assert array.dtype == np.float64

    def test_empty(self):
        assert as_timestamp_array([]).size == 0

    @pytest.mark.parametrize(
        "bad",
        [
            [INT64_SAFE_BOUND],           # diff could wrap int64
            [-INT64_SAFE_BOUND],
            [2 ** 70],                     # beyond int64 entirely
            [-(2 ** 70), 0],
            [2 ** 54 + 1, 0.5],            # int > 2**53 mixed with floats
        ],
        ids=["2^62", "-2^62", "2^70", "-2^70", "mixed-2^54"],
    )
    def test_unsafe_timestamps_raise(self, bad):
        with pytest.raises(ParameterError):
            as_timestamp_array(bad)

    def test_safe_boundaries_accepted(self):
        assert as_timestamp_array([INT64_SAFE_BOUND - 1]).dtype == np.int64
        # Large *float* inputs are stored unchanged — only integers
        # silently folded into a float column are refused.
        assert as_timestamp_array([2.0 ** 60]).dtype == np.float64

    def test_non_numeric_rejected(self):
        with pytest.raises(ParameterError):
            as_timestamp_array(["a", "b"])


# ----------------------------------------------------------------------
# The whole engine vs the reference engines
# ----------------------------------------------------------------------
class TestVecEngineEquivalence:
    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_vec_equals_rp_growth_and_rp_eclat(self, db, params):
        per, min_ps, min_rec = params
        reference = RPGrowth(per, min_ps, min_rec).mine(db)
        eclat = RPEclat(per, min_ps, min_rec)
        vec = RPEclatVec(per, min_ps, min_rec)
        assert list(vec.mine(db)) == list(reference) == list(eclat.mine(db))
        # The Erec lattice is order-independent, so the vec engine
        # visits exactly rp-eclat's candidate set.
        for counter in (
            "patterns_found",
            "candidate_patterns",
            "recurrence_evaluations",
            "candidate_items",
            "pruned_items",
        ):
            assert getattr(vec.last_stats, counter) == getattr(
                eclat.last_stats, counter
            ), counter

    @RELAXED
    @given(
        db=small_databases(),
        params=mining_parameters(),
        max_length=st.integers(1, 3),
    )
    def test_max_length_matches_rp_eclat(self, db, params, max_length):
        per, min_ps, min_rec = params
        reference = RPEclat(
            per, min_ps, min_rec, max_length=max_length
        ).mine(db)
        vec = RPEclatVec(per, min_ps, min_rec, max_length=max_length)
        assert list(vec.mine(db)) == list(reference)

    def test_empty_database(self):
        from repro.timeseries.database import TransactionalDatabase

        found = RPEclatVec(1, 1, 1).mine(TransactionalDatabase([]))
        assert list(found) == []
