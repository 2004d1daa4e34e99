"""Unit tests for the LPT chunk planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import plan_chunks


class TestPlanChunks:
    def test_empty_sizes_yield_no_chunks(self):
        assert plan_chunks([], max_chunks=4) == []

    def test_rejects_non_positive_max_chunks(self):
        with pytest.raises(ValueError):
            plan_chunks([1, 2], max_chunks=0)

    def test_single_chunk_keeps_everything_together(self):
        chunks = plan_chunks([3, 1, 2], max_chunks=1)
        assert len(chunks) == 1
        assert sorted(chunks[0]) == [0, 1, 2]

    def test_known_lpt_plan(self):
        # Sizes [1, 8, 2, 4] into 2 bins: 8 alone, the rest together.
        assert plan_chunks([1, 8, 2, 4], max_chunks=2) == [[1], [3, 2, 0]]

    def test_chunks_ordered_largest_first(self):
        sizes = [5, 1, 9, 2, 7, 3]
        chunks = plan_chunks(sizes, max_chunks=3)
        totals = [sum(sizes[i] for i in chunk) for chunk in chunks]
        assert totals == sorted(totals, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=100), max_size=40),
        max_chunks=st.integers(min_value=1, max_value=12),
    )
    def test_plan_is_a_partition(self, sizes, max_chunks):
        chunks = plan_chunks(sizes, max_chunks)
        assert len(chunks) <= max_chunks
        flat = sorted(index for chunk in chunks for index in chunk)
        assert flat == list(range(len(sizes)))
        assert all(chunk for chunk in chunks)

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=0, max_value=100), max_size=40
        ),
        max_chunks=st.integers(min_value=1, max_value=12),
    )
    def test_plan_is_deterministic(self, sizes, max_chunks):
        assert plan_chunks(sizes, max_chunks) == plan_chunks(
            sizes, max_chunks
        )
