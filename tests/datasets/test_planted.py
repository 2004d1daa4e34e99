"""Recall tests: planted recurring patterns must be recovered exactly."""

import pytest

from repro import mine_recurring_patterns
from repro.core.intervals import recurrence
from repro.datasets.planted import PlantedBurst, generate_planted_workload
from repro.exceptions import ParameterError


class TestPlantedBurst:
    def test_timestamps(self):
        burst = PlantedBurst(("a",), start=10, step=3, count=4)
        assert burst.timestamps() == (10, 13, 16, 19)
        assert burst.end == 19

    def test_rejects_empty_items(self):
        with pytest.raises(ParameterError):
            PlantedBurst((), start=1, step=1, count=1)

    def test_rejects_bad_step(self):
        with pytest.raises(ParameterError):
            PlantedBurst(("a",), start=1, step=0, count=1)


class TestGroundTruthRecovery:
    @pytest.mark.parametrize("engine", ["rp-growth", "rp-eclat-vec"])
    def test_exact_recovery(self, engine):
        workload = generate_planted_workload(seed=7)
        found = mine_recurring_patterns(
            workload.database,
            per=workload.per,
            min_ps=workload.min_ps,
            min_rec=workload.min_rec,
            engine=engine,
        )
        expected_by_items = {p.items: p for p in workload.expected}
        # Every planted pattern (and subset) is found with exact
        # support, recurrence and interval boundaries.
        for items, expected in expected_by_items.items():
            got = found.get(items)
            assert got is not None, items
            assert got.support == expected.support
            assert got.intervals == expected.intervals
        # And nothing else is found: noise cannot recur by construction.
        assert found.itemsets() == set(expected_by_items)

    def test_noise_items_never_recur(self):
        workload = generate_planted_workload(
            noise_items=20, noise_rate=0.6, seed=3
        )
        db = workload.database
        for item, timestamps in db.item_timestamps().items():
            if item.startswith("n"):
                assert recurrence(
                    timestamps, workload.per, workload.min_ps
                ) == 0

    def test_parameter_scaling(self):
        workload = generate_planted_workload(
            per=10, min_ps=6, min_rec=3, n_patterns=2, pattern_size=3, seed=5
        )
        found = mine_recurring_patterns(
            workload.database,
            per=workload.per,
            min_ps=workload.min_ps,
            min_rec=workload.min_rec,
        )
        # 2 planted patterns of size 3 -> 7 non-empty subsets each.
        assert len(found) == 14

    def test_expected_metadata_is_internally_consistent(self):
        workload = generate_planted_workload(seed=0)
        for pattern in workload.expected:
            assert pattern.recurrence == workload.min_rec
            for interval in pattern.intervals:
                assert interval.periodic_support >= workload.min_ps
