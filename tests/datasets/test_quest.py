"""Unit tests for the IBM Quest-style generator."""

import statistics

import pytest

from repro.datasets.quest import QuestConfig, generate_quest
from repro.exceptions import ParameterError


SMALL = QuestConfig(n_transactions=500, n_items=100, n_patterns=40, seed=11)


class TestDeterminism:
    def test_same_seed_same_database(self):
        assert generate_quest(SMALL) == generate_quest(SMALL)

    def test_different_seed_different_database(self):
        other = QuestConfig(
            n_transactions=500, n_items=100, n_patterns=40, seed=12
        )
        assert generate_quest(SMALL) != generate_quest(other)

    # Digests of the generator's output before it bisected one cdf in
    # place of a weighted ``rng.choice`` per draw; the first config is
    # the golden corpus's input (``quest_workload(0.001, seed=11)``).
    @pytest.mark.parametrize("config, digest", [
        (
            QuestConfig(n_transactions=100, seed=11),
            "37cf5e0622786e4aee2dd10f9a34d3e3b3f50ea56c0c1a498a8d50bc6ca50b75",
        ),
        (
            QuestConfig(
                n_transactions=500, n_items=50, gap_probability=0.3, seed=5
            ),
            "124954f6e7e2701a7d3cf20ba46e3feed580e352d29a368ca9fe24164cd620d0",
        ),
        (
            QuestConfig(
                n_transactions=200, n_items=20, n_patterns=15,
                avg_transaction_size=6.0, seed=3,
            ),
            "cccd4a5a1134382e35ec715fde7943c60e3ea2920c578a4253d6a7383ce8e619",
        ),
    ])
    def test_stream_is_pinned(self, config, digest):
        assert generate_quest(config).digest() == digest


class TestShape:
    def test_transaction_count(self):
        db = generate_quest(SMALL)
        # Empty baskets are dropped, but they are rare.
        assert 450 <= len(db) <= 500

    def test_item_universe_respected(self):
        db = generate_quest(SMALL)
        for item in db.items():
            assert item.startswith("i")
            assert 0 <= int(item[1:]) < 100

    def test_mean_basket_size_near_target(self):
        db = generate_quest(
            QuestConfig(
                n_transactions=800,
                n_items=200,
                avg_transaction_size=10.0,
                seed=3,
            )
        )
        mean_size = statistics.fmean(len(items) for _, items in db)
        assert 6.0 <= mean_size <= 14.0

    def test_sequential_timestamps_without_gaps(self):
        db = generate_quest(SMALL)
        timestamps = [ts for ts, _ in db]
        assert timestamps[0] >= 1
        assert timestamps[-1] <= 500

    def test_gap_probability_stretches_time(self):
        gapped = generate_quest(
            QuestConfig(
                n_transactions=500,
                n_items=100,
                gap_probability=0.5,
                seed=5,
            )
        )
        dense = generate_quest(
            QuestConfig(n_transactions=500, n_items=100, seed=5)
        )
        assert gapped.end > dense.end

    def test_skewed_item_popularity(self):
        db = generate_quest(SMALL)
        counts = sorted(
            (len(ts) for ts in db.item_timestamps().values()), reverse=True
        )
        # The potential-itemset weighting concentrates mass: the busiest
        # decile must beat the quietest by a wide margin.
        top = statistics.fmean(counts[: max(1, len(counts) // 10)])
        bottom = statistics.fmean(counts[-max(1, len(counts) // 10):])
        assert top > 4 * bottom


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            QuestConfig(n_transactions=0)
        with pytest.raises(ParameterError):
            QuestConfig(n_items=0)

    def test_rejects_bad_correlation(self):
        with pytest.raises(ParameterError):
            QuestConfig(correlation=1.5)

    def test_rejects_bad_gap_probability(self):
        with pytest.raises(ParameterError):
            QuestConfig(gap_probability=1.0)
