"""Unit tests for the evaluation workloads."""

import pytest

from repro.bench.workloads import (
    clickstream_workload,
    quest_workload,
    twitter_workload,
)
from repro.exceptions import ParameterError


class TestCaching:
    def test_same_call_returns_cached_object(self):
        assert quest_workload(0.01) is quest_workload(0.01)

    def test_different_scale_different_database(self):
        assert quest_workload(0.01) is not quest_workload(0.02)


class TestQuest:
    def test_scale_controls_size(self):
        small = quest_workload(0.01)
        large = quest_workload(0.02)
        assert len(large) > len(small)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            quest_workload(0)


class TestShop14:
    def test_small_scale_keeps_promotions(self):
        db = clickstream_workload(0.1)
        assert "c120" in db.items()
        assert "c121" in db.items()

    def test_category_count(self):
        db = clickstream_workload(0.1)
        assert len(db.items()) <= 138


class TestTwitter:
    def test_small_scale_keeps_all_bursts(self):
        db = twitter_workload(0.1)
        for tag in ("yyc", "uttarakhand", "nuclear", "hibaku",
                    "pakvotes", "oklahoma"):
            assert tag in db.items(), tag

    def test_burst_pattern_survives_rescaling(self):
        from repro import mine_recurring_patterns

        db = twitter_workload(0.1)
        found = mine_recurring_patterns(
            db, per=360, min_ps=30, min_rec=1, engine="rp-eclat-vec"
        )
        assert found.get(["nuclear", "hibaku"]) is not None
