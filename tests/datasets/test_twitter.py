"""Unit tests for the Twitter-style hashtag stream generator."""

import pytest

from repro import mine_recurring_patterns
from repro.datasets.twitter import (
    MINUTES_PER_DAY,
    BurstSpec,
    TwitterConfig,
    generate_twitter,
)
from repro.exceptions import ParameterError

SMALL = TwitterConfig(days=3, n_hashtags=50, bursts=(), seed=9)


class TestDeterminism:
    def test_same_seed_same_database(self):
        assert generate_twitter(SMALL) == generate_twitter(SMALL)


class TestBackground:
    def test_time_span(self):
        db = generate_twitter(SMALL)
        assert db.end < 3 * MINUTES_PER_DAY

    def test_zipf_skew(self):
        db = generate_twitter(SMALL)
        counts = db.item_timestamps()
        assert len(counts["h0"]) > len(counts.get("h49", ()))

    def test_background_tags_always_on(self):
        db = generate_twitter(SMALL)
        # The hottest hashtag appears on every one of the 3 days.
        days = {int(ts) // MINUTES_PER_DAY for ts in db.item_timestamps()["h0"]}
        assert days == {0, 1, 2}


class TestBursts:
    CONFIG = TwitterConfig(
        days=10,
        n_hashtags=50,
        bursts=(
            BurstSpec(("flood", "rescue"), ((1, 2), (6, 7)), mean_gap=4.0),
        ),
        seed=1,
    )

    def test_burst_tags_confined_to_windows(self):
        db = generate_twitter(self.CONFIG)
        for ts in db.item_timestamps()["flood"]:
            day = int(ts) // MINUTES_PER_DAY
            assert day in (1, 2, 6, 7)

    def test_burst_pair_is_recurring_with_two_intervals(self):
        db = generate_twitter(self.CONFIG)
        found = mine_recurring_patterns(
            db, per=360, min_ps=50, min_rec=2, engine="rp-eclat-vec"
        )
        burst = found.get(["flood", "rescue"])
        assert burst is not None
        assert burst.recurrence == 2
        (first, second) = burst.intervals
        assert first.start >= 1 * MINUTES_PER_DAY
        assert first.end < 3 * MINUTES_PER_DAY
        assert second.start >= 6 * MINUTES_PER_DAY

    def test_bursts_truncated_by_short_streams(self):
        config = TwitterConfig(
            days=2,
            n_hashtags=50,
            bursts=(BurstSpec(("late",), ((5, 6),)),),
            seed=1,
        )
        db = generate_twitter(config)
        assert "late" not in db.items()

    def test_default_bursts_present_at_paper_scale_days(self):
        db = generate_twitter(TwitterConfig(days=75, n_hashtags=100, seed=0))
        for tag in ("yyc", "uttarakhand", "nuclear", "hibaku"):
            assert tag in db.items()


class TestValidation:
    def test_rejects_empty_burst(self):
        with pytest.raises(ParameterError):
            BurstSpec((), ((0, 1),))

    def test_rejects_inverted_window(self):
        with pytest.raises(ParameterError):
            BurstSpec(("a",), ((3, 1),))

    def test_rejects_bad_gap(self):
        with pytest.raises(ParameterError):
            BurstSpec(("a",), ((0, 1),), mean_gap=0)

    def test_rejects_bad_days(self):
        with pytest.raises(ParameterError):
            TwitterConfig(days=0)
