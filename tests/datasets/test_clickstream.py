"""Unit tests for the Shop-14-style clickstream generator."""

import pytest

from repro import mine_recurring_patterns
from repro.datasets.clickstream import (
    MINUTES_PER_DAY,
    ClickstreamConfig,
    generate_clickstream,
)
from repro.exceptions import ParameterError

SMALL = ClickstreamConfig(days=3, n_categories=30, promo_windows=(), seed=2)


class TestDeterminism:
    def test_same_seed_same_database(self):
        assert generate_clickstream(SMALL) == generate_clickstream(SMALL)


class TestShape:
    def test_time_span(self):
        db = generate_clickstream(SMALL)
        assert db.start >= 0
        assert db.end < 3 * MINUTES_PER_DAY

    def test_categories_in_range(self):
        db = generate_clickstream(SMALL)
        for item in db.items():
            assert item.startswith("c")
            assert 0 <= int(item[1:]) < 30

    def test_night_is_quiet(self):
        db = generate_clickstream(SMALL)
        # 01:00-06:00 has zero intensity by construction.
        for ts, _ in db:
            minute_of_day = ts % MINUTES_PER_DAY
            assert not 60 <= minute_of_day < 360

    def test_popular_categories_dominate(self):
        db = generate_clickstream(SMALL)
        counts = db.item_timestamps()
        assert len(counts["c0"]) > len(counts.get("c29", ()))


class TestPromotions:
    CONFIG = ClickstreamConfig(
        days=14,
        n_categories=30,
        promo_windows=((20, ((1, 3), (8, 10))),),
        promo_rate=0.9,
        seed=4,
    )

    def test_promo_pair_active_only_in_windows(self):
        db = generate_clickstream(self.CONFIG)
        for ts in db.timestamps_of(["c20", "c21"]):
            day = int(ts) // MINUTES_PER_DAY
            assert day in (1, 2, 3, 8, 9, 10)

    def test_promo_pair_is_recurring(self):
        db = generate_clickstream(self.CONFIG)
        found = mine_recurring_patterns(
            db, per=MINUTES_PER_DAY, min_ps=50, min_rec=2, engine="rp-eclat-vec"
        )
        promo = found.get(["c20", "c21"])
        assert promo is not None
        assert promo.recurrence == 2

    def test_promo_windows_clamped_to_days(self):
        config = ClickstreamConfig(
            days=2,
            n_categories=30,
            promo_windows=((20, ((0, 10),)),),
            seed=4,
        )
        db = generate_clickstream(config)
        assert db.end < 2 * MINUTES_PER_DAY


class TestValidation:
    def test_rejects_bad_days(self):
        with pytest.raises(ParameterError):
            ClickstreamConfig(days=0)

    def test_rejects_promo_category_out_of_range(self):
        with pytest.raises(ParameterError):
            ClickstreamConfig(
                n_categories=10, promo_windows=((9, ((0, 1),)),)
            )

    def test_rejects_inverted_window(self):
        with pytest.raises(ParameterError):
            ClickstreamConfig(promo_windows=((5, ((4, 2),)),))

    def test_rejects_bad_correlation(self):
        with pytest.raises(ParameterError):
            ClickstreamConfig(correlation_probability=2.0)
