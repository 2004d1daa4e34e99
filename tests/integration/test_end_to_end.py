"""Integration tests: the full pipeline on realistic synthetic data."""

import io

import pytest

from repro import (
    EventSequence,
    RPGrowth,
    TransactionalDatabase,
    mine_recurring_patterns,
)
from repro.core.rp_eclat_vec import RPEclatVec
from repro.datasets import (
    generate_clickstream,
    generate_planted_workload,
    generate_twitter,
)
from repro.datasets.clickstream import MINUTES_PER_DAY, ClickstreamConfig
from repro.datasets.twitter import BurstSpec, TwitterConfig
from repro.timeseries.io import (
    load_transactional_database,
    save_transactional_database,
)
from repro.timeseries.transform import discretize_timestamps, events_to_database


class TestRawSeriesToPatterns:
    def test_discretize_group_mine(self):
        # Sub-minute sensor readings -> minute transactions -> patterns.
        events = []
        for burst_start in (0.0, 5000.0):
            ts = burst_start
            for _ in range(30):
                events.append(("alarm_a", ts + 0.2))
                events.append(("alarm_b", ts + 0.4))
                ts += 60.0
        raw = EventSequence(events)
        database = events_to_database(
            discretize_timestamps(raw, bucket=60.0, label="index")
        )
        found = mine_recurring_patterns(database, per=2, min_ps=20, min_rec=2)
        pattern = found.pattern(["alarm_a", "alarm_b"])
        assert pattern.recurrence == 2
        assert pattern.support == 60

    def test_file_round_trip_preserves_mining_result(self, tmp_path):
        workload = generate_planted_workload(seed=21)
        direct = mine_recurring_patterns(
            workload.database, workload.per, workload.min_ps, workload.min_rec
        )
        path = tmp_path / "db.tsv"
        save_transactional_database(workload.database, path)
        reloaded = load_transactional_database(path)
        via_file = mine_recurring_patterns(
            reloaded, workload.per, workload.min_ps, workload.min_rec
        )
        assert direct == via_file


class TestRealisticWorkloads:
    def test_clickstream_end_to_end(self):
        db = generate_clickstream(
            ClickstreamConfig(
                days=10,
                promo_windows=((120, ((1, 3), (6, 8))),),
                seed=3,
            )
        )
        found = mine_recurring_patterns(
            db, per=MINUTES_PER_DAY, min_ps=40, min_rec=2, engine="rp-eclat-vec"
        )
        promo = found.get(["c120", "c121"])
        assert promo is not None
        assert promo.recurrence == 2
        days = [
            (int(iv.start) // MINUTES_PER_DAY, int(iv.end) // MINUTES_PER_DAY)
            for iv in promo.intervals
        ]
        assert days == [(1, 3), (6, 8)]

    def test_twitter_rare_item_tolerance(self):
        # The paper's "rare item problem" claim (Sections 2 and 5.2): a
        # threshold low enough to capture a rare bursty tag makes
        # p-pattern mining flood the output, while the recurring model
        # keeps the result compact because it demands *consecutive*
        # periodic appearances.
        from repro.baselines import mine_p_patterns

        db = generate_twitter(
            TwitterConfig(
                days=8,
                n_hashtags=80,
                bursts=(BurstSpec(("rare_event",), ((2, 3),), mean_gap=5.0),),
                seed=17,
            )
        )
        recurring = mine_recurring_patterns(
            db, per=60, min_ps=100, min_rec=1, engine="rp-eclat-vec"
        )
        assert ["rare_event"] in recurring
        p_patterns = mine_p_patterns(db, per=60, min_sup=100)
        assert ["rare_event"] in p_patterns
        assert len(recurring) < len(p_patterns)

    def test_engines_agree_on_realistic_data(self):
        db = generate_twitter(TwitterConfig(days=6, n_hashtags=60, seed=5))
        growth = RPGrowth(per=360, min_ps=30, min_rec=1).mine(db)
        eclat = RPEclatVec(per=360, min_ps=30, min_rec=1).mine(db)
        assert growth == eclat


class TestLargeValueRobustness:
    def test_huge_timestamps(self):
        base = 1_700_000_000  # epoch-seconds scale
        db = TransactionalDatabase(
            [(base + offset, "xy") for offset in range(0, 600, 60)]
        )
        found = mine_recurring_patterns(db, per=60, min_ps=5, min_rec=1)
        assert found.pattern("xy").support == 10

    def test_negative_timestamps(self):
        db = TransactionalDatabase(
            [(ts, "a") for ts in range(-10, 0)]
        )
        found = mine_recurring_patterns(db, per=1, min_ps=10, min_rec=1)
        assert found.pattern("a").intervals[0].start == -10
