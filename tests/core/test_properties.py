"""Property-based cross-engine and model-invariant tests.

The three engines — RP-growth (tree), the batched vertical engine and
the exhaustive reference — implement the same model through very
different machinery; agreement on random inputs is the strongest
correctness evidence the suite has.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.intervals import recurrence
from repro.core.naive import mine_recurring_patterns_naive
from repro.core.rp_eclat_vec import RPEclatVec
from repro.core.rp_growth import RPGrowth
from tests.conftest import (
    bound_passing_itemsets,
    mining_parameters,
    small_databases,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCrossEngineEquivalence:
    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_rp_growth_equals_naive(self, db, params):
        per, min_ps, min_rec = params
        growth = RPGrowth(per, min_ps, min_rec).mine(db)
        naive = mine_recurring_patterns_naive(db, per, min_ps, min_rec)
        assert growth == naive

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_rp_eclat_vec_equals_naive(self, db, params):
        per, min_ps, min_rec = params
        vec = RPEclatVec(per, min_ps, min_rec).mine(db)
        naive = mine_recurring_patterns_naive(db, per, min_ps, min_rec)
        assert vec == naive

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_support_pruning_equals_erec_pruning(self, db, params):
        per, min_ps, min_rec = params
        strong = RPEclatVec(per, min_ps, min_rec, pruning="erec")
        weak = RPEclatVec(per, min_ps, min_rec, pruning="support")
        assert strong.mine(db) == weak.mine(db)
        # Each bound expands exactly the occurring itemsets it keeps.
        for miner in (strong, weak):
            assert miner.last_stats.candidate_patterns == (
                bound_passing_itemsets(db, per, min_ps, min_rec, miner.pruning)
            ), miner.pruning


class TestOutputInvariants:
    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_reported_metadata_is_self_consistent(self, db, params):
        per, min_ps, min_rec = params
        for pattern in RPGrowth(per, min_ps, min_rec).mine(db):
            timestamps = db.timestamps_of(pattern.items)
            assert pattern.support == len(timestamps)
            assert pattern.recurrence >= min_rec
            assert pattern.recurrence == recurrence(timestamps, per, min_ps)
            for interval in pattern.intervals:
                assert interval.periodic_support >= min_ps
                assert interval.start <= interval.end
            # Intervals are disjoint, ordered, and separated by > per.
            for left, right in zip(pattern.intervals, pattern.intervals[1:]):
                assert right.start - left.end > per

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_interval_endpoints_are_occurrences(self, db, params):
        per, min_ps, min_rec = params
        for pattern in RPGrowth(per, min_ps, min_rec).mine(db):
            occurrences = set(db.timestamps_of(pattern.items))
            for interval in pattern.intervals:
                assert interval.start in occurrences
                assert interval.end in occurrences


class TestThresholdMonotonicity:
    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_raising_min_rec_shrinks_results(self, db, params):
        per, min_ps, min_rec = params
        loose = RPGrowth(per, min_ps, min_rec).mine(db)
        tight = RPGrowth(per, min_ps, min_rec + 1).mine(db)
        assert tight.itemsets() <= loose.itemsets()

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_raising_min_ps_at_min_rec_one_shrinks_results(self, db, params):
        per, min_ps, _ = params
        loose = RPGrowth(per, min_ps, 1).mine(db)
        tight = RPGrowth(per, min_ps + 1, 1).mine(db)
        assert tight.itemsets() <= loose.itemsets()

    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_raising_per_at_min_rec_one_grows_results(self, db, params):
        # Observation from Section 5.2: at minRec = 1 a larger period
        # can only turn aperiodic gaps periodic.
        per, min_ps, _ = params
        small = RPGrowth(per, min_ps, 1).mine(db)
        large = RPGrowth(per + 1, min_ps, 1).mine(db)
        assert small.itemsets() <= large.itemsets()


class TestOrderInvariance:
    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_mining_output_identical_under_any_item_order(self, db, params):
        per, min_ps, min_rec = params
        reference = RPGrowth(per, min_ps, min_rec).mine(db)
        for order in ("support-asc", "lexicographic"):
            assert RPGrowth(
                per, min_ps, min_rec, item_order=order
            ).mine(db) == reference


class TestMaxLengthProperty:
    @RELAXED
    @given(db=small_databases(), params=mining_parameters())
    def test_capped_mining_equals_filtered_full_mining(self, db, params):
        per, min_ps, min_rec = params
        full = RPGrowth(per, min_ps, min_rec).mine(db)
        for cap in (1, 2):
            capped = RPGrowth(
                per, min_ps, min_rec, max_length=cap
            ).mine(db)
            assert capped.itemsets() == {
                p.items for p in full if p.length <= cap
            }
