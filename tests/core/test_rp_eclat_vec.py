"""Unit tests for the batched columnar vertical engine (``rp-eclat-vec``)."""

import pytest

from repro.core.rp_eclat_vec import RPEclatVec
from repro.core.rp_growth import RPGrowth
from repro.datasets import paper_table2_patterns
from repro.timeseries.database import TransactionalDatabase


class TestMining:
    def test_paper_table2(self, running_example):
        found = RPEclatVec(per=2, min_ps=3, min_rec=2).mine(running_example)
        got = {
            "".join(sorted(p.items)): (
                p.support,
                p.recurrence,
                [(iv.start, iv.end, iv.periodic_support) for iv in p.intervals],
            )
            for p in found
        }
        assert got == paper_table2_patterns()

    def test_matches_rp_growth_on_other_thresholds(self, running_example):
        for per, min_ps, min_rec in [(1, 2, 1), (3, 2, 2), (2, 1, 3), (5, 4, 1)]:
            growth = RPGrowth(per, min_ps, min_rec).mine(running_example)
            vec = RPEclatVec(per, min_ps, min_rec).mine(running_example)
            assert growth == vec, (per, min_ps, min_rec)

    def test_empty_database(self):
        assert len(RPEclatVec(2, 3, 2).mine(TransactionalDatabase())) == 0

    def test_rejects_unknown_pruning(self):
        with pytest.raises(
            ValueError,
            match=r"pruning must be one of \('erec', 'support'\), got 'magic'",
        ):
            RPEclatVec(2, 3, 2, pruning="magic")


class TestPruningStrategies:
    def test_support_pruning_gives_same_answer(self, running_example):
        # The weak bound is sound: results must be identical, only the
        # explored search space differs.
        erec = RPEclatVec(2, 3, 2, pruning="erec").mine(running_example)
        weak = RPEclatVec(2, 3, 2, pruning="support").mine(running_example)
        assert erec == weak

    def test_erec_pruning_explores_no_more_candidates(self, running_example):
        strong = RPEclatVec(2, 3, 2, pruning="erec")
        strong.mine(running_example)
        weak = RPEclatVec(2, 3, 2, pruning="support")
        weak.mine(running_example)
        assert (
            strong.last_stats.candidate_patterns
            <= weak.last_stats.candidate_patterns
        )

    def test_stats_recorded(self, running_example):
        miner = RPEclatVec(2, 3, 2)
        miner.mine(running_example)
        assert miner.last_stats.patterns_found == 8
        assert miner.last_stats.pruned_items == 1  # g
