"""Unit tests for the batched columnar vertical engine (``rp-eclat-vec``)."""

import tracemalloc

import pytest

from repro.bench.workloads import quest_workload
from repro.core.naive import mine_recurring_patterns_naive
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


def _rows(**items):
    """A database from ``item=timestamps`` keyword lists."""
    by_ts = {}
    for item, stamps in items.items():
        for ts in stamps:
            by_ts.setdefault(ts, []).append(item)
    return TransactionalDatabase(sorted(by_ts.items()))


class TestLevelLoop:
    #: At level 2 the family of ``a`` is ``ab``, ``ad``, ``ac`` (level
    #: 1 is rarest first: a, b, d with 24 ids each, then c with 58).
    #: ``ac``'s row (22 ids) is more than four times its earlier
    #: siblings' block (``ab`` + ``ad``, 2 ids each), so the node takes
    #: the binary-search membership branch, and finds ``ab``'s ids but
    #: not ``ad``'s.  Level 3 holds an empty intersection (``abd``).
    DATABASE = _rows(
        a=range(1, 25),
        b=[3, 4, *range(31, 53)],
        d=[9, 10, *range(33, 55)],
        c=[*range(1, 9), *range(11, 61)],
    )
    PARAMS = {"per": 1, "min_ps": 2, "min_rec": 1}
    #: The lattice counters every pruning engine shares
    #: (``tests/core/test_engine_stats_parity.py``).
    LATTICE_COUNTERS = (
        "candidate_items",
        "pruned_items",
        "candidate_patterns",
        "recurrence_evaluations",
        "patterns_found",
    )

    def test_binary_search_branch_matches_the_other_engines(self):
        database = self.DATABASE
        ac = len(database.timestamps_of("ac"))
        earlier = len(database.timestamps_of("ab")) + len(
            database.timestamps_of("ad")
        )
        assert ac > 4 * earlier  # the node the branch serves
        vec = RPEclatVec(**self.PARAMS)
        growth = RPGrowth(**self.PARAMS)
        found = vec.mine(database)
        assert found == growth.mine(database)
        assert found == mine_recurring_patterns_naive(database, **self.PARAMS)
        assert frozenset("abc") in {p.items for p in found}
        for name in self.LATTICE_COUNTERS:
            assert getattr(vec.last_stats, name) == getattr(
                growth.last_stats, name
            ), name

    def test_level_memory_is_sized_by_the_kept_ids(self):
        """A level keeps only its intersections: the mine's traced peak
        stays within 6 x 8 bytes per kept id.  Copying every gathered
        sibling block read about 11x here."""
        database = quest_workload(0.05)
        miner = RPEclatVec(per=360, min_ps=0.002, min_rec=1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            miner.mine(database)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        kept = miner.last_stats.tid_list_entries
        assert peak <= 6 * 8 * kept, (peak, kept)
