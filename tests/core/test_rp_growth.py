"""Unit tests for the RP-growth miner (Algorithms 4-5)."""

import pytest

from repro.core.rp_growth import RPGrowth
from repro.datasets import paper_table2_patterns
from repro.exceptions import ParameterError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import (
    load_transactional_database,
    save_transactional_database,
)


def as_dict(patterns):
    return {
        "".join(sorted(map(str, p.items))): (
            p.support,
            p.recurrence,
            [(iv.start, iv.end, iv.periodic_support) for iv in p.intervals],
        )
        for p in patterns
    }


class TestPaperTable2:
    def test_full_reproduction(self, running_example):
        found = RPGrowth(per=2, min_ps=3, min_rec=2).mine(running_example)
        assert as_dict(found) == paper_table2_patterns()

    def test_example10_c_absent_cd_present(self, running_example):
        # Recurring patterns are not anti-monotone.
        found = RPGrowth(per=2, min_ps=3, min_rec=2).mine(running_example)
        assert "c" not in found
        assert "cd" in found

    def test_ef_discovered_via_f_suffix(self, running_example):
        # The worked mining of Figure 6.
        found = RPGrowth(per=2, min_ps=3, min_rec=2).mine(running_example)
        ef = found.pattern("ef")
        assert ef.support == 6
        assert [(iv.start, iv.end) for iv in ef.intervals] == [
            (3, 6), (10, 12),
        ]


class TestParameterEffects:
    def test_min_rec_one_adds_long_run_patterns(self, running_example):
        found = RPGrowth(per=2, min_ps=3, min_rec=1).mine(running_example)
        # c has one interval [2,12] with ps 7 -> recurring at minRec=1.
        assert found.pattern("c").recurrence == 1
        assert len(found) > 8

    def test_higher_min_rec_empties_result(self, running_example):
        assert len(
            RPGrowth(per=2, min_ps=3, min_rec=3).mine(running_example)
        ) == 0

    def test_min_ps_one(self, running_example):
        found = RPGrowth(per=2, min_ps=1, min_rec=2).mine(running_example)
        # Every item has >= 2 runs except c (one long run).
        assert "g" in found

    def test_fractional_min_ps(self, running_example):
        # 0.25 of 12 transactions = 3.
        fractional = RPGrowth(per=2, min_ps=0.25, min_rec=2).mine(
            running_example
        )
        absolute = RPGrowth(per=2, min_ps=3, min_rec=2).mine(running_example)
        assert fractional == absolute

    def test_large_per_single_interval_each(self, running_example):
        found = RPGrowth(per=100, min_ps=1, min_rec=1).mine(running_example)
        for pattern in found:
            assert pattern.recurrence == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            RPGrowth(per=-1, min_ps=3, min_rec=2)
        with pytest.raises(ParameterError):
            RPGrowth(per=2, min_ps=3, min_rec=0)


class TestEdgeCases:
    def test_empty_database(self):
        found = RPGrowth(per=2, min_ps=3, min_rec=2).mine(
            TransactionalDatabase()
        )
        assert len(found) == 0

    def test_single_transaction(self):
        db = TransactionalDatabase([(1, "ab")])
        found = RPGrowth(per=1, min_ps=1, min_rec=1).mine(db)
        assert as_dict(found) == {
            "a": (1, 1, [(1, 1, 1)]),
            "ab": (1, 1, [(1, 1, 1)]),
            "b": (1, 1, [(1, 1, 1)]),
        }

    def test_no_candidates(self):
        db = TransactionalDatabase([(1, "a"), (100, "a")])
        found = RPGrowth(per=2, min_ps=2, min_rec=2).mine(db)
        assert len(found) == 0

    def test_all_transactions_identical_items(self):
        db = TransactionalDatabase([(ts, "xy") for ts in range(1, 7)])
        found = RPGrowth(per=1, min_ps=3, min_rec=1).mine(db)
        assert as_dict(found) == {
            "x": (6, 1, [(1, 6, 6)]),
            "xy": (6, 1, [(1, 6, 6)]),
            "y": (6, 1, [(1, 6, 6)]),
        }

    def test_float_timestamps(self):
        db = TransactionalDatabase(
            [(0.5, "a"), (1.0, "a"), (1.5, "a"), (9.0, "a"),
             (9.5, "a"), (10.0, "a")]
        )
        found = RPGrowth(per=0.5, min_ps=3, min_rec=2).mine(db)
        pattern = found.pattern("a")
        assert [(iv.start, iv.end) for iv in pattern.intervals] == [
            (0.5, 1.5), (9.0, 10.0),
        ]


class TestStats:
    def test_stats_populated(self, running_example):
        miner = RPGrowth(per=2, min_ps=3, min_rec=2)
        miner.mine(running_example)
        stats = miner.last_stats
        assert stats.candidate_items == 6
        assert stats.pruned_items == 1  # g
        assert stats.initial_tree_nodes == 16
        assert stats.patterns_found == 8
        assert stats.erec_evaluations >= stats.candidate_patterns
        assert stats.candidate_patterns >= stats.patterns_found

    def test_stats_reset_between_runs(self, running_example):
        miner = RPGrowth(per=2, min_ps=3, min_rec=2)
        miner.mine(running_example)
        first = miner.last_stats
        miner.mine(running_example)
        assert miner.last_stats is not first
        assert miner.last_stats.patterns_found == first.patterns_found



class TestColumnarScans:
    def test_a_serial_mine_of_a_loaded_file_builds_no_row_view(
        self, running_example, tmp_path, monkeypatch
    ):
        # Algorithm 1 and the RP-tree build read the database's id rows:
        # the loaded file is never turned into row objects, nor into the
        # item -> timestamps index, and the answer is still Table 2.
        path = tmp_path / "example.tsv"
        save_transactional_database(running_example, path)
        database = load_transactional_database(path)
        built = []
        rows = TransactionalDatabase.transactions
        index = TransactionalDatabase.item_timestamps

        def transactions(self):
            built.append("transactions")
            return rows.fget(self)

        def item_timestamps(self):
            built.append("item_timestamps")
            return index(self)

        monkeypatch.setattr(
            TransactionalDatabase, "transactions", property(transactions)
        )
        monkeypatch.setattr(
            TransactionalDatabase, "item_timestamps", item_timestamps
        )
        miner = RPGrowth(per=2, min_ps=3, min_rec=2)
        found = miner.mine(database)
        assert built == []
        assert as_dict(found) == paper_table2_patterns()
        assert miner.last_stats.initial_tree_nodes == 16

class TestMaxLength:
    def test_caps_pattern_length(self, running_example):
        found = RPGrowth(per=2, min_ps=3, min_rec=2, max_length=1).mine(
            running_example
        )
        assert found.max_length() == 1
        assert {"".join(p.items) for p in found} == {"a", "b", "d", "e", "f"}

    def test_capped_results_are_prefix_of_full(self, running_example):
        full = RPGrowth(per=2, min_ps=3, min_rec=2).mine(running_example)
        capped = RPGrowth(per=2, min_ps=3, min_rec=2, max_length=1).mine(
            running_example
        )
        expected = {p.items for p in full if p.length <= 1}
        assert capped.itemsets() == expected

    def test_engines_agree_under_cap(self, running_example):
        from repro.core.rp_eclat_vec import RPEclatVec

        growth = RPGrowth(2, 3, 2, max_length=1).mine(running_example)
        eclat = RPEclatVec(2, 3, 2, max_length=1).mine(running_example)
        assert growth == eclat

    def test_rejects_bad_max_length(self):
        with pytest.raises(ValueError):
            RPGrowth(2, 3, 2, max_length=0)
