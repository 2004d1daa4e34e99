"""Unit tests for the experiment harness."""

import pytest

from repro.bench.harness import compare_models, grid_figure, grid_table
from repro.sweep import SweepPlan, run_sweep


def _sweep(database, pers, min_ps_values, min_recs, **plan):
    return run_sweep(
        database,
        SweepPlan(
            pers=pers, min_ps_values=min_ps_values, min_recs=min_recs,
            **plan,
        ),
        dataset="toy",
    )


class TestCountSweep:
    def test_grid_is_complete(self, running_example):
        result = _sweep(running_example, [1, 2], [1, 3], [1, 2])
        table = grid_table(result)
        assert len(result.counts()) == 8
        # The title, the header and its rule, then one row per minPS.
        assert len(table.splitlines()) == 3 + 2

    def test_paper_cell(self, running_example):
        result = _sweep(running_example, [2], [3], [2])
        assert grid_table(result).splitlines()[-1].split() == [
            "3", "|", "8",
        ]

    def test_fractional_thresholds(self, running_example):
        result = _sweep(running_example, [2], [0.25], [2])
        # 0.25 * 12 -> 3, rendered as a percentage.
        assert grid_table(result).splitlines()[-1].split() == [
            "25%", "|", "8",
        ]

    def test_as_table_renders_every_cell(self, running_example):
        result = _sweep(running_example, [1, 2], [3], [1, 2])
        table = grid_table(result)
        assert table.splitlines()[0] == "toy: count"
        assert "rec=1,per=1" in table
        assert "rec=2,per=2" in table

    def test_as_figure(self, running_example):
        result = _sweep(running_example, [2], [1, 3], [2])
        figure = grid_figure(result, min_rec=2)
        assert "per=2" in figure
        assert "toy: count (minRec=2)" in figure

    def test_engines_give_same_grid(self, running_example):
        growth = _sweep(running_example, [2], [3], [2], engine="rp-growth")
        eclat = _sweep(running_example, [2], [3], [2], engine="rp-eclat-vec")
        assert grid_table(growth) == grid_table(eclat)

    def test_unknown_metric_rejected(self, running_example):
        result = _sweep(running_example, [2], [3], [2])
        with pytest.raises(ValueError, match="metric"):
            grid_table(result, "patterns")


class TestRuntimeSweep:
    def test_measures_positive_times(self, running_example):
        result = _sweep(
            running_example, [2], [3], [1, 2], derive_min_rec=False,
        )
        assert result.cells_mined == 2
        assert all(s > 0 for s in result.seconds_by_cell.values())
        table = grid_table(result, "seconds")
        assert table.splitlines()[0] == "toy: seconds"

    def test_repeats_take_best(self, running_example):
        result = _sweep(
            running_example, [2], [3], [2], derive_min_rec=False,
            repeats=3,
        )
        assert result.cells_mined == 1
        assert "toy: seconds (minRec=2)" in grid_figure(
            result, 2, "seconds"
        )


class TestComparison:
    def test_running_example(self, running_example):
        result = compare_models(
            running_example, "toy", per=2, min_sup=4, min_ps=3, min_rec=1
        )
        assert set(result.counts) == {
            "periodic-frequent", "recurring", "p-pattern",
        }
        # Strict complete cycling finds the fewest patterns here too.
        assert result.counts["periodic-frequent"] <= result.counts["recurring"]

    def test_as_table(self, running_example):
        result = compare_models(
            running_example, "toy", per=2, min_sup=4, min_ps=3
        )
        table = result.as_table()
        for model in ("periodic-frequent", "recurring", "p-pattern"):
            assert model in table
