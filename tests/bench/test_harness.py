"""Unit tests for the experiment harness."""

import pytest

from repro.bench.harness import (
    compare_models,
    sweep_pattern_counts,
    sweep_runtime,
)
from repro.datasets import paper_running_example


class TestCountSweep:
    def test_grid_is_complete(self, running_example):
        result = sweep_pattern_counts(
            running_example, "toy", pers=[1, 2], min_ps_values=[1, 3],
            min_recs=[1, 2],
        )
        assert len(result.cells) == 8

    def test_paper_cell(self, running_example):
        result = sweep_pattern_counts(
            running_example, "toy", pers=[2], min_ps_values=[3], min_recs=[2],
        )
        assert result.value(2, 3, 2) == 8

    def test_fractional_thresholds(self, running_example):
        result = sweep_pattern_counts(
            running_example, "toy", pers=[2], min_ps_values=[0.25],
            min_recs=[2],
        )
        assert result.value(2, 0.25, 2) == 8  # 0.25 * 12 -> 3

    def test_as_table_renders_every_cell(self, running_example):
        result = sweep_pattern_counts(
            running_example, "toy", pers=[1, 2], min_ps_values=[3],
            min_recs=[1, 2],
        )
        table = result.as_table()
        assert "rec=1,per=1" in table
        assert "rec=2,per=2" in table

    def test_as_figure(self, running_example):
        result = sweep_pattern_counts(
            running_example, "toy", pers=[2], min_ps_values=[1, 3],
            min_recs=[2],
        )
        figure = result.as_figure(min_rec=2)
        assert "per=2" in figure
        assert "minRec=2" in figure

    def test_engines_give_same_grid(self, running_example):
        growth = sweep_pattern_counts(
            running_example, "toy", [2], [3], [2], engine="rp-growth"
        )
        eclat = sweep_pattern_counts(
            running_example, "toy", [2], [3], [2], engine="rp-eclat-vec"
        )
        assert growth.cells == eclat.cells


class TestRuntimeSweep:
    def test_measures_positive_times(self, running_example):
        result = sweep_runtime(
            running_example, "toy", pers=[2], min_ps_values=[3], min_recs=[2],
        )
        assert result.value(2, 3, 2) > 0

    def test_repeats_take_best(self, running_example):
        result = sweep_runtime(
            running_example, "toy", pers=[2], min_ps_values=[3],
            min_recs=[2], repeats=3,
        )
        assert result.metric == "seconds"


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
