"""Cross-engine counter parity and telemetry-transparency checks.

Every engine populates the shared :class:`repro.obs.counters.MiningStats`
protocol, so the ablation benches can compare any pair of engines.  On
the paper's running example (Table 2) the counters must agree:

* every engine reports the same ``patterns_found``;
* the pruning engines compute the exact recurrence of exactly
  the same candidate set (``Erec`` is anti-monotone, so the candidate
  lattice is engine-order independent), hence equal
  ``recurrence_evaluations`` and ``candidate_patterns``;
* collecting telemetry must never change the mined patterns.
"""

import pytest

from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.datasets import paper_running_example

PRUNING_ENGINES = ("rp-growth", "rp-eclat", "rp-eclat-vec")


@pytest.fixture(scope="module")
def per_engine_runs():
    database = paper_running_example()
    runs = {}
    for engine in engine_names():
        found, telemetry = mine_recurring_patterns(
            database, per=2, min_ps=3, min_rec=2, engine=engine,
            observability=ObservabilityOptions(collect_stats=True),
        )
        runs[engine] = (found, telemetry)
    return runs


def _keys(patterns):
    return sorted(frozenset(p.items) for p in patterns)


class TestCounterParity:
    def test_all_engines_expose_counters(self, per_engine_runs):
        for engine, (_, telemetry) in per_engine_runs.items():
            assert telemetry.stats is not None, engine
            assert telemetry.stats.patterns_found == 8, engine

    def test_patterns_found_parity(self, per_engine_runs):
        counts = {
            engine: telemetry.stats.patterns_found
            for engine, (_, telemetry) in per_engine_runs.items()
        }
        assert len(set(counts.values())) == 1, counts

    def test_recurrence_evaluations_parity_across_pruning_engines(
        self, per_engine_runs
    ):
        evaluations = {
            engine: per_engine_runs[engine][1].stats.recurrence_evaluations
            for engine in PRUNING_ENGINES
        }
        assert len(set(evaluations.values())) == 1, evaluations
        candidates = {
            engine: per_engine_runs[engine][1].stats.candidate_patterns
            for engine in PRUNING_ENGINES
        }
        assert len(set(candidates.values())) == 1, candidates

    def test_pruning_engines_agree_on_first_scan(self, per_engine_runs):
        for engine in PRUNING_ENGINES:
            stats = per_engine_runs[engine][1].stats
            assert stats.candidate_items == 6, engine
            assert stats.pruned_items == 1, engine  # item g

    def test_naive_evaluates_every_occurring_itemset(self, per_engine_runs):
        stats = per_engine_runs["naive"][1].stats
        assert stats.erec_evaluations == 0  # no Erec bound at all
        assert stats.recurrence_evaluations > max(
            per_engine_runs[e][1].stats.recurrence_evaluations
            for e in PRUNING_ENGINES
        )

    def test_structure_counters_match_engine_family(self, per_engine_runs):
        assert per_engine_runs["rp-growth"][1].stats.initial_tree_nodes > 0
        assert per_engine_runs["rp-growth"][1].stats.tid_list_entries == 0
        for engine in ("rp-eclat", "rp-eclat-vec"):
            stats = per_engine_runs[engine][1].stats
            assert stats.initial_tree_nodes == 0, engine
            assert stats.tid_list_entries > 0, engine


class TestTelemetryTransparency:
    @pytest.mark.parametrize("engine", engine_names())
    def test_collect_stats_returns_identical_patterns(
        self, engine, per_engine_runs
    ):
        database = paper_running_example()
        plain = mine_recurring_patterns(
            database, per=2, min_ps=3, min_rec=2, engine=engine
        )
        observed, _ = per_engine_runs[engine]
        assert _keys(plain) == _keys(observed)
        for pattern in plain:
            twin = next(p for p in observed if p.items == pattern.items)
            assert twin.support == pattern.support
            assert twin.recurrence == pattern.recurrence
            assert twin.intervals == pattern.intervals

    @pytest.mark.parametrize("engine", engine_names())
    def test_spans_cover_the_engine_phases(self, engine, per_engine_runs):
        telemetry = per_engine_runs[engine][1]
        names = {s.name for root in telemetry.spans for _, s in root.walk()}
        assert "transform" in names
        assert "mine" in names
        if engine == "rp-growth":
            assert {"first_scan", "tree_build"} <= names
