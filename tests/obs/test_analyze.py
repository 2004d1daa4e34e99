"""Tests for post-hoc trace analysis (repro.obs.analyze)."""

import io

from repro import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.datasets import paper_running_example
from repro.obs.analyze import (
    TraceAnalysis,
    analyze_trace,
    render_analysis,
    render_comparison,
    render_span_tree,
)
from repro.obs.report import iter_trace
from repro.sweep import SweepPlan, run_sweep


def _run_trace(engine="rp-growth"):
    stream = io.StringIO()
    mine_recurring_patterns(
        paper_running_example(), per=2, min_ps=3, min_rec=2,
        engine=engine,
        observability=ObservabilityOptions(
            trace=stream, progress=False
        ),
    )
    stream.seek(0)
    return stream


def _run_record(*spans):
    """A minimal run record carrying ``spans`` (``Span.as_dict`` form)."""
    return {
        "kind": "run", "engine": "rp-growth",
        "seconds": sum(root["seconds"] for root in spans),
        "spans": list(spans),
    }


class TestIterTrace:
    def test_streams_lazily_from_handle(self):
        stream = io.StringIO('{"a": 1}\n\n{"b": 2}\n')
        iterator = iter_trace(stream)
        assert next(iterator) == {"a": 1}
        assert next(iterator) == {"b": 2}

    def test_path_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "span", "name": "x"}\n')
        assert list(iter_trace(str(path))) == [
            {"kind": "span", "name": "x"}
        ]

    def test_read_trace_matches_iter_trace(self, tmp_path):
        from repro.obs.report import read_trace

        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n')
        assert read_trace(str(path)) == list(iter_trace(str(path)))


class TestTraceAnalysis:
    def test_buckets_by_kind(self):
        # A traced run is one line: its run record, spans included.
        analysis = analyze_trace(_run_trace())
        assert len(analysis.runs) == 1
        assert analysis.record_count == 1
        assert analysis.other == []

    def test_phase_totals_count_each_run_span_once(self):
        analysis = analyze_trace(_run_trace())
        totals = analysis.phase_totals()
        run = analysis.runs[0]
        recorded = {
            payload["name"]: payload["seconds"]
            for payload in run["spans"]
        }
        assert set(totals) == set(recorded)
        for name, seconds in recorded.items():
            assert totals[name] == seconds  # not doubled

    def test_critical_path_descends_max_child(self):
        records = [_run_record({
            "name": "run", "seconds": 3.0,
            "children": [
                {"name": "fast", "seconds": 0.5},
                {"name": "slow", "seconds": 2.5,
                 "children": [{"name": "inner", "seconds": 2.0}]},
            ],
        })]
        analysis = TraceAnalysis.from_records(records)
        assert [name for name, _ in analysis.critical_path()] == [
            "run", "slow", "inner",
        ]

    def test_sweep_record_cells_become_roots(self):
        stream = io.StringIO()
        run_sweep(
            paper_running_example(),
            SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2)),
            observability=ObservabilityOptions(
                trace=stream, progress=False
            ),
        )
        stream.seek(0)
        analysis = analyze_trace(stream)
        assert len(analysis.sweeps) == 1
        roots = analysis.span_roots()
        assert len(roots) == 2
        assert any("derived" in root.name for root in roots)

    def test_total_seconds_from_records(self):
        analysis = analyze_trace(_run_trace())
        assert analysis.total_seconds() == analysis.runs[0]["seconds"]


class TestRendering:
    def test_render_analysis_has_all_sections(self):
        text = render_analysis(analyze_trace(_run_trace()))
        assert "1 run" in text
        assert "span tree:" in text
        assert "per-phase aggregate" in text
        assert "critical path:" in text
        assert "8 patterns" in text

    def test_aggregate_shares_count_nested_time_once(self):
        analysis = TraceAnalysis.from_records([_run_record({
            "name": "mine", "seconds": 2.0,
            "children": [{"name": "chunk[0]", "seconds": 1.5}],
        })])
        assert analysis.phase_totals(exclusive=True) == {
            "mine": 0.5, "chunk[0]": 1.5,
        }
        # --compare keeps inclusive totals.
        assert analysis.phase_totals() == {"mine": 2.0, "chunk[0]": 1.5}
        text = render_analysis(analysis)
        assert "  chunk[0]  1.500000s ( 75.0%)" in text  # the span tree
        aggregate = text.split("per-phase aggregate")[1]
        assert "chunk[0] |     1.500000 | 75.0%" in aggregate
        assert "    mine |     0.500000 | 25.0%" in aggregate

    def test_sweep_cell_roots_keep_only_their_remainder(self):
        stream = io.StringIO()
        run_sweep(
            paper_running_example(),
            SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2)),
            observability=ObservabilityOptions(
                trace=stream, progress=False
            ),
        )
        stream.seek(0)
        analysis = analyze_trace(stream)
        roots = analysis.span_roots()
        totals = analysis.phase_totals(exclusive=True)
        for root in roots:
            nested = sum(child.seconds for child in root.children)
            assert abs(totals[root.name] - (root.seconds - nested)) < 1e-12
        grand = sum(root.seconds for root in roots)
        assert abs(sum(totals.values()) - grand) < 1e-9

    def test_render_span_tree_indents_and_shares(self):
        records = [_run_record({
            "name": "run", "seconds": 2.0,
            "children": [{"name": "mine", "seconds": 1.0}],
        })]
        roots = TraceAnalysis.from_records(records).span_roots()
        text = render_span_tree(roots)
        assert "run  2.000000s (100.0%)" in text
        assert "  mine  1.000000s ( 50.0%)" in text

    def test_render_comparison_deltas(self):
        a = analyze_trace(_run_trace("rp-growth"))
        b = analyze_trace(_run_trace("rp-eclat-vec"))
        text = render_comparison(a, b, label_a="growth",
                                 label_b="eclat")
        assert "growth (s)" in text and "eclat (s)" in text
        assert "%" in text
        assert "patterns: growth=8 eclat=8" in text
        # phases unique to one side render a dash, delta n/a
        assert "n/a" in text

    def test_render_comparison_flags_pattern_mismatch(self):
        a = analyze_trace(_run_trace())
        records = [{
            "schema": "repro-run/v1", "kind": "run",
            "engine": "rp-growth", "params": {},
            "patterns_found": 3, "seconds": 1.0,
            "counters": {}, "spans": [],
        }]
        b = TraceAnalysis.from_records(records, source="other")
        assert "DIFFER" in render_comparison(a, b)

    def test_metrics_snapshot_rendered(self):
        records = [{
            "schema": "repro-metrics/v1", "kind": "metrics",
            "at_unix": 0.0,
            "counters": [
                {"name": "repro_runs_total",
                 "labels": {"engine": "rp-growth"}, "value": 2.0},
            ],
            "gauges": [], "histograms": [],
        }]
        text = render_analysis(TraceAnalysis.from_records(records))
        assert "final metrics snapshot" in text
        assert "repro_runs_total{engine=rp-growth}" in text
