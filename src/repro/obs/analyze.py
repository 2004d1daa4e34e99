"""Post-hoc analysis of repro JSON-lines traces.

This is the engine behind the ``repro-mine trace`` subcommand: given a
trace produced anywhere in the toolchain — ``repro-run/v1`` run records
(façade ``--trace-out``), ``repro-sweep/v1`` sweep records,
``repro-qa/v1`` gate reports and ``repro-metrics/v1`` snapshots — it
answers the questions a human asks after a long run:

* *where did the time go?* — the span tree and per-phase aggregates;
* *what was the bottleneck?* — the critical path (the chain of
  largest children from the slowest root);
* *did run B actually get faster?* — A/B comparison with percent
  deltas per phase.

Everything reads through :func:`~repro.obs.report.iter_trace`, so a
multi-gigabyte nightly trace streams in O(longest line) memory; only
the aggregates are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.report import iter_trace
from repro.obs.spans import Span

__all__ = [
    "TraceAnalysis",
    "analyze_trace",
    "render_analysis",
    "render_comparison",
    "render_span_tree",
]


@dataclass
class TraceAnalysis:
    """Aggregated view of one JSON-lines trace.

    Record payloads are bucketed by ``kind``; span trees are rebuilt
    from the run and sweep records, which carry each run's spans once.
    """

    source: Optional[str] = None
    runs: List[Dict[str, object]] = field(default_factory=list)
    sweeps: List[Dict[str, object]] = field(default_factory=list)
    qa_reports: List[Dict[str, object]] = field(default_factory=list)
    metrics: List[Dict[str, object]] = field(default_factory=list)
    other: List[Dict[str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[Dict[str, object]],
        source: Optional[str] = None,
    ) -> "TraceAnalysis":
        """Bucket a stream of trace records (generators welcome)."""
        analysis = cls(source=source)
        for record in records:
            kind = record.get("kind")
            schema = record.get("schema")
            if kind == "run":
                analysis.runs.append(record)
            elif kind == "sweep":
                analysis.sweeps.append(record)
            elif kind == "qa-report" or (
                isinstance(schema, str) and schema.startswith("repro-qa/")
            ):
                analysis.qa_reports.append(record)
            elif kind == "metrics" or schema == METRICS_SCHEMA:
                analysis.metrics.append(record)
            else:
                analysis.other.append(record)
        return analysis

    @property
    def record_count(self) -> int:
        return (
            len(self.runs) + len(self.sweeps) + len(self.qa_reports)
            + len(self.metrics) + len(self.other)
        )

    # ------------------------------------------------------------------
    # Span trees
    # ------------------------------------------------------------------
    def span_roots(self) -> List[Span]:
        """Every span tree in the trace: run-record spans, then one
        root per sweep cell holding that cell's spans."""
        roots: List[Span] = []
        for run in self.runs:
            for payload in run.get("spans", ()):  # type: ignore[union-attr]
                roots.append(Span.from_dict(payload))
        for sweep in self.sweeps:
            for cell in sweep.get("cells", ()):  # type: ignore[union-attr]
                label = _cell_label(cell)
                children = [
                    Span.from_dict(payload)
                    for payload in cell.get("spans", ())
                ]
                roots.append(
                    Span(
                        name=label,
                        started=0.0,
                        seconds=float(cell.get("seconds", 0.0)),
                        children=children,
                    )
                )
        return roots

    def phase_totals(self, exclusive: bool = False) -> Dict[str, float]:
        """Summed seconds per span name, first-seen order.

        By default each span counts its whole (inclusive) time, so a
        name nested inside another is counted at both levels; this is
        what ``--compare`` sets side by side.  With ``exclusive=True``
        each span counts only its self time (its seconds minus its
        children's), so the totals add up to the roots' seconds.
        """
        totals: Dict[str, float] = {}
        for root in self.span_roots():
            for _, item in root.walk():
                seconds = item.seconds
                if exclusive:
                    seconds -= sum(child.seconds for child in item.children)
                totals[item.name] = totals.get(item.name, 0.0) + seconds
        return totals

    def total_seconds(self) -> float:
        """Wall-clock accounted by the trace's top-level records."""
        total = sum(float(r.get("seconds", 0.0)) for r in self.runs)
        total += sum(float(r.get("seconds", 0.0)) for r in self.sweeps)
        total += sum(
            float(r.get("seconds", 0.0)) for r in self.qa_reports
        )
        return total

    def critical_path(self) -> List[Tuple[str, float]]:
        """The chain of largest children from the slowest root.

        The first element is the most expensive top-level span; each
        subsequent element is the most expensive child of the previous
        one.  On a parallel run this names the chunk that bounded the
        wall-clock — the LPT schedule's longest bar.
        """
        roots = self.span_roots()
        if not roots:
            return []
        node = max(roots, key=lambda item: item.seconds)
        path = [(node.name, node.seconds)]
        while node.children:
            node = max(node.children, key=lambda item: item.seconds)
            path.append((node.name, node.seconds))
        return path


def analyze_trace(source: Union[str, IO[str]]) -> TraceAnalysis:
    """Stream-parse a JSON-lines trace into a :class:`TraceAnalysis`."""
    label = source if isinstance(source, str) else getattr(
        source, "name", None
    )
    return TraceAnalysis.from_records(
        iter_trace(source),
        source=label if isinstance(label, str) else None,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_span_tree(roots: Iterable[Span]) -> str:
    """Indented span tree with per-span seconds and share of its root."""
    lines: List[str] = []
    for root in roots:
        denominator = root.seconds if root.seconds > 0 else None
        for depth, item in root.walk():
            share = (
                f" ({item.seconds / denominator * 100:5.1f}%)"
                if denominator is not None
                else ""
            )
            lines.append(
                f"{'  ' * depth}{item.name}  {item.seconds:.6f}s{share}"
            )
    return "\n".join(lines)


def render_analysis(analysis: TraceAnalysis) -> str:
    """The full human-readable report for one trace."""
    from repro.bench.reporting import format_table  # avoid cycle

    sections: List[str] = []
    header = analysis.source or "trace"
    sections.append(
        f"{header}: {analysis.record_count} records — "
        f"{len(analysis.runs)} run, {len(analysis.sweeps)} sweep, "
        f"{len(analysis.qa_reports)} qa, {len(analysis.metrics)} metrics"
    )
    for run in analysis.runs:
        engine = run.get("engine", "?")
        sections.append(
            f"run[{engine}]: {run.get('patterns_found', '?')} patterns "
            f"in {float(run.get('seconds', 0.0)):.3f}s "
            f"params={run.get('params')}"
        )
    for sweep in analysis.sweeps:
        counters = sweep.get("counters", {})
        sections.append(
            f"sweep[{sweep.get('engine', '?')}]: "
            f"{counters.get('cells_total', '?')} cells "  # type: ignore[union-attr]
            f"({counters.get('cells_mined', '?')} mined, "  # type: ignore[union-attr]
            f"{counters.get('cells_derived', '?')} derived) "  # type: ignore[union-attr]
            f"in {float(sweep.get('seconds', 0.0)):.3f}s"
        )
    for report in analysis.qa_reports:
        verdict = "PASS" if report.get("passed") else "FAIL"
        sections.append(
            f"qa: {verdict} in {float(report.get('seconds', 0.0)):.3f}s "
            f"(budget {float(report.get('budget_seconds', 0.0)):.1f}s, "
            f"seed {report.get('seed', '?')})"
        )

    roots = analysis.span_roots()
    if roots:
        sections.append("span tree:\n" + render_span_tree(roots))

    # Self time per name: the shares add to 100% of the roots' total.
    # A sweep cell's synthetic root keeps only what its spans miss.
    totals = analysis.phase_totals(exclusive=True)
    if totals:
        grand = sum(root.seconds for root in roots)
        rows = [
            [
                name,
                f"{seconds:.6f}",
                f"{seconds / grand * 100:.1f}%" if grand > 0 else "",
            ]
            for name, seconds in sorted(
                totals.items(), key=lambda pair: -pair[1]
            )
        ]
        sections.append(
            format_table(
                ["phase", "self seconds", "share"], rows,
                title="per-phase aggregate",
            )
        )

    path = analysis.critical_path()
    if path:
        sections.append(
            "critical path: "
            + " -> ".join(
                f"{name} ({seconds:.6f}s)" for name, seconds in path
            )
        )

    if analysis.metrics:
        last = analysis.metrics[-1]
        rows = [
            [
                _metric_label(entry),
                _format_value(entry.get("value")),
            ]
            for entry in last.get("counters", ())  # type: ignore[union-attr]
        ]
        if rows:
            sections.append(
                format_table(
                    ["counter", "value"], rows,
                    title=(
                        f"final metrics snapshot "
                        f"({len(analysis.metrics)} snapshots)"
                    ),
                )
            )
        stale = [
            entry
            for snapshot in analysis.metrics
            for entry in snapshot.get("counters", ())  # type: ignore[union-attr]
            if entry.get("name") == "repro_worker_stale_total"
        ]
        if stale:
            sections.append(
                "stale workers were reported — check the supervisor "
                "notes above the deadline faults"
            )
    return "\n\n".join(sections)


def render_comparison(
    a: TraceAnalysis,
    b: TraceAnalysis,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Per-phase A/B table with percent deltas (B relative to A)."""
    from repro.bench.reporting import format_table  # avoid cycle

    totals_a = a.phase_totals()
    totals_b = b.phase_totals()
    names = list(totals_a)
    names.extend(
        name for name in totals_b if name not in totals_a
    )
    rows: List[List[object]] = []
    for name in names:
        rows.append(
            _delta_row(name, totals_a.get(name), totals_b.get(name))
        )
    rows.append(
        _delta_row("total", a.total_seconds(), b.total_seconds())
    )
    patterns_a = sum(
        int(run.get("patterns_found", 0)) for run in a.runs  # type: ignore[arg-type]
    )
    patterns_b = sum(
        int(run.get("patterns_found", 0)) for run in b.runs  # type: ignore[arg-type]
    )
    table = format_table(
        ["phase", f"{label_a} (s)", f"{label_b} (s)", "delta"],
        rows,
        title=f"{label_a} = {a.source or '?'}  vs  "
        f"{label_b} = {b.source or '?'}",
    )
    if patterns_a or patterns_b:
        marker = "" if patterns_a == patterns_b else "  <-- DIFFER"
        table += (
            f"\npatterns: {label_a}={patterns_a} "
            f"{label_b}={patterns_b}{marker}"
        )
    return table


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _cell_label(cell: Dict[str, object]) -> str:
    params = cell.get("params")
    if isinstance(params, dict):
        label = (
            f"cell[per={params.get('per')},"
            f"minPS={params.get('min_ps')},"
            f"minRec={params.get('min_rec')}]"
        )
    else:
        label = "cell"
    if cell.get("derived"):
        label += " (derived)"
    return label


def _metric_label(entry: Dict[str, object]) -> str:
    labels = entry.get("labels")
    if isinstance(labels, dict) and labels:
        inner = ",".join(
            f"{key}={value}" for key, value in sorted(labels.items())
        )
        return f"{entry.get('name')}{{{inner}}}"
    return str(entry.get("name"))


def _format_value(value: object) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _delta_row(
    name: str, seconds_a: Optional[float], seconds_b: Optional[float]
) -> List[object]:
    cell_a = f"{seconds_a:.6f}" if seconds_a is not None else "-"
    cell_b = f"{seconds_b:.6f}" if seconds_b is not None else "-"
    if seconds_a and seconds_b is not None and seconds_a > 0:
        delta = (seconds_b - seconds_a) / seconds_a * 100.0
        sign = "+" if delta >= 0 else ""
        return [name, cell_a, cell_b, f"{sign}{delta:.1f}%"]
    return [name, cell_a, cell_b, "n/a"]
