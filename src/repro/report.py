"""Markdown reports of mining runs.

``repro-mine mine --report out.md`` (and the
:func:`write_mining_report` API) produce a self-contained, diffable
record of a mining run: the input's shape, the thresholds, engine
statistics, the discovered patterns with their temporal metadata, a
timeline rendering, and the co-seasonal grouping — the artefact an
analyst files next to the data.
"""

from __future__ import annotations

import io
from typing import IO, Optional, Union

from repro.analysis import co_seasonal_groups, seasonality_score
from repro.core.model import RecurringPatternSet
from repro.obs.counters import MiningStats
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.stats import describe_database
from repro.viz import render_timeline

__all__ = ["render_mining_report", "write_mining_report"]


def render_mining_report(
    database: TransactionalDatabase,
    patterns: RecurringPatternSet,
    per: float,
    min_ps: Union[int, float],
    min_rec: int,
    engine: str = "rp-growth",
    stats: Optional[MiningStats] = None,
    max_patterns: int = 50,
    timeline_width: int = 60,
) -> str:
    """Render a mining run as a markdown document.

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> from repro import mine_recurring_patterns
    >>> db = paper_running_example()
    >>> found = mine_recurring_patterns(db, 2, 3, 2)
    >>> report = render_mining_report(db, found, 2, 3, 2)
    >>> "## Patterns" in report
    True
    """
    out = io.StringIO()
    write = out.write

    write("# Recurring-pattern mining report\n\n")
    write("## Input\n\n")
    if len(database):
        shape = describe_database(database)
        write("| statistic | value |\n|---|---|\n")
        for key, value in shape.as_rows():
            write(f"| {key} | {value} |\n")
    else:
        write("*(empty database)*\n")
    write("\n## Parameters\n\n")
    write(f"- `per` = {per:g}\n")
    write(f"- `minPS` = {min_ps}\n")
    write(f"- `minRec` = {min_rec}\n")
    write(f"- engine: `{engine}`\n")

    if stats is not None:
        write("\n## Mining statistics\n\n")
        write("| counter | value |\n|---|---|\n")
        write(f"| candidate items | {stats.candidate_items} |\n")
        write(f"| items pruned by Erec | {stats.pruned_items} |\n")
        write(f"| Erec evaluations | {stats.erec_evaluations} |\n")
        write(f"| candidate patterns expanded | {stats.candidate_patterns} |\n")
        write(f"| patterns found | {stats.patterns_found} |\n")

    write(f"\n## Patterns\n\n{len(patterns)} recurring patterns")
    shown = list(patterns)[:max_patterns]
    if len(shown) < len(patterns):
        write(f" (showing the first {len(shown)})")
    write(".\n\n")
    if shown:
        write(
            "| pattern | support | recurrence | seasonality "
            "| interesting periodic-intervals |\n|---|---|---|---|---|\n"
        )
        for pattern in shown:
            items = " ".join(str(i) for i in pattern.sorted_items())
            intervals = ", ".join(str(iv) for iv in pattern.intervals)
            score = seasonality_score(pattern, database)
            write(
                f"| {items} | {pattern.support} | {pattern.recurrence} "
                f"| {score:.2f} | {intervals} |\n"
            )

        if len(database):
            write("\n### Timeline\n\n```\n")
            write(
                render_timeline(
                    shown, database.start, database.end, width=timeline_width
                )
            )
            write("\n```\n")

        groups = co_seasonal_groups(shown, min_overlap=0.5)
        if any(len(group) > 1 for group in groups):
            write("\n### Co-seasonal groups\n\n")
            for group in groups:
                if len(group) > 1:
                    names = ", ".join(
                        " ".join(str(i) for i in p.sorted_items())
                        for p in group
                    )
                    write(f"- {names}\n")
    return out.getvalue()


def write_mining_report(
    target: Union[str, IO[str]],
    database: TransactionalDatabase,
    patterns: RecurringPatternSet,
    per: float,
    min_ps: Union[int, float],
    min_rec: int,
    engine: str = "rp-growth",
    stats: Optional[MiningStats] = None,
) -> None:
    """Write :func:`render_mining_report` output to a path or handle."""
    text = render_mining_report(
        database, patterns, per, min_ps, min_rec, engine=engine, stats=stats
    )
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
