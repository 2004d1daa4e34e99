"""The paper's evaluation artefacts, rendered from sweeps and models.

* :func:`grid_table` — the Table 5/7 pivot of one
  :class:`~repro.sweep.SweepResult`, pattern counts or seconds;
* :func:`grid_figure` — one Figure 7/9 panel of the same result;
* :func:`compare_models` — the model comparison of Table 8
  (periodic-frequent vs recurring vs p-patterns, counts and longest
  pattern).

The grids come from :func:`repro.sweep.run_sweep`.  A count grid keeps
the default ``derive_min_rec=True``: each ``(per, minPS)`` column is
mined once and its tighter ``minRec`` cells are filtered from it (the
derivation theorem — see :mod:`repro.sweep.engine`).  A timed grid
passes ``derive_min_rec=False``, so each reported cell is a real,
measured mine, comparable across the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Union

from repro._validation import Number
from repro.baselines.pf_growth import mine_periodic_frequent_patterns
from repro.baselines.ppattern import mine_p_patterns
from repro.bench.reporting import format_series, format_table
from repro.core.miner import mine_recurring_patterns
from repro.sweep import GridKey, SweepResult
from repro.timeseries.database import TransactionalDatabase

__all__ = [
    "ComparisonResult",
    "compare_models",
    "grid_figure",
    "grid_table",
]


def _cell_values(
    sweep: SweepResult, metric: str
) -> Mapping[GridKey, Union[int, float]]:
    if metric == "count":
        return sweep.counts()
    if metric == "seconds":
        return sweep.seconds_by_cell
    raise ValueError(f"metric must be 'count' or 'seconds', got {metric!r}")


def grid_table(sweep: SweepResult, metric: str = "count") -> str:
    """Render in the layout of Tables 5/7: one row per minPS, one
    column per (minRec, per) combination."""
    plan = sweep.plan
    values = _cell_values(sweep, metric)
    headers = ["minPS"] + [
        f"rec={min_rec},per={per:g}"
        for min_rec in plan.min_recs
        for per in plan.pers
    ]
    rows = [
        [_format_threshold(min_ps)] + [
            values[(per, min_ps, min_rec)]
            for min_rec in plan.min_recs
            for per in plan.pers
        ]
        for min_ps in plan.min_ps_values
    ]
    return format_table(
        headers, rows, title=f"{sweep.dataset or ''}: {metric}"
    )


def grid_figure(
    sweep: SweepResult, min_rec: int, metric: str = "count"
) -> str:
    """Render one Figure 7/9 panel: value vs minPS, a series per per."""
    plan = sweep.plan
    values = _cell_values(sweep, metric)
    series = {
        f"per={per:g}": [
            values[(per, min_ps, min_rec)] for min_ps in plan.min_ps_values
        ]
        for per in plan.pers
    }
    return format_series(
        "minPS",
        [_format_threshold(v) for v in plan.min_ps_values],
        series,
        title=f"{sweep.dataset or ''}: {metric} (minRec={min_rec})",
    )


@dataclass
class ComparisonResult:
    """The Table 8 comparison on one dataset.

    For each model: number of patterns found ('I' in the paper) and the
    longest pattern length ('II').
    """

    dataset: str
    counts: Dict[str, int]
    max_lengths: Dict[str, int]

    MODELS = ("periodic-frequent", "recurring", "p-pattern")

    def as_table(self) -> str:
        """Render the comparison in the paper's Table 8 layout."""
        rows = [
            [model, self.counts[model], self.max_lengths[model]]
            for model in self.MODELS
        ]
        return format_table(
            ["model", "patterns (I)", "max length (II)"],
            rows,
            title=f"{self.dataset}: model comparison (Table 8)",
        )


def compare_models(
    database: TransactionalDatabase,
    dataset: str,
    per: Number,
    min_sup: Union[int, float],
    min_ps: Union[int, float],
    min_rec: int = 1,
) -> ComparisonResult:
    """Reproduce one Table 8 row group.

    Following Section 5.4: ``per`` is shared by all three models
    (maximum periodicity for periodic-frequent patterns, periodic gap
    threshold for recurring and p-patterns); ``min_sup`` parameterises
    the PF and p-pattern miners; ``min_ps``/``min_rec`` the recurring
    miner.
    """
    pf = mine_periodic_frequent_patterns(database, min_sup, per)
    recurring = mine_recurring_patterns(
        database, per, min_ps, min_rec, engine="rp-growth"
    )
    p_patterns = mine_p_patterns(database, per, min_sup)
    return ComparisonResult(
        dataset=dataset,
        counts={
            "periodic-frequent": len(pf),
            "recurring": len(recurring),
            "p-pattern": len(p_patterns),
        },
        max_lengths={
            "periodic-frequent": pf.max_length(),
            "recurring": recurring.max_length(),
            "p-pattern": p_patterns.max_length(),
        },
    )


def _format_threshold(value: Union[int, float]) -> str:
    if isinstance(value, float):
        return f"{value * 100:g}%"
    return str(value)
