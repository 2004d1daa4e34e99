"""Experiment harness for reproducing the paper's evaluation section.

* :mod:`repro.bench.workloads` — the three evaluation databases
  (Quest/T10I4, Shop-14-like, Twitter-like) at configurable scale,
  cached per configuration;
* :mod:`repro.bench.harness` — the Table 5/7 pivots and Figure 7/9
  panels of a :func:`repro.sweep.run_sweep` grid, and the Table 8
  model comparison;
* :mod:`repro.bench.reporting` — fixed-width ASCII tables and series
  renderers used by the benchmark scripts and the CLI.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.harness": (
        "ComparisonResult", "compare_models", "grid_figure", "grid_table",
    ),
    "repro.bench.reporting": ("format_series", "format_table"),
    "repro.bench.workloads": (
        "clickstream_workload", "quest_workload", "twitter_workload",
    ),
})

__all__ = [
    "ComparisonResult",
    "compare_models",
    "grid_figure",
    "grid_table",
    "format_table",
    "format_series",
    "quest_workload",
    "clickstream_workload",
    "twitter_workload",
]
