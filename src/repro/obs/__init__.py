"""repro.obs — the observability layer.

Cross-cutting measurement for every mining path:

* :mod:`repro.obs.spans` — nested wall-clock spans, near-zero cost
  when no collector is active;
* :mod:`repro.obs.counters` — the shared :class:`MiningStats` counter
  protocol all engines populate;
* :mod:`repro.obs.memory` — opt-in ``tracemalloc`` peak sampling;
* :mod:`repro.obs.report` — sinks: summary tables, stdlib logging and
  JSON-lines traces whose run records follow the documented
  ``repro-run/v1`` schema;
* :mod:`repro.obs.metrics` — a process-safe counter/gauge/histogram
  registry with ``repro-metrics/v1`` snapshots and Prometheus-style
  text exposition;
* :mod:`repro.obs.progress` — live progress/ETA lines, worker
  heartbeat gauges and stale-worker reports for long runs;
* :mod:`repro.obs.analyze` — post-hoc trace analysis: span trees,
  phase aggregates, critical path and A/B comparison (the
  ``repro-mine trace`` subcommand).

Most users never touch this package directly — they pass
``observability=ObservabilityOptions(collect_stats=True)`` (and
friends) to :func:`repro.mine_recurring_patterns`, or ``--profile`` /
``--trace-out`` / ``--progress`` to the CLI — but the pieces are
public and composable.
"""

from repro.obs.analyze import (
    TraceAnalysis,
    analyze_trace,
    render_analysis,
    render_comparison,
    render_span_tree,
)
from repro.obs.counters import MiningStats, StatsSource
from repro.obs.memory import MemoryTracker, peak_memory
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsEmitter,
    MetricsRegistry,
    publish_mining_stats,
    render_prometheus,
    validate_metrics_record,
)
from repro.obs.progress import (
    MiningMonitor,
    ProgressReporter,
    ProgressTracker,
    StaleWorkerReport,
    monitor_from_options,
)
from repro.obs.report import (
    RUN_SCHEMA,
    SWEEP_SCHEMA,
    MiningTelemetry,
    TraceWriter,
    iter_trace,
    profile_call,
    read_trace,
    validate_run_record,
    validate_sweep_record,
)
from repro.obs.spans import Span, SpanCollector, current_collector, span

__all__ = [
    "MiningStats",
    "StatsSource",
    "MemoryTracker",
    "peak_memory",
    "METRICS_SCHEMA",
    "MetricsEmitter",
    "MetricsRegistry",
    "publish_mining_stats",
    "render_prometheus",
    "validate_metrics_record",
    "MiningMonitor",
    "ProgressReporter",
    "ProgressTracker",
    "StaleWorkerReport",
    "monitor_from_options",
    "TraceAnalysis",
    "analyze_trace",
    "render_analysis",
    "render_comparison",
    "render_span_tree",
    "RUN_SCHEMA",
    "SWEEP_SCHEMA",
    "MiningTelemetry",
    "TraceWriter",
    "iter_trace",
    "profile_call",
    "read_trace",
    "validate_run_record",
    "validate_sweep_record",
    "Span",
    "SpanCollector",
    "current_collector",
    "span",
]
