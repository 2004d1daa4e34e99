"""repro — recurring pattern mining in time series.

A production-quality reproduction of *"Discovering Recurring Patterns
in Time Series"* (R. U. Kiran, H. Shang, M. Toyoda, M. Kitsuregawa,
EDBT 2015): the recurring-pattern model (periodic-intervals,
periodic-support, recurrence), the RP-growth algorithm with the Erec
pruning bound, the baselines the paper compares against
(periodic-frequent patterns, Ma & Hellerstein p-patterns), and
synthetic stand-ins for the paper's workloads.

Quickstart
----------
>>> from repro import mine_recurring_patterns
>>> from repro.datasets import paper_running_example
>>> found = mine_recurring_patterns(
...     paper_running_example(), per=2, min_ps=3, min_rec=2)
>>> len(found)
8
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.condensed": (
        "closed_patterns", "maximal_patterns", "top_k_patterns",
    ),
    "repro.core.engines": (
        "EngineSpec", "engine_names", "get_engine", "register_engine",
    ),
    "repro.core.miner": ("execute_request", "mine_recurring_patterns"),
    "repro.core.options": ("ObservabilityOptions", "ResilienceOptions"),
    "repro.core.request": ("DatasetRef", "MiningRequest"),
    "repro.core.model": (
        "MiningParameters", "PeriodicInterval", "RecurringPattern",
        "RecurringPatternSet",
    ),
    "repro.core.naive": ("mine_recurring_patterns_naive",),
    "repro.core.noise": (
        "NoiseTolerantMiner", "mine_noise_tolerant_patterns",
    ),
    "repro.core.periods": ("suggest_per",),
    "repro.core.rp_growth": ("RPGrowth",),
    "repro.core.rules": (
        "RecurringRule", "SeasonalRecommender", "derive_rules",
    ),
    "repro.core.targeted": ("mine_patterns_containing",),
    "repro.obs.counters": ("MiningStats",),
    "repro.obs.report": ("MiningTelemetry",),
    "repro.obs.spans": ("SpanCollector", "span"),
    "repro.streaming.calendar": (
        "CalendarPeriod", "CalendarRecurrenceMonitor",
        "mine_calendar_patterns",
    ),
    "repro.streaming.monitor": ("StreamingRecurrenceMonitor",),
    "repro.streaming.registry": ("ShardedMonitorRegistry",),
    "repro.sweep.engine": ("SweepResult", "run_sweep"),
    "repro.sweep.plan": ("SweepPlan",),
    "repro.exceptions": (
        "ChunkFailedError", "DataFormatError", "EmptyDatabaseError",
        "ParameterError", "ReproError", "SearchSpaceError",
    ),
    "repro.timeseries.database": ("Transaction", "TransactionalDatabase"),
    "repro.timeseries.events": ("Event", "EventSequence"),
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Core mining
    "mine_recurring_patterns",
    "mine_recurring_patterns_naive",
    "MiningRequest",
    "DatasetRef",
    "execute_request",
    "RPGrowth",
    "MiningStats",
    "MiningParameters",
    "RecurringPattern",
    "RecurringPatternSet",
    "PeriodicInterval",
    # Extensions
    "mine_noise_tolerant_patterns",
    "NoiseTolerantMiner",
    "closed_patterns",
    "maximal_patterns",
    "top_k_patterns",
    "RecurringRule",
    "SeasonalRecommender",
    "derive_rules",
    "StreamingRecurrenceMonitor",
    "ShardedMonitorRegistry",
    "CalendarPeriod",
    "CalendarRecurrenceMonitor",
    "mine_calendar_patterns",
    "suggest_per",
    "mine_patterns_containing",
    # Configuration and the engine registry
    "ResilienceOptions",
    "ObservabilityOptions",
    "EngineSpec",
    "engine_names",
    "get_engine",
    "register_engine",
    # Threshold sweeps
    "SweepPlan",
    "SweepResult",
    "run_sweep",
    # Observability
    "MiningTelemetry",
    "SpanCollector",
    "span",
    # Data model
    "Event",
    "EventSequence",
    "Transaction",
    "TransactionalDatabase",
    # Errors
    "ReproError",
    "ParameterError",
    "DataFormatError",
    "EmptyDatabaseError",
    "SearchSpaceError",
    "ChunkFailedError",
]
