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

from repro.core.condensed import (
    closed_patterns,
    maximal_patterns,
    top_k_patterns,
)
from repro.core.engines import (
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
)
from repro.core.miner import execute_request, mine_recurring_patterns
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.core.request import DatasetRef, MiningRequest
from repro.core.model import (
    MiningParameters,
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.core.naive import mine_recurring_patterns_naive
from repro.core.noise import NoiseTolerantMiner, mine_noise_tolerant_patterns
from repro.core.periods import suggest_per
from repro.core.rp_eclat import RPEclat
from repro.core.rp_growth import RPGrowth
from repro.core.rules import RecurringRule, SeasonalRecommender, derive_rules
from repro.core.targeted import mine_patterns_containing
from repro.obs import MiningStats, MiningTelemetry, SpanCollector, span
from repro.parallel import ParallelMiner
from repro.streaming import (
    CalendarPeriod,
    CalendarRecurrenceMonitor,
    ShardedMonitorRegistry,
    StreamingRecurrenceMonitor,
    mine_calendar_patterns,
)
from repro.sweep import SweepPlan, SweepResult, run_sweep
from repro.exceptions import (
    ChunkFailedError,
    DataFormatError,
    EmptyDatabaseError,
    ParameterError,
    ReproError,
    SearchSpaceError,
)
from repro.timeseries.database import Transaction, TransactionalDatabase
from repro.timeseries.events import Event, EventSequence

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
    "RPEclat",
    "ParallelMiner",
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
