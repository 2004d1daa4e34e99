"""Core recurring-pattern model and the RP-growth mining algorithm.

This subpackage is the paper's primary contribution:

* :mod:`repro.core.model` — pattern/interval dataclasses and mining
  parameters (Definitions 3–11);
* :mod:`repro.core.intervals` — inter-arrival times, periodic-intervals,
  periodic-supports, recurrence and the Erec pruning bound;
* :mod:`repro.core.rp_list` — Algorithm 1 (candidate-item discovery);
* :mod:`repro.core.rp_tree` — Algorithms 2–3 (RP-tree construction);
* :mod:`repro.core.rp_growth` — Algorithms 4–5 (pattern-growth mining);
* :mod:`repro.core.rp_eclat` — an independent vertical engine with the
  same pruning, used for cross-validation and ablations;
* :mod:`repro.core.naive` — an exhaustive, pruning-free reference miner;
* :mod:`repro.core.miner` — the public façade
  :func:`~repro.core.miner.mine_recurring_patterns`.
"""

from repro.core.condensed import (
    closed_patterns,
    maximal_patterns,
    top_k_patterns,
)
from repro.core.intervals import (
    estimated_recurrence,
    inter_arrival_times,
    interesting_intervals,
    periodic_intervals,
    recurrence,
)
from repro.core.miner import mine_recurring_patterns
from repro.core.periods import (
    PerSuggestion,
    significant_periods,
    suggest_per,
)
from repro.core.noise import (
    FaultTolerantInterval,
    NoiseTolerantMiner,
    fault_tolerant_intervals,
    fault_tolerant_recurrence,
    mine_noise_tolerant_patterns,
)
from repro.core.rules import RecurringRule, SeasonalRecommender, derive_rules
from repro.core.targeted import mine_patterns_containing
from repro.core.model import (
    MiningParameters,
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.core.naive import mine_recurring_patterns_naive
from repro.core.rp_eclat import RPEclat
from repro.core.rp_growth import RPGrowth
from repro.core.rp_list import RPList, RPListEntry, build_rp_list

__all__ = [
    "inter_arrival_times",
    "periodic_intervals",
    "interesting_intervals",
    "recurrence",
    "estimated_recurrence",
    "PeriodicInterval",
    "RecurringPattern",
    "RecurringPatternSet",
    "MiningParameters",
    "RPList",
    "RPListEntry",
    "build_rp_list",
    "RPGrowth",
    "RPEclat",
    "mine_recurring_patterns",
    "mine_recurring_patterns_naive",
    # Extensions
    "closed_patterns",
    "maximal_patterns",
    "top_k_patterns",
    "FaultTolerantInterval",
    "fault_tolerant_intervals",
    "fault_tolerant_recurrence",
    "NoiseTolerantMiner",
    "mine_noise_tolerant_patterns",
    "RecurringRule",
    "SeasonalRecommender",
    "derive_rules",
    "PerSuggestion",
    "suggest_per",
    "significant_periods",
    "mine_patterns_containing",
]
