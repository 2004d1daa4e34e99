"""Core recurring-pattern model and the RP-growth mining algorithm.

This subpackage is the paper's primary contribution:

* :mod:`repro.core.model` — pattern/interval dataclasses and mining
  parameters (Definitions 3–11);
* :mod:`repro.core.intervals` — inter-arrival times, periodic-intervals,
  periodic-supports, recurrence and the Erec pruning bound;
* :mod:`repro.core.rp_list` — Algorithm 1 (candidate-item discovery);
* :mod:`repro.core.rp_tree` — Algorithms 2–3 (RP-tree construction);
* :mod:`repro.core.rp_growth` — Algorithms 4–5 (pattern-growth mining);
* :mod:`repro.core.rp_eclat_vec` — an independent vertical engine with
  the same pruning, used for cross-validation and ablations;
* :mod:`repro.core.naive` — an exhaustive, pruning-free reference miner;
* :mod:`repro.core.miner` — the public façade
  :func:`~repro.core.miner.mine_recurring_patterns`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.condensed": (
        "closed_patterns", "maximal_patterns", "top_k_patterns",
    ),
    "repro.core.intervals": (
        "estimated_recurrence", "inter_arrival_times", "interesting_intervals",
        "periodic_intervals", "recurrence",
    ),
    "repro.core.miner": ("mine_recurring_patterns",),
    "repro.core.periods": (
        "PerSuggestion", "significant_periods", "suggest_per",
    ),
    "repro.core.noise": (
        "FaultTolerantInterval", "NoiseTolerantMiner",
        "fault_tolerant_intervals", "fault_tolerant_recurrence",
        "mine_noise_tolerant_patterns",
    ),
    "repro.core.rules": (
        "RecurringRule", "SeasonalRecommender", "derive_rules",
    ),
    "repro.core.targeted": ("mine_patterns_containing",),
    "repro.core.model": (
        "MiningParameters", "PeriodicInterval", "RecurringPattern",
        "RecurringPatternSet",
    ),
    "repro.core.naive": ("mine_recurring_patterns_naive",),
    "repro.core.rp_growth": ("RPGrowth",),
    "repro.core.rp_list": ("RPList", "RPListEntry", "build_rp_list"),
})

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
