"""Baseline pattern-mining algorithms the paper compares against.

* :mod:`repro.baselines.fp_growth` — FP-growth frequent-itemset mining
  (Han et al. 2004), the substrate RP-growth's tree machinery descends
  from;
* :mod:`repro.baselines.apriori` — level-wise Apriori (Agrawal et al.
  1993), the substrate of periodic-first p-pattern mining;
* :mod:`repro.baselines.pf_growth` — periodic-frequent patterns
  (Tanbeer et al. 2009, PF-growth++ semantics of Kiran & Kitsuregawa
  2014);
* :mod:`repro.baselines.ppattern` — Ma & Hellerstein's p-patterns
  (ICDE 2001), periodic-first algorithm, including chi-square period
  detection in :mod:`repro.baselines.period_detection`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.apriori": ("mine_frequent_patterns_apriori",),
    "repro.baselines.async_periodic": (
        "AsyncPeriodicPattern", "mine_async_periodic_patterns",
    ),
    "repro.baselines.fp_growth": ("mine_frequent_patterns",),
    "repro.baselines.model": (
        "FrequentPattern", "PatternCollection", "PeriodicFrequentPattern",
        "PPattern",
    ),
    "repro.baselines.partial_periodic": (
        "PartialPeriodicPattern", "mine_partial_periodic_patterns",
    ),
    "repro.baselines.period_detection": ("detect_periods",),
    "repro.baselines.pf_growth": ("mine_periodic_frequent_patterns",),
    "repro.baselines.pf_tree": ("mine_periodic_frequent_patterns_tree",),
    "repro.baselines.ppattern": ("mine_p_patterns",),
})

__all__ = [
    "FrequentPattern",
    "PeriodicFrequentPattern",
    "PPattern",
    "PartialPeriodicPattern",
    "AsyncPeriodicPattern",
    "PatternCollection",
    "mine_frequent_patterns",
    "mine_frequent_patterns_apriori",
    "mine_periodic_frequent_patterns",
    "mine_periodic_frequent_patterns_tree",
    "mine_p_patterns",
    "mine_partial_periodic_patterns",
    "mine_async_periodic_patterns",
    "detect_periods",
]
