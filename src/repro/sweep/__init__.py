"""repro.sweep — the shared-scan threshold-sweep engine.

The paper's entire evaluation (Tables 5/7, Figures 7–9) is a grid of
``(per, minPS, minRec)`` threshold triples mined over the *same*
database.  Mining each cell independently repeats work that does not
depend on the thresholds at all; this package mines the whole grid
with three reuse layers instead:

1. **transform/scan sharing** — the EventSequence→TDB transform and
   the vertical item→ts-list map are computed once per database and
   shared by every cell;
2. **min_rec derivation** — for fixed ``(per, minPS)``, the result at
   a tighter ``minRec′`` is exactly the recurrence-filtered result of
   the loosest-``minRec`` cell (the derivation theorem; see
   :mod:`repro.sweep.engine`), so a whole ``minRec`` column costs one
   mine plus filters;
3. **cell scheduling** — cells that must be mined run through the
   existing :mod:`repro.parallel` resilience layer.

Entry points: build a :class:`~repro.sweep.plan.SweepPlan`, call
:func:`~repro.sweep.engine.run_sweep`, read the
:class:`~repro.sweep.engine.SweepResult` (or its ``repro-sweep/v1``
record).  The CLI spelling is ``repro-mine sweep``; ``repro-mine
bench`` and the Table 5/7 and Figure 7/9 benches run this engine and
render its result with :mod:`repro.bench.harness`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sweep.engine": ("SweepResult", "run_sweep"),
    "repro.sweep.plan": ("GridKey", "SweepPlan"),
})

__all__ = ["GridKey", "SweepPlan", "SweepResult", "run_sweep"]
