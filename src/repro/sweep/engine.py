"""The shared-scan sweep executor and its result object.

:func:`run_sweep` mines a :class:`~repro.sweep.plan.SweepPlan` grid
over one database with work reuse instead of independent façade calls.

**The derivation theorem (reuse layer 2).**  Fix ``per`` and
``minPS``.  A pattern's interesting periodic-intervals (Definitions
5–8) are computed from its point sequence using only ``per`` and
``minPS``; ``minRec`` enters Definition 9 solely as the final floor
``Rec(X) ≥ minRec`` on the *count* of those intervals.  Therefore, for
any ``minRec′ ≥ minRec``::

    Recurring(per, minPS, minRec′)
        = {X ∈ Recurring(per, minPS, minRec) : Rec(X) ≥ minRec′}

— and every surviving pattern carries *identical* support, recurrence
and interval metadata, because none of those depend on ``minRec``.
Each :class:`~repro.core.model.RecurringPattern` already stores its
recurrence, so deriving a tighter cell is a pure filter
(:meth:`RecurringPatternSet.filter`), no re-scan and no re-mine.  The
theorem is property-tested against the naive oracle in
``tests/sweep/test_derivation_property.py``.

**Scan sharing (reuse layer 1).**  The EventSequence→TDB transform
runs once and its database is shared by every mined cell.  The views a
cell's engine reads — the columnar view
(:meth:`~repro.timeseries.database.TransactionalDatabase.columnar`) of
``rp-eclat-vec``, the item→ts-list map
(:meth:`~repro.timeseries.database.TransactionalDatabase.item_timestamps`)
of a ``jobs > 1`` rp-growth scan — are threshold-independent and
cached on the immutable database, so the first cell that reads one
builds it and no other cell pays for it again.

**Cell scheduling (reuse layer 3).**  Cells that must actually be
mined run through the same engine dispatch as the façade — including
the :mod:`repro.parallel` resilience layer when
``plan.jobs > 1`` (per-cell timeout/retry/fallback via
``plan.resilience``).

The result is **byte-identical** to mining every cell independently
(asserted across the full engine × jobs matrix by
``tests/sweep/test_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro._validation import Number
from repro.core.miner import _as_database, run_request
from repro.core.model import RecurringPatternSet
from repro.core.options import ObservabilityOptions
from repro.obs.counters import MiningStats
from repro.obs.progress import open_monitor
from repro.obs.report import (
    SWEEP_SCHEMA,
    TraceWriter,
    validate_sweep_record,
)
from repro.obs.spans import Span, SpanCollector, span
from repro.sweep.plan import GridKey, SweepPlan
from repro.timeseries.database import TransactionalDatabase

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """Everything one shared-scan sweep produced and measured.

    ``patterns[key]`` is byte-identical to what an independent
    ``mine_recurring_patterns`` call for that cell returns; the reuse
    counters (``cells_mined`` / ``cells_derived`` / ``scans_shared``)
    say how the sweep earned its speedup.  ``seconds_by_cell`` is the
    cost actually paid per cell — a mine for mined cells (best of
    ``plan.repeats``), a recurrence filter for derived ones — and
    ``stats`` counts the same work, so a derived cell's engine
    counters are zero.
    """

    plan: SweepPlan
    dataset: Optional[str] = None
    patterns: Dict[GridKey, RecurringPatternSet] = field(
        default_factory=dict
    )
    stats: Dict[GridKey, MiningStats] = field(default_factory=dict)
    seconds_by_cell: Dict[GridKey, float] = field(default_factory=dict)
    span_trees: Dict[GridKey, Tuple[Span, ...]] = field(
        default_factory=dict
    )
    derived_from: Dict[GridKey, Optional[GridKey]] = field(
        default_factory=dict
    )
    cells_mined: int = 0
    cells_derived: int = 0
    scans_shared: int = 0
    transform_seconds: float = 0.0
    seconds: float = 0.0
    memory_peak_bytes: Optional[int] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def cells_total(self) -> int:
        return len(self.patterns)

    def pattern_set(
        self, per: Number, min_ps: Union[int, float], min_rec: int
    ) -> RecurringPatternSet:
        """The mined (or derived) pattern set of one grid cell."""
        return self.patterns[(per, min_ps, min_rec)]

    def counts(self) -> Dict[GridKey, int]:
        """Pattern count per cell (the Table 5 / Figure 7 quantity)."""
        return {key: len(found) for key, found in self.patterns.items()}

    def phase_breakdown(
        self, per: Number, min_ps: Union[int, float], min_rec: int
    ) -> Dict[str, float]:
        """Seconds per phase of one cell (best execution)."""
        return {
            root.name: root.seconds
            for root in self.span_trees.get((per, min_ps, min_rec), ())
        }

    # ------------------------------------------------------------------
    # The repro-sweep/v1 record
    # ------------------------------------------------------------------
    def as_record(self) -> Dict[str, object]:
        """The ``repro-sweep/v1`` record (see docs/observability.md)."""
        cells: List[Dict[str, object]] = []
        for key in self.plan.cells():
            per, min_ps, min_rec = key
            base = self.derived_from.get(key)
            cell: Dict[str, object] = {
                "params": {
                    "per": per, "min_ps": min_ps, "min_rec": min_rec,
                },
                "patterns_found": len(self.patterns[key]),
                "seconds": self.seconds_by_cell[key],
                "derived": base is not None,
                "counters": self.stats[key].as_dict(),
                "spans": [
                    root.as_dict() for root in self.span_trees.get(key, ())
                ],
            }
            if base is not None:
                cell["derived_from"] = {
                    "per": base[0], "min_ps": base[1], "min_rec": base[2],
                }
            cells.append(cell)
        record: Dict[str, object] = {
            "schema": SWEEP_SCHEMA,
            "kind": "sweep",
            "engine": self.plan.engine,
            "grid": {
                "pers": list(self.plan.pers),
                "min_ps_values": list(self.plan.min_ps_values),
                "min_recs": list(self.plan.min_recs),
            },
            "jobs": self.plan.jobs,
            "seconds": self.seconds,
            "transform_seconds": self.transform_seconds,
            "counters": {
                "cells_total": self.cells_total,
                "cells_mined": self.cells_mined,
                "cells_derived": self.cells_derived,
                "scans_shared": self.scans_shared,
            },
            "cells": cells,
        }
        if self.dataset is not None:
            record["dataset"] = self.dataset
        if self.memory_peak_bytes is not None:
            record["memory_peak_bytes"] = self.memory_peak_bytes
        return record

    def summary_line(self) -> str:
        """One human-readable line about the reuse the sweep achieved."""
        return (
            f"{self.cells_total} cells in {self.seconds:.3f}s — "
            f"{self.cells_mined} mined, {self.cells_derived} derived "
            f"by the min_rec theorem, {self.scans_shared} shared scans"
        )


def run_sweep(
    data: Union[TransactionalDatabase, "object"],
    plan: SweepPlan,
    *,
    dataset: Optional[str] = None,
    observability: Optional[ObservabilityOptions] = None,
) -> SweepResult:
    """Mine every cell of ``plan`` over ``data`` with work reuse.

    Parameters
    ----------
    data:
        An :class:`~repro.timeseries.events.EventSequence` or a
        :class:`~repro.timeseries.database.TransactionalDatabase`.
        The transform to a database happens **once**, before any cell.
    plan:
        The validated grid and execution knobs.
    dataset:
        Label carried into the ``repro-sweep/v1`` record (falls back
        to ``observability.dataset``).
    observability:
        Optional :class:`~repro.core.options.ObservabilityOptions`:
        ``trace`` appends the validated sweep record through
        :class:`~repro.obs.report.TraceWriter`; ``track_memory``
        samples per-span peaks.  Telemetry is always collected for a
        sweep (that is its benchmark role), so ``collect_stats`` is
        implied and the return type never changes.  The live fields
        (``progress``/``metrics``/``monitor``, see
        :mod:`repro.obs.progress`) report per-cell completion and an
        ETA while the grid runs; each mined cell's chunk progress
        stacks inside the cell phase.

    Returns
    -------
    SweepResult
        Per-cell pattern sets byte-identical to independent mining,
        plus the reuse counters and the per-cell telemetry.

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> result = run_sweep(
    ...     paper_running_example(),
    ...     SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2)),
    ... )
    >>> len(result.pattern_set(2, 3, 2))
    8
    >>> result.cells_mined, result.cells_derived
    (1, 1)
    """
    obs = observability or ObservabilityOptions()
    dataset = dataset if dataset is not None else obs.dataset
    result = SweepResult(plan=plan, dataset=dataset)
    started = time.perf_counter()

    # Reuse layer 1: one transform, shared by every cell.
    transform_collector = SpanCollector(track_memory=obs.track_memory)
    with transform_collector, span("transform"):
        database = _as_database(data)
    result.transform_seconds = transform_collector.roots[0].seconds
    _fold_memory(result, transform_collector)

    # The cell-level phase wraps every per-cell mine (whose own
    # parallel chunk phase stacks on top of it); unit_done on a
    # derived cell is as real a completion as on a mined one.
    with open_monitor(obs) as monitor:
        _run_cells(result, database, plan, obs, monitor, started)

    if obs.trace is not None:
        record = result.as_record()
        validate_sweep_record(record)
        with TraceWriter(obs.trace) as writer:
            writer.write_record(record)
    return result


def _run_cells(
    result: SweepResult,
    database: TransactionalDatabase,
    plan: SweepPlan,
    obs: ObservabilityOptions,
    monitor,
    started: float,
) -> None:
    """Mine/derive every cell, reporting into ``monitor`` when present."""
    try:
        if monitor is not None:
            monitor.phase_started("sweep", units=len(plan.cells()))
        cell_index = 0

        def _cell_done() -> None:
            nonlocal cell_index
            if monitor is not None:
                monitor.unit_done(cell_index)
            cell_index += 1

        if plan.derive_min_rec:
            base_rec = min(plan.min_recs)
            for (per, min_ps), min_recs in plan.columns().items():
                base_key = (per, min_ps, base_rec)
                _mine_cell(
                    result, database, base_key, obs.track_memory,
                    monitor=monitor,
                )
                _cell_done()
                for min_rec in min_recs:
                    if min_rec == base_rec:
                        continue
                    _derive_cell(
                        result, base_key, (per, min_ps, min_rec)
                    )
                    _cell_done()
        else:
            for key in plan.cells():
                _mine_cell(
                    result, database, key, obs.track_memory,
                    monitor=monitor,
                )
                _cell_done()
    finally:
        if monitor is not None:
            monitor.phase_finished()

    # Every mined cell after the first reused the shared transform and
    # vertical map instead of re-scanning; derived cells never touch
    # the database at all, so they are not scan reuses — they are
    # counted by cells_derived.
    result.scans_shared = max(0, result.cells_mined - 1)
    result.seconds = time.perf_counter() - started

    if monitor is not None:
        if monitor.registry is not None:
            for name, value in (
                ("cells_mined", result.cells_mined),
                ("cells_derived", result.cells_derived),
                ("scans_shared", result.scans_shared),
            ):
                monitor.registry.counter(
                    f"repro_sweep_{name}_total",
                    {"engine": plan.engine},
                ).inc(float(value))
        monitor.run_finished(
            engine=plan.engine,
            stats=None,
            seconds=result.seconds,
            patterns_found=sum(result.counts().values()),
            note=f"sweep[{plan.engine}]: {result.summary_line()}",
        )


def _mine_cell(
    result: SweepResult,
    database: TransactionalDatabase,
    key: GridKey,
    track_memory: bool,
    monitor=None,
) -> None:
    """Mine one cell (reuse layer 3), keeping the fastest execution."""
    plan = result.plan
    request = plan.cell_request(key)
    best_root: Optional[Span] = None
    best: Optional[Tuple[RecurringPatternSet, MiningStats]] = None
    for _ in range(plan.repeats):
        collector = SpanCollector(track_memory=track_memory)
        with collector, span("cell"):
            found, stats, _faults = run_request(
                database, request, monitor=monitor,
            )
        root = collector.roots[0]
        _fold_memory(result, collector)
        if best_root is None or root.seconds < best_root.seconds:
            best_root = root
            best = (found, stats)
    assert best is not None and best_root is not None
    found, stats = best
    result.patterns[key] = found
    result.stats[key] = stats
    result.seconds_by_cell[key] = best_root.seconds
    result.span_trees[key] = tuple(best_root.children)
    result.derived_from[key] = None
    result.cells_mined += 1


def _derive_cell(
    result: SweepResult, base_key: GridKey, key: GridKey
) -> None:
    """Fill one cell by the derivation theorem: a recurrence filter."""
    min_rec = key[2]
    started = time.perf_counter()
    derived = result.patterns[base_key].filter(min_recurrence=min_rec)
    seconds = time.perf_counter() - started
    result.patterns[key] = derived
    # The filter mined nothing: the column's one mine is counted on its
    # base cell, which derived_from names.
    result.stats[key] = MiningStats(patterns_found=len(derived))
    result.seconds_by_cell[key] = seconds
    result.span_trees[key] = (
        Span(name="derive", started=0.0, seconds=seconds),
    )
    result.derived_from[key] = base_key
    result.cells_derived += 1


def _fold_memory(result: SweepResult, collector: SpanCollector) -> None:
    if collector.memory_peak_bytes is not None:
        result.memory_peak_bytes = max(
            result.memory_peak_bytes or 0, collector.memory_peak_bytes
        )
