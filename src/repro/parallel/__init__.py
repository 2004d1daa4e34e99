"""repro.parallel — shared-nothing multiprocess mining.

The search space of every pruning engine decomposes along its first
explored dimension — first-item prefixes for the vertical engines,
header-item suffix trees for RP-growth — into sub-problems that never
interact, listed by each engine's ``_first_scan``.  This package plans
them into chunks (:func:`~repro.parallel.miner.plan_chunks`), runs the
engine's ``_grow`` unchanged inside pool workers
(:mod:`repro.parallel.worker`) and merges patterns and counters back
together (:func:`~repro.parallel.miner.mine_parallel`).

Chunk execution is fault-tolerant: :mod:`repro.parallel.resilience`
supervises the pool (per-chunk retries with backoff, deadlines,
in-process serial fallback or :class:`~repro.exceptions.ChunkFailedError`)
and :mod:`repro.parallel.faults` provides the deterministic
fault-injection hook (:class:`~repro.parallel.faults.FaultPlan`) that
makes those failure paths testable.

It is reached through ``mine_recurring_patterns(..., jobs=N)``, the
CLI's ``--jobs`` and every other surface that runs a
:class:`~repro.core.request.MiningRequest`: ``run_request`` is its one
caller, and imports it only for ``jobs > 1``.  ``jobs=1`` is always the
serial engine, byte-identical to not using this package at all.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exceptions": ("ChunkFailedError",),
    "repro.parallel.faults": ("FAULT_KINDS", "FaultPlan", "FaultSpec"),
    "repro.parallel.miner": ("plan_chunks",),
    "repro.parallel.resilience": ("FaultEvent", "supervise"),
})

__all__ = [
    "plan_chunks",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultEvent",
    "supervise",
    "ChunkFailedError",
]
