"""repro.parallel — shared-nothing multiprocess mining.

The search space of every pruning engine decomposes along its first
explored dimension — first-item prefixes for the vertical engines,
suffix-item conditional trees for RP-growth — into sub-problems that
never interact.  This package partitions along that dimension
(:mod:`repro.parallel.partition`), runs the existing serial recursions
unchanged inside pool workers (:mod:`repro.parallel.worker`) and merges
patterns, counters and spans back together
(:class:`~repro.parallel.miner.ParallelMiner`).

Chunk execution is fault-tolerant: :mod:`repro.parallel.resilience`
supervises the pool (per-chunk retries with backoff, deadlines,
in-process serial fallback or :class:`~repro.exceptions.ChunkFailedError`)
and :mod:`repro.parallel.faults` provides the deterministic
fault-injection hook (:class:`~repro.parallel.faults.FaultPlan`) that
makes those failure paths testable.

Most users reach it through ``mine_recurring_patterns(..., jobs=N)``
or the CLI's ``--jobs``; the pieces are public for callers that need
pool-lifecycle control.  ``jobs=1`` is always the serial engine,
byte-identical to not using this package at all.
"""

from repro.exceptions import ChunkFailedError
from repro.parallel.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.parallel.miner import ParallelMiner, default_jobs
from repro.parallel.partition import (
    collect_growth_tasks,
    growth_task_size,
    plan_chunks,
)
from repro.parallel.resilience import (
    FALLBACK_MODES,
    FaultEvent,
    RetryPolicy,
    supervise,
)

__all__ = [
    "ParallelMiner",
    "default_jobs",
    "collect_growth_tasks",
    "growth_task_size",
    "plan_chunks",
    "FAULT_KINDS",
    "FALLBACK_MODES",
    "FaultPlan",
    "FaultSpec",
    "FaultEvent",
    "RetryPolicy",
    "supervise",
    "ChunkFailedError",
]
