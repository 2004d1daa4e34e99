"""Out-of-core, time-sharded mining.

The shard pipeline cuts the time axis into bounded-memory shards
(:mod:`~repro.shard.planner`), mines each shard independently through
the existing engine stack while collecting cut-neighbourhood candidates
(:mod:`~repro.shard.candidates`), verifies every candidate per shard
and stitches the per-shard run encodings into the exact in-memory
result (:mod:`~repro.shard.merge`).  :mod:`~repro.shard.miner` is the
orchestrator; the façade exposes it as
``mine_recurring_patterns(..., shards=...)`` /
``max_events_in_memory=...`` and the CLI as ``repro-mine shard``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.shard.candidates": (
        "BoundaryWindowCollector", "CutWindows", "boundary_candidates",
    ),
    "repro.shard.merge": (
        "MergeStats", "ShardPatternState", "ShardResult",
        "merge_shard_results",
    ),
    "repro.shard.miner": (
        "DEFAULT_MAX_TRANSACTIONS", "ShardRunReport",
        "mine_sharded_file_request", "mine_sharded_request",
    ),
    "repro.shard.planner": ("ShardPlan", "ShardPlanner", "plan_with_cuts"),
})

__all__ = [
    "BoundaryWindowCollector",
    "CutWindows",
    "boundary_candidates",
    "MergeStats",
    "ShardPatternState",
    "ShardResult",
    "merge_shard_results",
    "DEFAULT_MAX_TRANSACTIONS",
    "ShardRunReport",
    "mine_sharded_file_request",
    "mine_sharded_request",
    "ShardPlan",
    "ShardPlanner",
    "plan_with_cuts",
]
