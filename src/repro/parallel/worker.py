"""Worker-process entry points for the parallel mining layer.

Everything in this module runs inside pool worker processes.  The
design is shared-nothing: a worker receives its engine configuration
once through the pool initializer (kept in a module global, which is
both ``fork``- and ``spawn``-safe because this module is importable by
name) and each task payload afterwards is small — candidate indices
for the vertical engines, serialized conditional bases for RP-growth.
A worker builds its engine from the engine's name through the registry
factory (:func:`repro.core.engines.get_engine`), exactly as the
parent does, so an engine registered with ``supports_jobs`` runs its
own code in the pool and in the serial fallback.

Every chunk function returns a ``(patterns, stats, spans)`` triple:

* ``patterns`` — the :class:`RecurringPattern` objects mined by the
  chunk (picklable value objects);
* ``stats`` — a fresh :class:`MiningStats` covering only this chunk's
  work, merged into the parent's counters via
  :meth:`MiningStats.merge`;
* ``spans`` — the chunk's span tree as ``Span.as_dict()`` payloads,
  grafted under the parent's ``mine`` span so ``--profile`` output and
  ``repro-run/v1`` traces show per-chunk timings.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.engines import get_engine
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    ResolvedParameters,
)
from repro.core.rp_growth import conditional_tree_from_base
from repro.obs.counters import MiningStats
from repro.obs.spans import SpanCollector, span
from repro.parallel import faults as _faults
from repro.parallel.partition import GrowthTask
from repro.timeseries.events import Item

__all__ = [
    "EngineRecipe",
    "init_vertical_worker",
    "mine_vertical_chunk",
    "init_growth_worker",
    "mine_growth_chunk",
]


class EngineRecipe(NamedTuple):
    """What a worker needs to build its own engine object."""

    #: Engine-registry name.
    engine: str
    #: The thresholds (resolved ones in the workers).
    params: Union[MiningParameters, ResolvedParameters]
    #: Factory options (``item_order``, ``pruning``, ``max_length``).
    options: dict

    def build(self, context: object = None):
        """A fresh engine from the registry factory, with ``context``
        handed to its ``attach_context`` when given.  Chunks build one
        each, so no scratch state leaks from a failed chunk into its
        retry."""
        miner = get_engine(self.engine).factory(
            self.params.per, self.params.min_ps, self.params.min_rec,
            **self.options,
        )
        if context is not None:
            miner.attach_context(context)
        return miner


#: Per-process engine state installed by the pool initializer.
_VERTICAL_STATE: Optional[Tuple[EngineRecipe, list, object]] = None
_GROWTH_STATE: Optional[Tuple[EngineRecipe, Dict[Item, int]]] = None


def init_vertical_worker(
    recipe: EngineRecipe,
    candidates: list,
    context: object = None,
) -> None:
    """Install the shared vertical-engine state in this worker process.

    ``candidates`` is the full canonical candidate list — every worker
    holds it because task ``i`` needs ``candidates[i + 1:]`` as its
    extension set; shipping it once via the initializer instead of per
    task keeps payloads to bare indices.  ``context`` is extra shared
    engine state the serial first scan produced (the columnar
    :class:`~repro.core.rp_eclat_vec.VecContext` for ``rp-eclat-vec``;
    ``None`` for the engines that need nothing beyond candidates).
    """
    global _VERTICAL_STATE
    _VERTICAL_STATE = (recipe, candidates, context)


def mine_vertical_chunk(
    chunk_id: int, indices: Sequence[int]
) -> Tuple[List[RecurringPattern], MiningStats, List[dict]]:
    """Mine the lattice subtrees rooted at ``indices``.

    Runs the serial engine's ``_grow`` recursion unchanged for each
    root — ``prefix = (candidates[i][0],)``, extensions
    ``candidates[i + 1:]`` — so the union over all chunks is exactly
    the serial search space.
    """
    assert _VERTICAL_STATE is not None, "worker initializer did not run"
    recipe, candidates, context = _VERTICAL_STATE
    params = recipe.params
    stats = MiningStats()
    found: List[RecurringPattern] = []
    collector = SpanCollector()
    with collector, span(f"chunk[{chunk_id}]"):
        miner = recipe.build(context)
        for index in indices:
            # Between lattice subtrees is the natural heartbeat point: a
            # worker that stops beating is stuck inside one subtree.
            _faults.maybe_beat()
            item, ts_list = candidates[index]
            miner._grow(
                (item,), ts_list, candidates[index + 1:],
                params, found, stats,
            )
    return found, stats, [root.as_dict() for root in collector.spans]


def init_growth_worker(recipe: EngineRecipe, order: Dict[Item, int]) -> None:
    """Install the shared RP-growth state in this worker process."""
    global _GROWTH_STATE
    _GROWTH_STATE = (recipe, order)


def mine_growth_chunk(
    chunk_id: int, tasks: Sequence[GrowthTask]
) -> Tuple[List[RecurringPattern], MiningStats, List[dict]]:
    """Mine the conditional trees of a chunk of suffix items.

    For each ``(suffix item, base)`` task: rebuild the conditional
    tree from the serialized base (the shared
    :func:`~repro.core.rp_growth.conditional_tree_from_base`, identical
    counters included) and run the serial ``_mine_tree`` recursion on
    it with ``suffix = (item,)``.
    """
    assert _GROWTH_STATE is not None, "worker initializer did not run"
    recipe, order = _GROWTH_STATE
    params = recipe.params
    stats = MiningStats()
    found: List[RecurringPattern] = []
    miner = recipe.build()
    collector = SpanCollector()
    with collector, span(f"chunk[{chunk_id}]"):
        for item, base in tasks:
            _faults.maybe_beat()
            conditional = conditional_tree_from_base(
                base, order, params, stats
            )
            if conditional is not None:
                miner._mine_tree(conditional, (item,), params, found, stats)
    return found, stats, [root.as_dict() for root in collector.spans]
