"""Worker-process entry points for the parallel mining layer.

Everything in this module runs inside pool worker processes.  The
design is shared-nothing: a worker receives its engine configuration,
the candidate list and the engine's shared context once through the
pool initializer (kept in a module global, which is both ``fork``- and
``spawn``-safe because this module is importable by name), so each
task payload afterwards is a list of bare candidate indices.  A worker
builds its engine from the engine's name through the registry factory
(:func:`repro.core.engines.get_engine`), exactly as the parent does,
so an engine registered with ``supports_jobs`` runs its own code in
the pool and in the serial fallback.

The chunk function returns a ``(patterns, stats, spans)`` triple:

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

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.engines import get_engine
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    ResolvedParameters,
)
from repro.obs.counters import MiningStats
from repro.obs.spans import SpanCollector, span
from repro.parallel import faults as _faults

__all__ = ["EngineRecipe", "init_chunk_worker", "mine_chunk"]


class EngineRecipe(NamedTuple):
    """What a worker needs to build its own engine object."""

    #: Engine-registry name.
    engine: str
    #: The thresholds (resolved ones in the workers).
    params: Union[MiningParameters, ResolvedParameters]
    #: Factory options (``item_order``, ``max_length``).
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
_STATE: Optional[Tuple[EngineRecipe, list, object]] = None


def init_chunk_worker(
    recipe: EngineRecipe,
    candidates: list,
    context: object = None,
) -> None:
    """Install the shared engine state in this worker process.

    ``candidates`` is the full list the parent's ``_first_scan``
    returned — every worker holds it because task ``i`` needs
    ``candidates[i + 1:]`` as its extension set; shipping it once via
    the initializer instead of per task keeps payloads to bare indices.
    ``context`` is the engine's ``parallel_context`` from that scan
    (the initial RP-tree for ``rp-growth``, the columnar
    :class:`~repro.core.rp_eclat_vec.VecContext` for ``rp-eclat-vec``;
    ``None`` for an engine that needs nothing beyond candidates).
    """
    global _STATE
    _STATE = (recipe, candidates, context)


def mine_chunk(
    chunk_id: int, indices: Sequence[int]
) -> Tuple[List[RecurringPattern], MiningStats, List[dict]]:
    """Mine the sub-problems rooted at ``indices``.

    Runs the serial engine's ``_grow`` unchanged for each root —
    ``prefix = (candidates[i][0],)``, extensions ``candidates[i + 1:]``;
    a lattice subtree for the vertical engines, a header item's suffix
    tree for RP-growth — so the union over all chunks is exactly the
    serial search space.
    """
    assert _STATE is not None, "worker initializer did not run"
    recipe, candidates, context = _STATE
    params = recipe.params
    stats = MiningStats()
    found: List[RecurringPattern] = []
    collector = SpanCollector()
    with collector, span(f"chunk[{chunk_id}]"):
        miner = recipe.build(context)
        for index in indices:
            # Between roots is the natural heartbeat point: a worker
            # that stops beating is stuck inside one sub-problem.
            _faults.maybe_beat()
            item, ts_list = candidates[index]
            miner._grow(
                (item,), ts_list, candidates[index + 1:],
                params, found, stats,
            )
    return found, stats, [root.as_dict() for root in collector.spans]
