"""Worker-process entry points for the parallel mining layer.

Everything in this module runs inside pool worker processes, and
:func:`mine_chunk` also in the parent's in-process fallback.  The
design is shared-nothing: a worker receives the engine's name, the
resolved thresholds, the candidate list and the engine's shared
context once through the pool initializer (kept in a module global,
which is both ``fork``- and ``spawn``-safe because this module is
importable by name), so each task payload afterwards is a list of bare
candidate indices.  A worker builds its engine as
``get_engine(name).factory(per, min_ps, min_rec)``, exactly as the
parent does, so an engine registered with ``supports_jobs`` runs its
own code in the pool and in the serial fallback.

The chunk function returns a ``(patterns, stats, seconds)`` triple:

* ``patterns`` — the :class:`RecurringPattern` objects mined by the
  chunk (picklable value objects);
* ``stats`` — a fresh :class:`MiningStats` covering only this chunk's
  work, merged into the parent's counters via
  :meth:`MiningStats.merge`;
* ``seconds`` — the chunk's wall time in this worker, which the parent
  records as a leaf ``chunk[i]`` span when it collects spans.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.core.engines import get_engine
from repro.core.model import RecurringPattern, ResolvedParameters
from repro.obs.counters import MiningStats
from repro.parallel import faults as _faults

__all__ = ["init_chunk_worker", "mine_chunk"]

#: Per-process engine state installed by the pool initializer.
_STATE: Optional[Tuple[str, ResolvedParameters, list, object]] = None


def init_chunk_worker(
    engine: str,
    params: ResolvedParameters,
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
    _STATE = (engine, params, candidates, context)


def mine_chunk(
    chunk_id: int, indices: Sequence[int], state: Optional[tuple] = None
) -> Tuple[List[RecurringPattern], MiningStats, float]:
    """Mine the sub-problems rooted at ``indices``.

    Runs the serial engine's ``_grow`` unchanged for each root —
    ``prefix = (candidates[i][0],)``, extensions ``candidates[i + 1:]``;
    a lattice subtree for the vertical engines, a header item's suffix
    tree for RP-growth — so the union over all chunks is exactly the
    serial search space.  Each call builds a fresh engine, so no
    scratch state leaks from a failed chunk into its retry.

    ``state`` is :func:`init_chunk_worker`'s argument tuple.  A pool
    worker leaves it ``None`` and reads the copy its initializer
    installed.  The parent's in-process fallback passes its own and
    installs nothing: a global there would keep the RP-tree or column
    alive in a daemon, shared by its threads.
    """
    if state is None:
        assert _STATE is not None, "worker initializer did not run"
        state = _STATE
    engine, params, candidates, context = state
    started = time.perf_counter()
    stats = MiningStats()
    found: List[RecurringPattern] = []
    miner = get_engine(engine).factory(
        params.per, params.min_ps, params.min_rec
    )
    if context is not None:
        miner.attach_context(context)
    for index in indices:
        # Between roots is the natural heartbeat point: a worker that
        # stops beating is stuck inside one sub-problem.
        _faults.maybe_beat()
        item, ts_list = candidates[index]
        miner._grow(
            (item,), ts_list, candidates[index + 1:], params, found, stats,
        )
    return found, stats, time.perf_counter() - started
