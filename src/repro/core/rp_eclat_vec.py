"""The batched columnar vertical engine (``rp-eclat-vec``).

Swapping only the per-candidate *arithmetic* to NumPy still walks the
lattice one edge at a time — a dozen tiny array calls per extension,
whose fixed dispatch overhead dwarfs the work on real candidate lists
(``docs/performance.md`` measures such an engine at 15-35x slower than
this one).  This engine changes the unit of vectorisation from the edge
to the **lattice level**: the candidate lattice is explored
breadth-first, and all extension edges of a whole level are evaluated
in one batched pass —

1. ts-lists are transaction-id arrays into the shared
   :class:`~repro.timeseries.columnar.ColumnarTDB` timestamp column,
   concatenated per level in one CSR block.  A node's extension
   candidates are its later siblings (``TS(X∪p∪q) = TS(X∪p) ∩
   TS(X∪q)``), so each node's extension ts-lists form one *contiguous
   suffix* of its family's block — per node only a three-operation
   dense-bitmap membership gather remains (``searchsorted`` when the
   node's list dwarfs the suffix; crossover measured in
   ``benchmarks/bench_kernel.py``);
2. one segmented ``np.diff`` + run-length-encoding sweep
   (:func:`~repro.core.accel.segmented_interval_stats`) scores the
   ``Erec`` bound of *every* intersection of the level and extracts its
   interesting runs, so children reach the next level with their
   intervals already computed — no per-candidate python loop anywhere;
3. surviving intersections are compacted level-wide into the next
   level's CSR block.

Pruning is the paper's ``Erec`` bound, which is anti-monotone: an
extension that fails at a node fails in the whole subtree, so dropping
it from the children's sibling lists visits exactly the node set
``rp-eclat`` visits (``candidate_patterns`` / ``recurrence_evaluations``
parity) while skipping re-evaluation of dead edges.  All counters are
additive over nodes and edges, so the breadth-first order changes no
total — including against this engine's own parallel runs.

The engine speaks the standard vertical worker protocol
(``_first_scan`` / ``_grow``), so :class:`~repro.parallel.ParallelMiner`
prefix-partitions it like any other vertical engine; ``_grow`` runs the
same level loop seeded with a single root.  Workers receive the shared
timestamp column through a :class:`VecContext` shipped once via the
pool initializer.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import Number
from repro.core.accel import _segmented_interval_stats
from repro.core.model import (
    MiningParameters,
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
    ResolvedParameters,
)
from repro.core.ordering import sort_candidates
from repro.obs.counters import MiningStats
from repro.obs.spans import span
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["RPEclatVec", "VecContext"]


class VecContext(NamedTuple):
    """Shared read-only state a vec worker needs besides its candidates.

    Shipped once per worker through the pool initializer (like the
    candidate list itself): the timestamp column that transaction-id
    arrays index into, and the id universe for the membership bitmap.
    """

    timestamps: np.ndarray
    n_transactions: int


class _Level(NamedTuple):
    """One breadth-first frontier: all live lattice nodes of one length.

    ``block`` holds every node's transaction-id list concatenated
    (node ``i`` spans ``ptr[i]:ptr[i + 1]``); ``fam_ptr`` partitions the
    nodes into families (children of one parent) — a node's extension
    candidates are its later siblings, a contiguous suffix of its
    family's block.  The interesting runs of every node arrive
    precomputed from the parent level's batched sweep as the CSR
    ``run_ptr`` over the ``run_*`` arrays.
    """

    itemsets: List[Tuple[Item, ...]]
    block: np.ndarray
    ptr: np.ndarray
    fam_ptr: np.ndarray
    run_ptr: np.ndarray
    run_start_ts: np.ndarray
    run_end_ts: np.ndarray
    run_ps: np.ndarray


_SINGLE_START = np.zeros(1, dtype=np.int64)
_ZERO = np.zeros(1, dtype=np.int64)


class RPEclatVec:
    """Breadth-first vertical miner with per-level batched NumPy kernels.

    Parameters
    ----------
    per, min_ps, min_rec:
        Model thresholds, as for :class:`~repro.core.rp_eclat.RPEclat`.
    max_length:
        Stop extending patterns at this length (``None`` = unlimited).

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> found = RPEclatVec(per=2, min_ps=3, min_rec=2).mine(
    ...     paper_running_example())
    >>> sorted("".join(sorted(p.items)) for p in found)
    ['a', 'ab', 'b', 'cd', 'd', 'e', 'ef', 'f']
    """

    def __init__(
        self,
        per: Number,
        min_ps: Union[int, float],
        min_rec: int,
        max_length: Union[int, None] = None,
    ):
        self.params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
        if max_length is not None and max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length!r}")
        self.max_length = max_length
        self.last_stats: Optional[MiningStats] = None
        #: The :class:`VecContext` of the last ``_first_scan``; the
        #: parallel layer ships it to workers alongside the candidates.
        self.parallel_context: Optional[VecContext] = None
        self._mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Worker-protocol surface
    # ------------------------------------------------------------------
    def attach_context(self, context: VecContext) -> None:
        """Install the shared column state (worker-side counterpart of
        the ``parallel_context`` produced by ``_first_scan``)."""
        self.parallel_context = context
        self._mask = np.zeros(context.n_transactions, dtype=bool)

    def mine(self, database: TransactionalDatabase) -> RecurringPatternSet:
        """Mine the complete set of recurring patterns in ``database``."""
        stats = MiningStats()
        self.last_stats = stats
        if len(database) == 0:
            return RecurringPatternSet()
        params = self.params.resolve(len(database))

        with span("first_scan"):
            candidates = self._first_scan(database, params, stats)

        found: List[RecurringPattern] = []
        with span("mine"):
            if candidates:
                # Level 1 is one family of all surviving items: the
                # level loop emits their patterns and forms every
                # (i < j) extension pair, exactly the union of the
                # per-root subtrees the parallel partition hands out.
                block = np.concatenate([row for _, row in candidates])
                ptr = np.zeros(len(candidates) + 1, dtype=np.int64)
                np.cumsum([row.size for _, row in candidates], out=ptr[1:])
                seq = self.parallel_context.timestamps[block]
                _, _, run_seg, run_first, run_last = _segmented_interval_stats(
                    seq, ptr[:-1], params.per, params.min_ps
                )
                level = _Level(
                    itemsets=[(item,) for item, _ in candidates],
                    block=block,
                    ptr=ptr,
                    fam_ptr=np.array([0, len(candidates)], dtype=np.int64),
                    run_ptr=self._run_csr(run_seg, len(candidates)),
                    run_start_ts=seq[run_first],
                    run_end_ts=seq[run_last],
                    run_ps=run_last - run_first + 1,
                )
                self._mine_levels(level, False, params, found, stats)
        return RecurringPatternSet(found)

    def _first_scan(
        self,
        database: TransactionalDatabase,
        params: ResolvedParameters,
        stats: MiningStats,
    ) -> List[Tuple[Item, np.ndarray]]:
        """Candidate 1-items with their id arrays, in canonical order.

        One segmented kernel call scores the ``Erec`` bound of *every*
        item: the concatenated CSR rows of the columnar view are
        already the per-item point sequences laid end to end.
        """
        column = database.columnar()
        self.attach_context(VecContext(column.timestamps, column.n_transactions))
        n_items = len(column.items)
        stats.erec_evaluations += n_items
        if n_items == 0:
            stats.candidate_items = 0
            return []
        erec, _, _, _, _ = _segmented_interval_stats(
            column.timestamps[column.indices],
            column.indptr[:-1],
            params.per,
            params.min_ps,
        )
        keep = erec >= params.min_rec
        candidates: List[Tuple[Item, np.ndarray]] = []
        for position in np.flatnonzero(keep).tolist():
            row = column.item_rows(position)
            candidates.append((column.items[position], row))
            stats.tid_list_entries += row.size
        stats.pruned_items += n_items - len(candidates)
        stats.candidate_items = len(candidates)
        return sort_candidates(candidates)

    def _grow(
        self,
        prefix: Tuple[Item, ...],
        prefix_idx: np.ndarray,
        extensions: Sequence[Tuple[Item, np.ndarray]],
        params: ResolvedParameters,
        found: List[RecurringPattern],
        stats: MiningStats,
    ) -> None:
        """Mine the subtree rooted at ``prefix`` (worker-protocol entry).

        Runs the same level loop as :meth:`mine`, seeded with a
        restricted level: only node 0 (the prefix) emits its pattern
        and forms pairs — its siblings here are the *other* roots,
        whose subtrees belong to other chunks.
        """
        if self.parallel_context is None:
            raise RuntimeError(
                "rp-eclat-vec context not attached; run _first_scan or "
                "attach_context() first"
            )
        prefix_idx = np.asarray(prefix_idx)
        rows = [prefix_idx] + [row for _, row in extensions]
        n = len(rows)
        block = np.concatenate(rows) if n > 1 else prefix_idx
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([row.size for row in rows], out=ptr[1:])
        seq = self.parallel_context.timestamps[prefix_idx]
        _, _, _, run_first, run_last = _segmented_interval_stats(
            seq, _SINGLE_START, params.per, params.min_ps
        )
        run_ptr = np.full(n + 1, run_first.size, dtype=np.int64)
        run_ptr[0] = 0
        level = _Level(
            itemsets=[prefix] + [(item,) for item, _ in extensions],
            block=block,
            ptr=ptr,
            fam_ptr=np.array([0, n], dtype=np.int64),
            run_ptr=run_ptr,
            run_start_ts=seq[run_first],
            run_end_ts=seq[run_last],
            run_ps=run_last - run_first + 1,
        )
        self._mine_levels(level, True, params, found, stats)

    # ------------------------------------------------------------------
    # The level loop
    # ------------------------------------------------------------------
    def _mine_levels(
        self,
        level: _Level,
        only_first: bool,
        params: ResolvedParameters,
        found: List[RecurringPattern],
        stats: MiningStats,
    ) -> None:
        """Emit every level's patterns and batch-score its extensions.

        ``only_first`` restricts the *seed* level to node 0 (the
        ``_grow`` entry); deeper levels always process every node.
        """
        ts_col = self.parallel_context.timestamps
        min_rec = params.min_rec
        while True:
            n = len(level.itemsets)
            ptr = level.ptr
            emit_n = 1 if only_first else n
            self._emit(level, emit_n, min_rec, found, stats)
            if (
                self.max_length is not None
                and len(level.itemsets[0]) >= self.max_length
            ):
                return
            # ---- pair generation ----
            # The pair/node/counter sets are order-independent (all
            # pairs of surviving siblings are always formed), so pick
            # the cheaper gather orientation: mask each node and gather
            # its *earlier* siblings — candidates are rarest-first, so
            # the gathered prefix blocks are the short ones.  A _grow
            # seed instead masks its single left node (the prefix)
            # once and gathers the whole suffix in one operation.
            ptr_l = ptr.tolist()
            sizes = np.diff(ptr)
            if only_first:
                only_first = False
                total_pairs = n - 1
                if total_pairs == 0:
                    return
                pair_left = np.zeros(total_pairs, dtype=np.int64)
                pair_right = np.arange(1, n)
                flags = self._member_flags(
                    level.block[: ptr_l[1]], level.block[ptr_l[1]:]
                )
                ext_concat = level.block[ptr_l[1]:]
                block_sizes = sizes[pair_right]
            else:
                fam_sizes = np.diff(level.fam_ptr)
                fam_start = np.repeat(level.fam_ptr[:-1], fam_sizes)
                pc = np.arange(n) - fam_start
                total_pairs = int(pc.sum())
                if total_pairs == 0:
                    return
                pair_right = np.repeat(np.arange(n), pc)
                group_start = np.cumsum(pc) - pc
                pair_left = (
                    np.arange(total_pairs)
                    - np.repeat(group_start, pc)
                    + np.repeat(fam_start, pc)
                )
                fam_start_l = fam_start.tolist()
                pc_l = pc.tolist()
                flag_parts = []
                ext_parts = []
                block = level.block
                mask = self._mask
                # _member_flags, inlined: this loop runs once per node
                # and is the only per-node work in the engine.
                for k in range(n):
                    if not pc_l[k]:
                        continue
                    lo, mid, hi2 = ptr_l[fam_start_l[k]], ptr_l[k], ptr_l[k + 1]
                    earlier = block[lo:mid]
                    seg = block[mid:hi2]
                    if hi2 - mid > 4 * (mid - lo):
                        pos = np.searchsorted(seg, earlier)
                        np.minimum(pos, hi2 - mid - 1, out=pos)
                        flag_parts.append(seg[pos] == earlier)
                    else:
                        mask[seg] = True
                        flag_parts.append(mask[earlier])
                        mask[seg] = False
                    ext_parts.append(earlier)
                flags = (
                    flag_parts[0]
                    if len(flag_parts) == 1
                    else np.concatenate(flag_parts)
                )
                ext_concat = (
                    ext_parts[0]
                    if len(ext_parts) == 1
                    else np.concatenate(ext_parts)
                )
                block_sizes = sizes[pair_left]
            # ---- batched intersection of every pair ----
            kept = np.flatnonzero(flags)
            inter = ext_concat[kept]
            hi = np.searchsorted(kept, np.cumsum(block_sizes))
            counts = np.diff(hi, prepend=0)
            stats.erec_evaluations += total_pairs
            stats.tid_list_entries += int(inter.size)
            inter_ptr = np.concatenate((_ZERO, hi))
            # ---- batched Erec bound + interval runs ----
            ts_inter = ts_col[inter]
            erec, _, run_pair, run_first, run_last = _segmented_interval_stats(
                ts_inter, inter_ptr[:-1], params.per, params.min_ps
            )
            surv_flag = erec >= min_rec
            surv = np.flatnonzero(surv_flag)
            if surv.size == 0:
                return
            # ---- regroup survivors into the next level's families ----
            # Children of one parent (pair_left) must share a family;
            # the gather orientation grouped pairs by right node, so a
            # stable sort by parent restores the family layout.
            surv_left = pair_left[surv]
            if surv_left.size > 1 and np.any(np.diff(surv_left) < 0):
                order = np.argsort(surv_left, kind="stable")
                surv = surv[order]
                surv_left = surv_left[order]
            counts_surv = counts[surv]
            ptr_next = np.concatenate((_ZERO, np.cumsum(counts_surv)))
            gather = (
                np.arange(int(ptr_next[-1]))
                - np.repeat(ptr_next[:-1], counts_surv)
                + np.repeat(inter_ptr[:-1][surv], counts_surv)
            )
            block_next = inter[gather]
            # Runs follow the same regrouping: map each kept run to its
            # child index and stably sort runs by child (time order
            # within a child is preserved).
            run_keep = surv_flag[run_pair]
            run_pair = run_pair[run_keep]
            run_first = run_first[run_keep]
            run_last = run_last[run_keep]
            survpos_of_pair = np.cumsum(surv_flag) - 1
            child_index = np.empty(surv.size, dtype=np.int64)
            child_index[survpos_of_pair[surv]] = np.arange(surv.size)
            run_child = child_index[survpos_of_pair[run_pair]]
            if run_child.size > 1 and np.any(np.diff(run_child) < 0):
                run_order = np.argsort(run_child, kind="stable")
                run_child = run_child[run_order]
                run_first = run_first[run_order]
                run_last = run_last[run_order]
            itemsets = level.itemsets
            level = _Level(
                itemsets=[
                    itemsets[left] + (itemsets[right][-1],)
                    for left, right in zip(
                        surv_left.tolist(), pair_right[surv].tolist()
                    )
                ],
                block=block_next,
                ptr=ptr_next,
                fam_ptr=self._family_bounds(surv_left),
                run_ptr=self._run_csr(run_child, surv.size),
                run_start_ts=ts_inter[run_first],
                run_end_ts=ts_inter[run_last],
                run_ps=run_last - run_first + 1,
            )

    def _emit(
        self,
        level: _Level,
        emit_n: int,
        min_rec: int,
        found: List[RecurringPattern],
        stats: MiningStats,
    ) -> None:
        """Materialise the recurring patterns among ``level``'s nodes.

        The value objects are built through ``object.__new__``, skipping
        the dataclass ``__init__``/``__post_init__`` validation: the
        kernel guarantees the invariants by construction (runs are
        time-ordered so ``end >= start``, every run has ``ps >= 1``,
        itemsets are non-empty, support is a list length).  The objects
        are attribute-identical to validated ones, so equality, hashing
        and ordering are unchanged.
        """
        stats.candidate_patterns += emit_n
        stats.recurrence_evaluations += emit_n
        run_ptr = level.run_ptr.tolist()
        starts = level.run_start_ts.tolist()
        ends = level.run_end_ts.tolist()
        ps = level.run_ps.tolist()
        sizes = np.diff(level.ptr).tolist()
        itemsets = level.itemsets
        new = object.__new__
        put = object.__setattr__
        for i in range(emit_n):
            lo, hi = run_ptr[i], run_ptr[i + 1]
            if hi - lo < min_rec:
                continue
            stats.patterns_found += 1
            intervals = []
            for j in range(lo, hi):
                interval = new(PeriodicInterval)
                put(interval, "start", starts[j])
                put(interval, "end", ends[j])
                put(interval, "periodic_support", ps[j])
                intervals.append(interval)
            pattern = new(RecurringPattern)
            put(pattern, "items", frozenset(itemsets[i]))
            put(pattern, "support", sizes[i])
            put(pattern, "intervals", tuple(intervals))
            found.append(pattern)

    # ------------------------------------------------------------------
    # Small array helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _run_csr(run_node: np.ndarray, n_nodes: int) -> np.ndarray:
        """CSR pointer over runs grouped by (nondecreasing) node id."""
        run_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(run_node, minlength=n_nodes), out=run_ptr[1:]
        )
        return run_ptr

    @staticmethod
    def _family_bounds(surv_left: np.ndarray) -> np.ndarray:
        """Family boundaries of the next level: children grouped by
        parent (``surv_left`` is nondecreasing)."""
        if surv_left.size == 1:
            return np.array([0, 1], dtype=np.int64)
        steps = np.flatnonzero(np.diff(surv_left)) + 1
        return np.concatenate(
            (_ZERO, steps, np.array([surv_left.size], dtype=np.int64))
        )

    def _member_flags(
        self, node_idx: np.ndarray, suffix: np.ndarray
    ) -> np.ndarray:
        """Which of ``suffix``'s ids the node's list also contains.

        The dense scratch bitmap is O(2·|node| + |suffix|) with tiny
        constants; when the node's list dwarfs the suffix a binary
        search over it is cheaper (crossover measured in
        ``benchmarks/bench_kernel.py``).
        """
        if node_idx.size > 4 * suffix.size:
            pos = np.searchsorted(node_idx, suffix)
            np.minimum(pos, node_idx.size - 1, out=pos)
            return node_idx[pos] == suffix
        mask = self._mask
        mask[node_idx] = True
        flags = mask[suffix]
        mask[node_idx] = False
        return flags
