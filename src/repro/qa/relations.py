"""Metamorphic relations of the recurring-pattern model.

No full oracle exists for mining real databases (the naive reference
explodes combinatorially), so — following the metamorphic-testing
methodology (Chen et al., *Metamorphic Testing: A Review of Challenges
and Opportunities*) — this module checks *relations between runs*: a
transformation of the input database whose effect on the mined pattern
set is exactly predicted by the model of Definitions 1–9.  A pruning
bug, an ordering bug or a parallel-merge bug shows up as a violated
prediction even on databases where no reference result is known.

The registry :data:`RELATIONS` holds eight relations:

``time-shift``
    Shifting every timestamp by a constant shifts every interval by the
    same constant and changes nothing else.  (Definitions 4–8 only ever
    use inter-arrival *differences*; absolute time never appears.)
``item-relabel``
    A bijective relabeling of the items relabels the patterns and
    changes nothing else.  (The model never inspects item identity —
    items are opaque labels; Definition 1.)
``time-scale``
    Multiplying every timestamp *and* ``per`` by the same factor scales
    interval boundaries by that factor and changes nothing else.
    (Definition 4 compares ``iat ≤ per``; both sides scale together.)
``concat-disjoint``
    Appending a time-shifted copy of the database, separated by a gap
    longer than ``per``, doubles every pattern's support and recurrence
    — recurrence is additive over time-disjoint segments (Definition 8:
    no periodic run can span a gap > ``per``).
``event-duplication``
    Re-stating events of a transaction (duplicate rows, duplicate items,
    split transactions sharing a timestamp) changes nothing: the
    time-series-to-TDB transformation groups by timestamp and itemsets
    are sets (Section 3).
``stream-batch``
    Feeding the database through the sharded streaming registry
    (:mod:`repro.streaming`) — under eviction pressure, at shard counts
    1, 4 and 16 — yields exactly the batch engine's pattern set.  This
    is the incremental-maintenance property: the streaming monitor
    maintains the RP-list state of Algorithm 1 per event, so sharding,
    eviction and re-admission must be observationally invisible.
``stream-checkpoint-resume``
    Checkpointing the registry at a (case-derived) random cut,
    restoring, and resuming is *byte-identical* to the uninterrupted
    stream — same final checkpoint bytes, same intervals emitted after
    the cut — at shard counts 1, 4 and 16.  The streamed result must
    also still equal the batch engine's.
``shard-merge``
    Mining through the out-of-core sharded pipeline (:mod:`repro.shard`)
    — at shard counts 1, 3 and 8 *and* with cuts placed adversarially
    inside recurrence runs — equals in-memory mining exactly, per
    (engine, jobs) cell.  This is the split/merge property: shards
    partition the time axis, per-shard runs concatenate, and stitching
    across cuts recovers every maximal run (Definitions 5 and 8).

Each relation is checked per engine and per ``jobs`` level: the engine
mines the base case and the transformed case, and the transformed
result must equal the prediction computed from the base result.  This
is deliberately *self*-referential — it needs no second engine — so a
violation pins the blame on the engine under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import random

from repro._validation import resolve_count_threshold
from repro.core.engines import engine_names, get_engine
from repro.core.model import PeriodicInterval
from repro.qa.differential import (
    BASE_SEED,
    CaseParams,
    Row,
    Rows,
    format_reproducer,
    mine_canonical,
    minimize_case,
    random_params,
    random_rows,
)
from repro.timeseries.database import TransactionalDatabase

__all__ = [
    "RELATIONS",
    "SHARD_MERGE_COUNTS",
    "STREAM_SHARDS",
    "MetamorphicRelation",
    "RelationCase",
    "RelationCheck",
    "RelationViolation",
    "RelationsResult",
    "check_relation",
    "default_case_corpus",
    "engine_matrix",
    "get_relation",
    "run_relations",
]

#: Canonical pattern view, as produced by ``repro.qa.differential.canonical``.
Canonical = List[tuple]

#: An engine-bound miner: (rows, params) -> canonical pattern view.
MineFn = Callable[[Rows, CaseParams], Canonical]

#: Constant used by the ``time-shift`` relation.
SHIFT = 97

#: Constant factor used by the ``time-scale`` relation.
SCALE = 3


@dataclass(frozen=True)
class MetamorphicRelation:
    """One input transformation with its predicted output mapping.

    Attributes
    ----------
    name:
        Registry key (also the name in reports and CLI output).
    description:
        One-line human summary of the transformation.
    paper_basis:
        Which definition of the paper makes the prediction exact.
    transform:
        Maps a base case ``(rows, params)`` to the transformed case.
    expected:
        Computes the predicted canonical pattern set of the transformed
        case.  Receives an engine-bound ``mine`` callable (memoized by
        the checker) so relations whose prediction needs a re-mine at
        different thresholds — ``concat-disjoint`` — can express it.
    """

    name: str
    description: str
    paper_basis: str
    transform: Callable[[Rows, CaseParams], Tuple[List[Row], CaseParams]]
    expected: Callable[[MineFn, Rows, CaseParams], Canonical]


# ----------------------------------------------------------------------
# The transformations and their predictions
# ----------------------------------------------------------------------
def _shift_transform(rows: Rows, params: CaseParams):
    return [(ts + SHIFT, items) for ts, items in rows], params


def _shift_expected(mine: MineFn, rows: Rows, params: CaseParams):
    return sorted(
        (
            items,
            support,
            recurrence,
            tuple(
                PeriodicInterval(iv.start + SHIFT, iv.end + SHIFT,
                                 iv.periodic_support)
                for iv in intervals
            ),
        )
        for items, support, recurrence, intervals in mine(rows, params)
    )


def _relabeling(rows: Rows) -> Dict[object, object]:
    """A non-trivial bijection on the case's item universe.

    Reversing the sorted item list permutes the items *within* the same
    alphabet, which also perturbs every support-descending tie-break on
    item repr — exactly the kind of internal ordering the result must
    not depend on.
    """
    universe = sorted({item for _, items in rows for item in items},
                      key=repr)
    return dict(zip(universe, reversed(universe)))


def _relabel_transform(rows: Rows, params: CaseParams):
    mapping = _relabeling(rows)
    return [
        (ts, tuple(mapping[item] for item in items)) for ts, items in rows
    ], params


def _relabel_expected(mine: MineFn, rows: Rows, params: CaseParams):
    mapping = {
        str(old): str(new) for old, new in _relabeling(rows).items()
    }
    return sorted(
        (
            tuple(sorted(mapping[item] for item in items)),
            support,
            recurrence,
            intervals,
        )
        for items, support, recurrence, intervals in mine(rows, params)
    )


def _scale_transform(rows: Rows, params: CaseParams):
    return (
        [(ts * SCALE, items) for ts, items in rows],
        CaseParams(params.per * SCALE, params.min_ps, params.min_rec),
    )


def _scale_expected(mine: MineFn, rows: Rows, params: CaseParams):
    return sorted(
        (
            items,
            support,
            recurrence,
            tuple(
                PeriodicInterval(iv.start * SCALE, iv.end * SCALE,
                                 iv.periodic_support)
                for iv in intervals
            ),
        )
        for items, support, recurrence, intervals in mine(rows, params)
    )


def _concat_offset(rows: Rows, params: CaseParams) -> int:
    """A shift larger than the row span plus ``per``.

    Guarantees the gap between the last base transaction and the first
    shifted one exceeds ``per``, so no periodic run crosses the seam.
    """
    timestamps = [ts for ts, _ in rows]
    span = max(timestamps) - min(timestamps)
    return int(span + math.ceil(params.per)) + 1


def _concat_transform(rows: Rows, params: CaseParams):
    offset = _concat_offset(rows, params)
    return (
        list(rows) + [(ts + offset, items) for ts, items in rows],
        params,
    )


def _concat_expected(mine: MineFn, rows: Rows, params: CaseParams):
    # Rec doubles over the two disjoint halves, so X recurs in the
    # concatenation iff 2 * Rec(X) >= min_rec, i.e. iff X is mined from
    # one half at ceil(min_rec / 2).  (min_ps is an absolute count here
    # — the corpus resolves fractions against the *base* size first —
    # so doubling |TDB| does not move the threshold.)
    offset = _concat_offset(rows, params)
    halved = CaseParams(
        params.per, params.min_ps, math.ceil(params.min_rec / 2)
    )
    return sorted(
        (
            items,
            2 * support,
            2 * recurrence,
            intervals
            + tuple(
                PeriodicInterval(iv.start + offset, iv.end + offset,
                                 iv.periodic_support)
                for iv in intervals
            ),
        )
        for items, support, recurrence, intervals in mine(rows, halved)
    )


def _duplicate_transform(rows: Rows, params: CaseParams):
    """Re-state every transaction redundantly without changing the TDB.

    Items are listed twice within each row, multi-item rows are split
    into two rows sharing the timestamp, and every other row is emitted
    twice wholesale — all shapes the grouping step must collapse.
    """
    transformed: List[Row] = []
    for index, (ts, items) in enumerate(rows):
        items = tuple(items)
        transformed.append((ts, items + items))
        if len(items) > 1:
            middle = len(items) // 2
            transformed.append((ts, items[:middle]))
            transformed.append((ts, items[middle:]))
        if index % 2 == 0:
            transformed.append((ts, items))
    return transformed, params


def _duplicate_expected(mine: MineFn, rows: Rows, params: CaseParams):
    return mine(rows, params)


# ----------------------------------------------------------------------
# Streaming relations (repro.streaming vs. the batch engines)
# ----------------------------------------------------------------------
#: Shard counts the streaming relations are checked at.
STREAM_SHARDS: Tuple[int, ...] = (1, 4, 16)

#: Active-monitor cap used while replaying relation cases.  With the
#: case stream plus two padding streams this forces eviction and
#: re-admission churn mid-replay, so the relations also pin "eviction
#: is observationally invisible".
_STREAM_MAX_ACTIVE = 2

#: Memo of streamed replays, keyed by (rows, params, shards) — the
#: streamed side is engine-independent, so one replay serves all nine
#: (engine, jobs) cells of the matrix.
_STREAM_MEMO: Dict[tuple, list] = {}


def _stream_case_key(rows: Rows, params: CaseParams, shards: int) -> tuple:
    return (
        tuple((ts, tuple(items)) for ts, items in rows),
        params,
        shards,
    )


def _stream_candidates(database: TransactionalDatabase) -> List[frozenset]:
    """Every non-empty sub-itemset of any transaction.

    These are exactly the itemsets that can have non-zero support, so
    enumerating them (bounded by the corpus' small per-transaction
    alphabets) gives the streaming side a complete candidate universe
    to compare against the batch engine's mined set.
    """
    candidates = set()
    for _, itemset in database:
        items = sorted(itemset, key=repr)
        for mask in range(1, 1 << len(items)):
            candidates.add(
                frozenset(
                    items[i] for i in range(len(items)) if mask >> i & 1
                )
            )
    return sorted(candidates, key=lambda c: sorted(str(i) for i in c))


def _stream_registry(params: CaseParams, min_ps: int, shards: int,
                     candidates: Sequence[frozenset], on_interval=None):
    """A relation-case registry with every candidate itemset watched."""
    from repro.streaming import ShardedMonitorRegistry

    registry = ShardedMonitorRegistry(
        per=params.per,
        min_ps=min_ps,
        min_rec=params.min_rec,
        shards=shards,
        max_active=_STREAM_MAX_ACTIVE,
        on_interval=on_interval,
    )
    for candidate in candidates:
        if len(candidate) > 1:
            registry.watch_pattern(candidate, candidate)
    return registry


def _stream_feed(registry, transactions: Sequence, lo: int, hi: int) -> None:
    """Replay ``transactions[lo:hi]`` as stream ``"qa"``, interleaved
    with padding streams so multiple shards hold state and the
    ``max_active`` cap keeps evicting and re-admitting mid-replay."""
    for index in range(lo, hi):
        ts, itemset = transactions[index]
        registry.observe("qa", ts, itemset)
        registry.observe("pad-0", index + 1, ["pad"])
        if index % 2 == 0:
            registry.observe("pad-1", index + 1, ["pad"])


def _stream_canonical(registry, candidates: Sequence[frozenset],
                      min_rec: int) -> List[tuple]:
    """The ``"qa"`` stream's recurring patterns, in canonical form."""
    try:
        monitor = registry.monitor("qa")
    except KeyError:
        return []
    entries = []
    for candidate in candidates:
        key = next(iter(candidate)) if len(candidate) == 1 else candidate
        rec = monitor.recurrence(key, include_open_run=True)
        if rec < min_rec:
            continue
        entries.append(
            (
                tuple(sorted(str(item) for item in candidate)),
                monitor.support(key),
                rec,
                monitor.intervals(key, include_open_run=True),
            )
        )
    return sorted(entries)


def _streamed_run(rows: Rows, params: CaseParams, shards: int) -> List[tuple]:
    """Replay a case through the registry; memoized across cells."""
    key = _stream_case_key(rows, params, shards)
    if key in _STREAM_MEMO:
        return _STREAM_MEMO[key]
    database = TransactionalDatabase(rows)
    min_ps = resolve_count_threshold(params.min_ps, "min_ps", len(database))
    candidates = _stream_candidates(database)
    registry = _stream_registry(params, min_ps, shards, candidates)
    transactions = list(database)
    _stream_feed(registry, transactions, 0, len(transactions))
    result = _stream_canonical(registry, candidates, params.min_rec)
    if len(_STREAM_MEMO) > 256:
        _STREAM_MEMO.clear()
    _STREAM_MEMO[key] = result
    return result


def _stream_batch_transform(rows: Rows, params: CaseParams):
    return list(rows), params


def _stream_batch_expected(mine: MineFn, rows: Rows, params: CaseParams):
    # The prediction is computed by an *independent implementation* —
    # the streaming registry — so unlike the other relations this one
    # needs no engine re-mine at all; `mine` supplies the "got" side.
    del mine
    variants = [_streamed_run(rows, params, s) for s in STREAM_SHARDS]
    expected = list(variants[0])
    for shards, variant in zip(STREAM_SHARDS[1:], variants[1:]):
        if variant != variants[0]:
            expected.append(
                (("__shard-divergence__", f"shards={shards}"), -1, -1, ())
            )
    return expected


def _checkpoint_cut(rows: Rows, params: CaseParams, size: int,
                    shards: int) -> int:
    """A case-derived pseudo-random cut point in ``[0, size]``."""
    seed = repr((_stream_case_key(rows, params, shards), "cut"))
    return random.Random(seed).randrange(size + 1)


def _checkpoint_roundtrip(rows: Rows, params: CaseParams,
                          shards: int):
    """Checkpoint/restore/resume at a random cut vs. the uninterrupted
    stream.  Returns ``None`` when both futures are identical, else a
    marker entry naming the divergence."""
    import io

    from repro.streaming import ShardedMonitorRegistry, item_sort_key

    database = TransactionalDatabase(rows)
    if len(database) == 0:
        return None
    min_ps = resolve_count_threshold(params.min_ps, "min_ps", len(database))
    candidates = _stream_candidates(database)
    transactions = list(database)
    cut = _checkpoint_cut(rows, params, len(transactions), shards)

    emitted_full: List[tuple] = []
    emitted_resumed: List[tuple] = []

    def sink(log, gate):
        def fire(stream, item, interval):
            if gate[0]:
                log.append(
                    (item_sort_key(stream), item_sort_key(item), interval)
                )

        return fire

    # Uninterrupted future (intervals recorded only after the cut, to
    # compare against what the resumed registry emits).
    past_cut = [False]
    full = _stream_registry(params, min_ps, shards, candidates,
                            on_interval=sink(emitted_full, past_cut))
    _stream_feed(full, transactions, 0, cut)
    past_cut[0] = True
    _stream_feed(full, transactions, cut, len(transactions))
    final_full = io.StringIO()
    full.checkpoint(final_full)

    # Interrupted future: checkpoint at the cut, restore, resume.
    interrupted = _stream_registry(params, min_ps, shards, candidates)
    _stream_feed(interrupted, transactions, 0, cut)
    middle = io.StringIO()
    interrupted.checkpoint(middle)
    middle.seek(0)
    resumed = ShardedMonitorRegistry.restore(
        middle, on_interval=sink(emitted_resumed, [True])
    )
    _stream_feed(resumed, transactions, cut, len(transactions))
    final_resumed = io.StringIO()
    resumed.checkpoint(final_resumed)

    if final_resumed.getvalue() != final_full.getvalue():
        return (
            ("__checkpoint-divergence__", f"shards={shards}", f"cut={cut}"),
            -1, -1, (),
        )
    if emitted_resumed != emitted_full:
        return (
            ("__interval-emission-divergence__", f"shards={shards}",
             f"cut={cut}"),
            -1, -1, (),
        )
    return None


def _checkpoint_transform(rows: Rows, params: CaseParams):
    return list(rows), params


def _checkpoint_expected(mine: MineFn, rows: Rows, params: CaseParams):
    del mine
    expected = list(_streamed_run(rows, params, STREAM_SHARDS[0]))
    for shards in STREAM_SHARDS:
        marker = _checkpoint_roundtrip(rows, params, shards)
        if marker is not None:
            expected.append(marker)
    return expected


# ----------------------------------------------------------------------
# Out-of-core shard-merge relation (repro.shard vs. in-memory mining)
# ----------------------------------------------------------------------
#: Shard counts the shard-merge relation is checked at.
SHARD_MERGE_COUNTS: Tuple[int, ...] = (1, 3, 8)


def _adversarial_cuts(rows: Rows, params: CaseParams) -> Tuple[float, ...]:
    """Cut positions *inside* periodic runs — the stitch-stressing plan.

    Balanced sharding often lands its cuts in quiet gaps; the merge bug
    class lives at cuts that split a maximal run in two.  Interior
    occurrences of single-item runs (taken most-frequent item first)
    are exactly such positions: the planner cuts at a timestamp, so a
    cut at an interior occurrence ends the left shard mid-run.
    """
    from repro.core.intervals import _iter_runs

    database = TransactionalDatabase(rows)
    counts: Dict[object, int] = {}
    for _, itemset in database:
        for item in itemset:
            counts[item] = counts.get(item, 0) + 1
    cuts: List[float] = []
    seen = set()
    for item in sorted(counts, key=lambda i: (-counts[i], repr(i))):
        timestamps = database.timestamps_of([item])
        for start, end, _ in _iter_runs(timestamps, params.per):
            for ts in timestamps:
                if start <= ts < end and ts not in seen:
                    seen.add(ts)
                    cuts.append(ts)
    if not cuts:
        # No multi-occurrence run anywhere: cut between transactions.
        cuts = [transaction.ts for transaction in database][:-1]
    return tuple(cuts[:4])


#: Memo of sharded runs, keyed by (case, plan spec, engine, jobs) — the
#: sharded side exercises the engine under test, so cells don't share.
_SHARD_MEMO: Dict[tuple, list] = {}


def _sharded_canonical(
    rows: Rows, params: CaseParams, engine: str, jobs: int, plan_spec
) -> List[tuple]:
    """Canonical view of a sharded mine; ``plan_spec`` is a shard count
    or ``("cuts", <cut tuple>)``."""
    from repro.core.request import MiningRequest
    from repro.qa.differential import canonical
    from repro.shard import mine_sharded_request

    key = (_stream_case_key(rows, params, 0), plan_spec, engine, jobs)
    if key in _SHARD_MEMO:
        return _SHARD_MEMO[key]
    per, min_ps, min_rec = params
    cuts = plan_spec[1] if isinstance(plan_spec, tuple) else None
    request = MiningRequest(
        per=per, min_ps=min_ps, min_rec=min_rec, engine=engine, jobs=jobs,
        shards=None if cuts is not None else plan_spec,
    )
    found, _, _, _ = mine_sharded_request(
        TransactionalDatabase(rows), request, cuts=cuts
    )
    result = canonical(found)
    if len(_SHARD_MEMO) > 256:
        _SHARD_MEMO.clear()
    _SHARD_MEMO[key] = result
    return result


def _shard_merge_transform(rows: Rows, params: CaseParams):
    return list(rows), params


def _shard_merge_expected(mine: MineFn, rows: Rows, params: CaseParams):
    # The "got" side is the engine's plain in-memory mine (identity
    # transform); the prediction re-mines through the sharded pipeline
    # with the *same* engine/jobs cell and flags any divergence, so a
    # merge bug is pinned to the cell that produced it.
    engine = getattr(mine, "engine", "rp-growth")
    jobs = getattr(mine, "jobs", 1)
    base = list(mine(rows, params))
    expected = list(base)
    plans = [(f"shards={s}", s) for s in SHARD_MERGE_COUNTS]
    adversarial = _adversarial_cuts(rows, params)
    if adversarial:
        plans.append((f"cuts={list(adversarial)}", ("cuts", adversarial)))
    for label, plan_spec in plans:
        variant = _sharded_canonical(rows, params, engine, jobs, plan_spec)
        if variant != base:
            expected.append(
                (("__shard-merge-divergence__", label), -1, -1, ())
            )
    return expected


RELATIONS: Tuple[MetamorphicRelation, ...] = (
    MetamorphicRelation(
        name="time-shift",
        description="global time shift by a constant",
        paper_basis=(
            "Definitions 4-8 use only inter-arrival differences; a "
            "global shift moves every interval boundary by the shift "
            "and nothing else"
        ),
        transform=_shift_transform,
        expected=_shift_expected,
    ),
    MetamorphicRelation(
        name="item-relabel",
        description="bijective relabeling of the item alphabet",
        paper_basis=(
            "items are opaque labels (Definition 1); a bijection "
            "relabels every pattern and preserves all metadata"
        ),
        transform=_relabel_transform,
        expected=_relabel_expected,
    ),
    MetamorphicRelation(
        name="time-scale",
        description="timestamps and per both scaled by a factor",
        paper_basis=(
            "Definition 4 compares iat <= per; scaling both sides by "
            "the same factor preserves every comparison and scales "
            "interval boundaries"
        ),
        transform=_scale_transform,
        expected=_scale_expected,
    ),
    MetamorphicRelation(
        name="concat-disjoint",
        description="append a time-disjoint shifted copy of the database",
        paper_basis=(
            "no periodic run spans a gap > per (Definition 5), so "
            "recurrence and support are additive over time-disjoint "
            "segments (Definition 8)"
        ),
        transform=_concat_transform,
        expected=_concat_expected,
    ),
    MetamorphicRelation(
        name="event-duplication",
        description="redundant re-statement of events within transactions",
        paper_basis=(
            "the series-to-TDB transformation groups events by "
            "timestamp into set-valued transactions (Section 3); "
            "multiplicity is invisible to the model"
        ),
        transform=_duplicate_transform,
        expected=_duplicate_expected,
    ),
    MetamorphicRelation(
        name="stream-batch",
        description=(
            "sharded streaming replay (shards 1/4/16, under eviction "
            "pressure) equals batch mining"
        ),
        paper_basis=(
            "the streaming monitor maintains Algorithm 1's per-item "
            "state incrementally, so feeding the database through "
            "repro.streaming must reproduce the batch RP-list exactly "
            "(incremental maintenance; Definitions 4-8)"
        ),
        transform=_stream_batch_transform,
        expected=_stream_batch_expected,
    ),
    MetamorphicRelation(
        name="stream-checkpoint-resume",
        description=(
            "checkpoint/restore/resume at a random cut is byte-"
            "identical to the uninterrupted stream (shards 1/4/16)"
        ),
        paper_basis=(
            "the monitor state (Algorithm 1's idl/ps/erec trio plus "
            "closed intervals) is the complete sufficient statistic "
            "of the prefix, so serializing and restoring it must not "
            "change any future output"
        ),
        transform=_checkpoint_transform,
        expected=_checkpoint_expected,
    ),
    MetamorphicRelation(
        name="shard-merge",
        description=(
            "out-of-core sharded mining (shards 1/3/8 plus adversarial "
            "cuts inside recurrence runs) equals in-memory mining"
        ),
        paper_basis=(
            "shards partition the time axis, so a pattern's global "
            "point sequence is the concatenation of its per-shard "
            "sequences; stitching runs whose gap across a cut is <= "
            "per recovers every maximal run, and re-applying minPS/"
            "minRec on the stitched runs recovers Definitions 5 and 8 "
            "exactly"
        ),
        transform=_shard_merge_transform,
        expected=_shard_merge_expected,
    ),
)


def get_relation(name: str) -> MetamorphicRelation:
    """The registered relation called ``name`` (KeyError if unknown)."""
    for relation in RELATIONS:
        if relation.name == name:
            return relation
    raise KeyError(f"unknown metamorphic relation {name!r}")


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
class RelationCase(NamedTuple):
    """One base case a relation is checked on."""

    label: str
    seed: Optional[int]
    rows: Tuple[Row, ...]
    params: CaseParams


def _resolved(rows: Rows, params: CaseParams) -> CaseParams:
    """Fix fractional ``min_ps`` against the base database size.

    Relations that change the transaction count (``concat-disjoint``)
    are only exact for absolute thresholds, so every case is resolved
    once, up front, against its *base* database.
    """
    size = len(TransactionalDatabase(rows))
    return CaseParams(
        params.per,
        resolve_count_threshold(params.min_ps, "min_ps", size),
        params.min_rec,
    )


def running_example_case() -> RelationCase:
    """The paper's Table 1 database at the paper's thresholds."""
    from repro.datasets import paper_running_example

    rows = tuple(
        (ts, tuple(sorted(items, key=repr)))
        for ts, items in paper_running_example()
    )
    return RelationCase("running-example", None, rows, CaseParams(2, 3, 2))


def default_case_corpus(
    n_random: int = 2, base_seed: int = BASE_SEED
) -> List[RelationCase]:
    """The running example plus ``n_random`` seeded random cases.

    Random seeds are offset from the differential sweep's so the two
    suites do not silently test the same databases.
    """
    cases = [running_example_case()]
    seed = base_seed + 100_000
    attempts = 0
    while len(cases) - 1 < n_random and attempts < 20 * max(1, n_random):
        attempts += 1
        seed += 1
        rng = random.Random(seed)
        rows = random_rows(rng)
        params = random_params(rng)
        if len(TransactionalDatabase(rows)) == 0:
            continue
        cases.append(
            RelationCase(
                f"random-{seed}", seed, tuple(rows),
                _resolved(rows, params),
            )
        )
    return cases


def engine_matrix(
    engines: Optional[Sequence[str]] = None,
    jobs_values: Sequence[int] = (1, 2),
) -> List[Tuple[str, int]]:
    """Every (engine, jobs) combination the qa gate must exercise.

    ``engines`` defaults to every registered engine.  Engines without
    the registry's ``supports_jobs`` capability (the single-process
    ``naive`` reference) appear with ``jobs=1`` only; the rest appear
    at every requested ``jobs`` level.
    """
    matrix = []
    for engine in engine_names() if engines is None else engines:
        for jobs in jobs_values:
            if jobs > 1 and not get_engine(engine).supports_jobs:
                continue
            matrix.append((engine, jobs))
    return matrix


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelationViolation:
    """One violated relation prediction, already minimized."""

    relation: str
    engine: str
    jobs: int
    case: str
    seed: Optional[int]
    params: CaseParams
    rows: Tuple[Row, ...]
    minimized_rows: Tuple[Row, ...]
    expected: Tuple[tuple, ...]
    got: Tuple[tuple, ...]

    def reproducer(self) -> str:
        """Paste-ready snippet mining the shrunk base case."""
        return format_reproducer(
            list(self.minimized_rows), self.params, self.engine, self.jobs
        )

    def describe(self) -> str:
        """The full violation report the gate and the tests print."""
        seed = "-" if self.seed is None else str(self.seed)
        return (
            f"metamorphic relation {self.relation!r} violated by engine "
            f"{self.engine!r} (jobs={self.jobs}) on case {self.case!r}."
            f"\nseed: {seed}\nminimized base case (apply the relation's "
            f"transform to reproduce):\n{self.reproducer()}\n"
            f"expected: {list(self.expected)!r}\n"
            f"got:      {list(self.got)!r}"
        )

    def as_dict(self) -> dict:
        """JSON-ready form for the ``repro-qa/v1`` report."""
        return {
            "relation": self.relation,
            "engine": self.engine,
            "jobs": self.jobs,
            "case": self.case,
            "seed": self.seed,
            "params": {
                "per": self.params.per,
                "min_ps": self.params.min_ps,
                "min_rec": self.params.min_rec,
            },
            "minimized_rows": [list(row) for row in self.minimized_rows],
            "reproducer": self.reproducer(),
        }


class _MemoizedMiner:
    """Engine-bound canonical miner with per-check memoization.

    Invariant relations predict "same as base", so the checker would
    otherwise mine the base case twice per (engine, jobs) cell.
    """

    def __init__(self, engine: str, jobs: int):
        self.engine = engine
        self.jobs = jobs
        self._cache: Dict[tuple, Canonical] = {}

    def __call__(self, rows: Rows, params: CaseParams) -> Canonical:
        key = (tuple((ts, tuple(items)) for ts, items in rows), params)
        if key not in self._cache:
            self._cache[key] = mine_canonical(
                rows, params, self.engine, self.jobs
            )
        return self._cache[key]


def _violation_parts(
    relation: MetamorphicRelation,
    rows: Rows,
    params: CaseParams,
    mine: MineFn,
) -> Optional[Tuple[Canonical, Canonical]]:
    """``(expected, got)`` when the relation is violated, else ``None``."""
    if not rows or len(TransactionalDatabase(rows)) == 0:
        return None
    t_rows, t_params = relation.transform(rows, params)
    expected = relation.expected(mine, rows, params)
    got = mine(t_rows, t_params)
    if got == expected:
        return None
    return expected, got


def check_relation(
    relation: MetamorphicRelation,
    case: RelationCase,
    engine: str,
    jobs: int = 1,
    minimize: bool = True,
) -> Optional[RelationViolation]:
    """Check one relation on one case for one engine/jobs combination.

    Returns ``None`` on agreement, otherwise a minimized
    :class:`RelationViolation`: the base rows are greedily shrunk while
    the violation persists, so the reproducer is as small as the bug
    allows.
    """
    mine = _MemoizedMiner(engine, jobs)
    parts = _violation_parts(relation, case.rows, case.params, mine)
    if parts is None:
        return None
    rows = list(case.rows)
    if minimize:
        rows = minimize_case(
            rows,
            lambda trial: _violation_parts(
                relation, trial, case.params, _MemoizedMiner(engine, jobs)
            )
            is not None,
        )
        final = _violation_parts(
            relation, rows, case.params, _MemoizedMiner(engine, jobs)
        )
        if final is not None:
            parts = final
    expected, got = parts
    return RelationViolation(
        relation=relation.name,
        engine=engine,
        jobs=jobs,
        case=case.label,
        seed=case.seed,
        params=case.params,
        rows=tuple(case.rows),
        minimized_rows=tuple(rows),
        expected=tuple(expected),
        got=tuple(got),
    )


@dataclass(frozen=True)
class RelationCheck:
    """Per-(relation, engine, jobs) cell of the relations matrix."""

    relation: str
    engine: str
    jobs: int
    cases: int
    violations: int

    def as_dict(self) -> dict:
        """JSON-ready form for the ``repro-qa/v1`` report."""
        return {
            "relation": self.relation,
            "engine": self.engine,
            "jobs": self.jobs,
            "cases": self.cases,
            "violations": self.violations,
        }


@dataclass
class RelationsResult:
    """Outcome of a full relations sweep."""

    checks: List[RelationCheck] = field(default_factory=list)
    violations: List[RelationViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def cases_checked(self) -> int:
        return sum(check.cases for check in self.checks)


def run_relations(
    cases: Optional[Sequence[RelationCase]] = None,
    relations: Sequence[MetamorphicRelation] = RELATIONS,
    engines: Optional[Sequence[str]] = None,
    jobs_values: Sequence[int] = (1, 2),
    minimize: bool = True,
    deadline: Optional[float] = None,
) -> RelationsResult:
    """Check every relation across the full engine/jobs matrix.

    Every (relation, engine, jobs) cell runs at least its first case
    even when ``deadline`` (an absolute :func:`time.monotonic` instant)
    has passed — the matrix coverage is the point of the gate; the
    budget only trims the per-cell case count.
    """
    if cases is None:
        cases = default_case_corpus()
    result = RelationsResult()
    for relation in relations:
        for engine, jobs in engine_matrix(engines, jobs_values):
            ran = 0
            violations = 0
            for index, case in enumerate(cases):
                if (
                    index > 0
                    and deadline is not None
                    and time.monotonic() >= deadline
                ):
                    break
                violation = check_relation(
                    relation, case, engine, jobs, minimize=minimize
                )
                ran += 1
                if violation is not None:
                    violations += 1
                    result.violations.append(violation)
            result.checks.append(
                RelationCheck(
                    relation=relation.name,
                    engine=engine,
                    jobs=jobs,
                    cases=ran,
                    violations=violations,
                )
            )
    return result
