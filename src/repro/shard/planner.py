"""Time-axis shard planning for out-of-core mining.

A *shard plan* cuts the time axis of a transactional database into
contiguous segments.  Cuts are expressed as timestamps — shard ``k``
holds exactly the transactions with ``cuts[k-1] < ts <= cuts[k]`` — and
every cut is itself the timestamp of the last transaction of its shard,
so a plan can never split transactions that share a timestamp (the
grouping invariant of the series-to-TDB transformation survives
sharding).

Two planning modes cover the two callers:

* :class:`ShardPlanner` balances transaction counts — either a target
  shard count (``shards=N``) or a memory bound
  (``max_transactions=M``, the out-of-core mode);
* :func:`plan_with_cuts` accepts explicit cut timestamps, which the QA
  suites use to place cuts *adversarially inside* recurrence runs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.timeseries.database import TransactionalDatabase

__all__ = ["ShardPlan", "ShardPlanner", "plan_with_cuts"]


@dataclass(frozen=True)
class ShardPlan:
    """Where the time axis is cut, and how big each shard is.

    Attributes
    ----------
    cuts:
        One timestamp per internal boundary (``shard_count - 1`` of
        them): the last transaction timestamp of each non-final shard.
    sizes:
        Transactions per shard, in time order.
    """

    cuts: Tuple[float, ...]
    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sizes and len(self.cuts) != len(self.sizes) - 1:
            raise ParameterError(
                f"a plan with {len(self.sizes)} shards needs "
                f"{len(self.sizes) - 1} cuts, got {len(self.cuts)}"
            )

    @property
    def shard_count(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def slices(
        self, database: TransactionalDatabase
    ) -> Iterator[TransactionalDatabase]:
        """Yield the plan's shards as databases sliced from ``database``."""
        offset = 0
        for size in self.sizes:
            yield TransactionalDatabase(
                database.transactions[offset:offset + size]
            )
            offset += size


class ShardPlanner:
    """Balanced planning by shard count or by per-shard memory bound.

    Exactly one of ``shards`` (target shard count) and
    ``max_transactions`` (upper bound on any shard's transaction count)
    must be given.  Both are clamped so no shard is ever empty.
    """

    def __init__(
        self,
        shards: Optional[int] = None,
        max_transactions: Optional[int] = None,
    ) -> None:
        if (shards is None) == (max_transactions is None):
            raise ParameterError(
                "exactly one of shards and max_transactions must be set"
            )
        for name, value in (
            ("shards", shards), ("max_transactions", max_transactions)
        ):
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 1
            ):
                raise ParameterError(
                    f"{name} must be a positive int, got {value!r}"
                )
        self.shards = shards
        self.max_transactions = max_transactions

    def plan(self, timestamps: Sequence[float]) -> ShardPlan:
        """A balanced plan over strictly increasing ``timestamps``."""
        n = len(timestamps)
        if n == 0:
            return ShardPlan((), ())
        if self.shards is not None:
            count = min(self.shards, n)
        else:
            count = math.ceil(n / self.max_transactions)
        base, extra = divmod(n, count)
        sizes = tuple(
            base + (1 if index < extra else 0) for index in range(count)
        )
        cuts = []
        offset = 0
        for size in sizes[:-1]:
            offset += size
            cuts.append(timestamps[offset - 1])
        return ShardPlan(tuple(cuts), sizes)


def plan_with_cuts(
    timestamps: Sequence[float], cuts: Sequence[float]
) -> ShardPlan:
    """A plan with explicit cut positions (canonicalized, deduplicated).

    Each requested cut is snapped down to the greatest transaction
    timestamp ``<= cut`` (a cut between two transactions separates
    them; a cut *at* a transaction keeps it on the left).  Cuts before
    the first or at/after the last timestamp would create empty shards
    and are dropped.
    """
    n = len(timestamps)
    if n == 0:
        return ShardPlan((), ())
    boundaries = set()
    for cut in cuts:
        index = bisect.bisect_right(timestamps, cut) - 1
        if 0 <= index < n - 1:
            boundaries.add(index)
    ordered = sorted(boundaries)
    sizes = []
    previous = -1
    for index in ordered:
        sizes.append(index - previous)
        previous = index
    sizes.append(n - 1 - previous)
    return ShardPlan(
        tuple(timestamps[index] for index in ordered), tuple(sizes)
    )
