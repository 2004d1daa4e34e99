"""IBM Quest–style synthetic transactional data (T10I4D100K stand-in).

Reimplements the generation procedure of Agrawal & Srikant (SIGMOD'93 /
VLDB'94), which produced the paper's T10I4D100K database:

1. draw ``n_patterns`` *maximal potential itemsets* whose sizes are
   Poisson-distributed around ``avg_pattern_size`` and whose items are
   partly inherited from the previous pattern (controlled by
   ``correlation``), partly fresh;
2. give each potential itemset an exponentially distributed weight and
   a clipped-normal *corruption level*;
3. fill each transaction (size Poisson around
   ``avg_transaction_size``) by sampling weighted potential itemsets
   and dropping individual items with the itemset's corruption
   probability.

Transactions receive consecutive integer timestamps starting at 1,
optionally with random silent gaps so the time dimension is non-trivial
(the original file has no timestamps; the paper assigns them when
transforming to a time-based sequence).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro._validation import check_count, check_positive
from repro.exceptions import ParameterError
from repro.timeseries.database import TransactionalDatabase

__all__ = ["QuestConfig", "generate_quest"]


@dataclass(frozen=True)
class QuestConfig:
    """Parameters of the Quest generator.

    The defaults are a scaled-down T10I4D100K: mean transaction size 10,
    mean potential-itemset size 4, 941 items — only the transaction
    count is reduced (the paper used 100 000).
    """

    n_transactions: int = 10_000
    n_items: int = 941
    avg_transaction_size: float = 10.0
    avg_pattern_size: float = 4.0
    n_patterns: int = 200
    correlation: float = 0.5
    corruption_mean: float = 0.5
    corruption_sd: float = 0.1
    gap_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_count(self.n_transactions, "n_transactions")
        check_count(self.n_items, "n_items")
        check_count(self.n_patterns, "n_patterns")
        check_positive(self.avg_transaction_size, "avg_transaction_size")
        check_positive(self.avg_pattern_size, "avg_pattern_size")
        if not 0 <= self.correlation <= 1:
            raise ParameterError(
                f"correlation must be in [0, 1], got {self.correlation!r}"
            )
        if not 0 <= self.gap_probability < 1:
            raise ParameterError(
                f"gap_probability must be in [0, 1), got "
                f"{self.gap_probability!r}"
            )


def generate_quest(config: QuestConfig = QuestConfig()) -> TransactionalDatabase:
    """Generate a Quest-style database (deterministic per seed).

    Items are the strings ``"i0" … "i<n_items-1>"``.

    Examples
    --------
    >>> db = generate_quest(QuestConfig(n_transactions=100, seed=7))
    >>> len(db) <= 100  # timestamps with empty baskets are dropped
    True
    """
    rng = np.random.default_rng(config.seed)
    potential = _potential_itemsets(rng, config)
    weights = rng.exponential(1.0, size=len(potential))
    weights /= weights.sum()
    # ``rng.choice(len(potential), p=weights)`` draws one ``random()``
    # and bisects this cdf; building it once per database instead of
    # once per draw keeps every drawn value.
    cumulative = weights.cumsum()
    cdf = (cumulative / cumulative[-1]).tolist()
    corruption = np.clip(
        rng.normal(config.corruption_mean, config.corruption_sd, len(potential)),
        0.0,
        1.0,
    )

    rows: List[Tuple[int, Tuple[str, ...]]] = []
    ts = 0
    for _ in range(config.n_transactions):
        ts += 1
        while config.gap_probability and rng.random() < config.gap_probability:
            ts += 1  # silent timestamp: no transaction is emitted there
        size = max(1, rng.poisson(config.avg_transaction_size))
        basket = _fill_transaction(rng, potential, cdf, corruption, size)
        if basket:
            rows.append((ts, tuple(f"i{i}" for i in basket)))
    return TransactionalDatabase(rows)


def _potential_itemsets(
    rng: np.random.Generator, config: QuestConfig
) -> List[np.ndarray]:
    """Draw the maximal potential itemsets (step 1 of the procedure)."""
    itemsets: List[np.ndarray] = []
    previous: np.ndarray = np.empty(0, dtype=np.int64)
    for _ in range(config.n_patterns):
        size = max(1, rng.poisson(config.avg_pattern_size))
        inherited: Sequence[int] = ()
        if len(previous):
            # The fraction of items carried over from the previous
            # itemset is exponentially distributed with the configured
            # mean, per the original generator.
            fraction = min(1.0, rng.exponential(config.correlation))
            carry = min(len(previous), int(round(fraction * size)))
            if carry:
                inherited = rng.choice(previous, size=carry, replace=False)
        fresh_needed = size - len(inherited)
        fresh = rng.integers(0, config.n_items, size=fresh_needed)
        items = np.unique(np.concatenate([np.asarray(inherited, dtype=np.int64), fresh]))
        itemsets.append(items)
        previous = items
    return itemsets


def _fill_transaction(
    rng: np.random.Generator,
    potential: List[np.ndarray],
    cdf: List[float],
    corruption: np.ndarray,
    size: int,
) -> List[int]:
    """Fill one basket from weighted, corrupted potential itemsets."""
    basket: List[int] = []
    seen = set()
    # The original generator keeps assigning itemsets until the basket
    # is full; an itemset that would overflow is added anyway half the
    # time, otherwise kept for the next transaction (we simply stop —
    # the distributional effect on basket sizes is the same).
    attempts = 0
    while len(basket) < size and attempts < 8 * size:
        attempts += 1
        index = bisect_right(cdf, rng.random())
        drop = corruption[index]
        for item in potential[index]:
            if drop and rng.random() < drop:
                continue
            if item not in seen:
                seen.add(item)
                basket.append(int(item))
        if len(basket) > size and rng.random() < 0.5:
            del basket[size:]
            break
    return basket
