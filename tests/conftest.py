"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from itertools import combinations
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.core.intervals import estimated_recurrence
from repro.datasets import (
    generate_planted_workload,
    paper_running_example,
    paper_running_example_events,
)
from repro.timeseries.database import TransactionalDatabase


def pytest_addoption(parser):
    """``--update-golden``: rewrite the qa golden snapshots.

    Declared here (the root conftest) so the option exists no matter
    which test subdirectory is run; only ``tests/qa/test_golden.py``
    consumes it.  See docs/testing.md for the refresh workflow.
    """
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the qa golden snapshots instead of checking them",
    )


@pytest.fixture
def running_example() -> TransactionalDatabase:
    """The paper's Table 1 database."""
    return paper_running_example()


@pytest.fixture
def running_example_events():
    """The paper's Figure 1 event sequence."""
    return paper_running_example_events()


@pytest.fixture
def planted_workload():
    """A planted-pattern workload with known ground truth."""
    return generate_planted_workload(seed=42)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
ITEM_ALPHABET = "abcdef"


@st.composite
def small_databases(
    draw,
    max_items: int = 6,
    max_transactions: int = 30,
    max_timestamp: int = 60,
) -> TransactionalDatabase:
    """Random small transactional databases for cross-engine checks.

    Timestamps are distinct integers; each transaction is a non-empty
    random subset of a small item alphabet.
    """
    n_items = draw(st.integers(min_value=1, max_value=max_items))
    alphabet = ITEM_ALPHABET[:n_items]
    n_transactions = draw(st.integers(min_value=0, max_value=max_transactions))
    timestamps = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_timestamp),
            min_size=n_transactions,
            max_size=n_transactions,
            unique=True,
        )
    )
    rows: List[Tuple[int, str]] = []
    for ts in timestamps:
        itemset = draw(
            st.sets(
                st.sampled_from(alphabet),
                min_size=1,
                max_size=n_items,
            )
        )
        rows.append((ts, "".join(itemset)))
    return TransactionalDatabase(rows)


@st.composite
def mining_parameters(draw) -> Tuple[int, int, int]:
    """Random (per, min_ps, min_rec) triples in a useful small range."""
    per = draw(st.integers(min_value=1, max_value=8))
    min_ps = draw(st.integers(min_value=1, max_value=5))
    min_rec = draw(st.integers(min_value=1, max_value=4))
    return per, min_ps, min_rec


@st.composite
def point_sequences(draw, max_size: int = 40) -> List[int]:
    """Strictly increasing integer timestamp lists."""
    return sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=200),
                min_size=0,
                max_size=max_size,
            )
        )
    )


def bound_passing_itemsets(
    db: TransactionalDatabase,
    per: int,
    min_ps: int,
    min_rec: int,
    pruning: str,
) -> int:
    """How many occurring itemsets pass a pruning bound, by definition.

    ``"erec"`` counts those with ``Erec(TS^X) >= min_rec``; ``"support"``
    those with ``|TS^X| >= min_ps * min_rec``.  Both bounds are
    anti-monotone, so this is the number of lattice nodes a pruning
    engine without a length cap must expand (``candidate_patterns``).
    Thresholds are absolute counts, as :func:`mining_parameters` draws.
    """
    occurring = {
        frozenset(combo)
        for _, items in db
        for size in range(1, len(items) + 1)
        for combo in combinations(sorted(items), size)
    }
    count = 0
    for itemset in occurring:
        ts = db.timestamps_of(itemset)
        if pruning == "erec":
            count += estimated_recurrence(ts, per, min_ps) >= min_rec
        else:
            count += len(ts) >= min_ps * min_rec
    return count
