"""Cut-boundary stitching: planted runs, every cut position, oracle.

The merge bug class lives exactly at shard boundaries — a maximal
periodic run split by a cut must be stitched back with its original
``ps``, and a pattern whose *only* interesting intervals span cuts must
still be recovered (no shard ever sees it as locally interesting).
These tests place cuts everywhere, including adversarially inside
planted bursts, and compare against both the in-memory engine and the
naive exhaustive oracle from ``qa/differential.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.miner import mine_recurring_patterns
from repro.core.request import MiningRequest
from repro.qa.differential import canonical, oracle_canonical
from repro.shard import mine_sharded_request
from repro.timeseries.database import TransactionalDatabase

from tests.conftest import mining_parameters, small_databases


def _rows(database):
    return [
        (ts, tuple(sorted(itemset, key=repr))) for ts, itemset in database
    ]


def _mine_sharded(database, per, min_ps, min_rec, *, shards=None,
                  cuts=None):
    request = MiningRequest(per, min_ps, min_rec, shards=shards)
    return mine_sharded_request(database, request, cuts=cuts)


def _sharded_canonical(database, per, min_ps, min_rec, **plan):
    found, _, _, _ = _mine_sharded(database, per, min_ps, min_rec, **plan)
    return canonical(found)


# ----------------------------------------------------------------------
# Every cut position on reference databases
# ----------------------------------------------------------------------
def test_every_single_cut_on_running_example(running_example):
    expected = canonical(mine_recurring_patterns(running_example, 2, 3, 2))
    oracle = oracle_canonical(_rows(running_example), (2, 3, 2))
    assert expected == oracle
    for transaction in list(running_example)[:-1]:
        got = _sharded_canonical(
            running_example, 2, 3, 2, cuts=[transaction.ts]
        )
        assert got == expected, f"cut at ts={transaction.ts}"


def test_every_single_cut_on_planted(planted_workload):
    w = planted_workload
    expected = canonical(
        mine_recurring_patterns(w.database, w.per, w.min_ps, w.min_rec)
    )
    for transaction in list(w.database)[:-1]:
        got = _sharded_canonical(
            w.database, w.per, w.min_ps, w.min_rec, cuts=[transaction.ts]
        )
        assert got == expected, f"cut at ts={transaction.ts}"


def test_cuts_inside_every_planted_burst(planted_workload):
    """Adversarial plan: one cut in the middle of every planted interval.

    Every planted burst is split mid-run, so *every* expected pattern
    must be recovered purely by boundary stitching — and the recurrence
    (Rec) and periodic-support (ps) counters must come out exact.
    """
    w = planted_workload
    cuts = [
        (interval.start + interval.end) // 2
        for pattern in w.expected
        for interval in pattern.intervals
    ]
    found, _, _, report = _mine_sharded(
        w.database, w.per, w.min_ps, w.min_rec, cuts=cuts
    )
    expected = mine_recurring_patterns(w.database, w.per, w.min_ps, w.min_rec)
    assert found == expected
    assert report.merge.stitched_runs > 0
    for planted in w.expected:
        mined = found.pattern(planted.items)
        assert mined.recurrence == planted.recurrence
        assert mined.support == planted.support
        assert mined.intervals == planted.intervals


def test_pattern_interesting_only_across_cuts():
    # One 6-long run of "ab"; min_ps=6 means NO shard (cut mid-run)
    # sees an interesting interval — local mining at any threshold
    # finds nothing, so recovery relies purely on boundary candidates.
    database = TransactionalDatabase(
        [(t, "ab") for t in (1, 2, 3, 4, 5, 6)]
    )
    expected = mine_recurring_patterns(database, 1, 6, 1)
    assert len(expected) == 3  # a, b, ab
    for cut in (1, 2, 3, 4, 5):
        found, _, _, report = _mine_sharded(
            database, 1, 6, 1, cuts=[cut]
        )
        assert found == expected, f"cut at {cut}"
        assert report.boundary_candidates >= 3
    # And with a cut at every transaction: maximal fragmentation.
    found, _, _, _ = _mine_sharded(
        database, 1, 6, 1, cuts=[1, 2, 3, 4, 5]
    )
    assert found == expected


def test_run_chain_hops_over_absent_shard():
    # "a" occurs at 1..4 and 6..9 with per=2: one maximal run 1..9.
    # Cutting at 4 and 5 makes a middle shard (ts=5) where "a" is
    # absent — the stitch must chain across it.
    rows = [(t, "a") for t in (1, 2, 3, 4, 6, 7, 8, 9)] + [(5, "b")]
    database = TransactionalDatabase(rows)
    expected = mine_recurring_patterns(database, 2, 8, 1)
    assert [p.sorted_items() for p in expected] == [("a",)]
    found, _, _, report = _mine_sharded(
        database, 2, 8, 1, cuts=[4, 5]
    )
    assert found == expected
    assert report.merge.stitched_runs >= 1


# ----------------------------------------------------------------------
# Randomized differential sweeps
# ----------------------------------------------------------------------
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    database=small_databases(),
    params=mining_parameters(),
    data=st.data(),
)
def test_random_databases_any_cuts_match_engine(database, params, data):
    per, min_ps, min_rec = params
    expected = canonical(
        mine_recurring_patterns(database, per, min_ps, min_rec)
    )
    timestamps = [transaction.ts for transaction in database]
    cuts = data.draw(
        st.lists(
            st.sampled_from(timestamps or [0]),
            min_size=0,
            max_size=4,
        )
    )
    got = _sharded_canonical(database, per, min_ps, min_rec, cuts=cuts)
    assert got == expected
    shards = data.draw(st.integers(min_value=1, max_value=8))
    got = _sharded_canonical(database, per, min_ps, min_rec, shards=shards)
    assert got == expected


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    database=small_databases(max_transactions=12),
    params=mining_parameters(),
    shards=st.integers(min_value=1, max_value=6),
)
def test_random_databases_match_naive_oracle(database, params, shards):
    per, min_ps, min_rec = params
    oracle = oracle_canonical(_rows(database), (per, min_ps, min_rec))
    got = _sharded_canonical(database, per, min_ps, min_rec, shards=shards)
    assert got == oracle


@pytest.mark.slow
def test_every_cut_pair_on_running_example(running_example):
    import itertools

    expected = canonical(mine_recurring_patterns(running_example, 2, 3, 2))
    timestamps = [t.ts for t in running_example][:-1]
    for pair in itertools.combinations(timestamps, 2):
        got = _sharded_canonical(running_example, 2, 3, 2, cuts=list(pair))
        assert got == expected, f"cuts at {pair}"
