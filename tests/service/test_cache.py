"""The service result cache: derivation byte-identity, LRU, stats.

A cache cell is the patterns TSV its miss served.  The cache's headline
guarantee is the same theorem the sweep engine pins
(``tests/sweep/test_derivation_property.py``): serving a tighter
``min_rec`` by filtering the rows of a cached looser cell of the same
``(dataset, engine, per, minPS)`` column is byte-identical — same saved
TSV, same canonical view once loaded — to mining that cell from
scratch.  Here it is checked at the service boundary, across every
registered engine, on seeded random databases.
"""

import io
import random
import sys
import threading

import pytest

from repro import mine_recurring_patterns
from repro.core.engines import engine_names
from repro.core.request import MiningRequest
from repro.exceptions import ParameterError
from repro.patterns_io import load_patterns, save_patterns
from repro.qa.differential import (
    BASE_SEED,
    canonical,
    random_params,
    random_rows,
)
from repro.service import ResultCache
from repro.timeseries.database import TransactionalDatabase

N_CASES = 6


def _tsv(patterns) -> str:
    buffer = io.StringIO()
    save_patterns(patterns, buffer)
    return buffer.getvalue()


def _mine(database, request):
    return mine_recurring_patterns(
        database,
        per=request.per,
        min_ps=request.min_ps,
        min_rec=request.min_rec,
        engine=request.engine,
    )


# ----------------------------------------------------------------------
# The derivation property, per engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("case", range(N_CASES))
def test_derived_answer_is_byte_identical_to_fresh_mine(engine, case):
    rng = random.Random(BASE_SEED + case)
    database = TransactionalDatabase(random_rows(rng))
    if len(database) == 0:
        pytest.skip("empty database: nothing to mine")
    digest = database.digest()
    per, min_ps, min_rec = random_params(rng)

    cache = ResultCache()
    loose = MiningRequest(
        per=per, min_ps=min_ps, min_rec=min_rec, engine=engine
    )
    cached = _tsv(_mine(database, loose))
    cache.put(loose, digest, cached)

    for delta in (0, 1, 3):
        tight = loose.with_thresholds(min_rec=min_rec + delta)
        outcome = cache.get(tight, digest)
        assert outcome is not None, "same column must always answer"
        assert outcome.how == ("hit" if delta == 0 else "derived")
        if delta == 0:
            assert outcome.patterns_tsv is cached
        fresh = _mine(database, tight)
        assert outcome.patterns_tsv == _tsv(fresh), (
            f"seed {BASE_SEED + case} engine {engine}: derived TSV "
            f"differs at min_rec={min_rec + delta}"
        )
        served = load_patterns(io.StringIO(outcome.patterns_tsv))
        assert canonical(served) == canonical(fresh)
        assert outcome.patterns_found == len(fresh)


def test_derivation_prefers_the_tightest_cached_base(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    for min_rec in (1, 2):
        request = MiningRequest(per=2, min_ps=3, min_rec=min_rec)
        cache.put(request, digest, _tsv(_mine(running_example, request)))
    outcome = cache.get(
        MiningRequest(per=2, min_ps=3, min_rec=3), digest
    )
    assert outcome.how == "derived"
    assert outcome.base_min_rec == 2  # not the looser min_rec=1 cell


def test_looser_requests_never_served_from_tighter_cells(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    tight = MiningRequest(per=2, min_ps=3, min_rec=2)
    cache.put(tight, digest, _tsv(_mine(running_example, tight)))
    assert cache.get(
        MiningRequest(per=2, min_ps=3, min_rec=1), digest
    ) is None


def test_no_cross_contamination(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    request = MiningRequest(per=2, min_ps=3, min_rec=1)
    cache.put(request, digest, _tsv(_mine(running_example, request)))
    # Different digest, engine, per or min_ps: all misses.
    assert cache.get(request, "other-digest") is None
    for other in (
        MiningRequest(per=2, min_ps=3, min_rec=2, engine="rp-eclat-vec"),
        MiningRequest(per=3, min_ps=3, min_rec=2),
        MiningRequest(per=2, min_ps=4, min_rec=2),
    ):
        assert cache.get(other, digest) is None


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
def test_lru_eviction_drops_the_oldest_entry(running_example):
    digest = running_example.digest()
    cache = ResultCache(max_entries=2)
    requests = [
        MiningRequest(per=per, min_ps=3, min_rec=1) for per in (1, 2, 3)
    ]
    patterns_tsv = _tsv(_mine(running_example, requests[1]))
    for request in requests:
        cache.put(request, digest, patterns_tsv)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert cache.get(requests[0], digest) is None  # evicted
    assert cache.get(requests[1], digest).how == "hit"
    assert cache.get(requests[2], digest).how == "hit"


def test_a_hit_refreshes_recency(running_example):
    digest = running_example.digest()
    cache = ResultCache(max_entries=2)
    a = MiningRequest(per=1, min_ps=3)
    b = MiningRequest(per=2, min_ps=3)
    c = MiningRequest(per=3, min_ps=3)
    patterns_tsv = _tsv(_mine(running_example, b))
    cache.put(a, digest, patterns_tsv)
    cache.put(b, digest, patterns_tsv)
    cache.get(a, digest)  # a becomes most recent
    cache.put(c, digest, patterns_tsv)  # evicts b, not a
    assert cache.get(a, digest) is not None
    assert cache.get(b, digest) is None


def test_put_returns_its_own_evictions(running_example):
    digest = running_example.digest()
    cache = ResultCache(max_entries=1)
    a = MiningRequest(per=1, min_ps=3)
    b = MiningRequest(per=2, min_ps=3)
    patterns_tsv = _tsv(_mine(running_example, a))
    assert cache.put(a, digest, patterns_tsv) == 0
    assert cache.put(a, digest, patterns_tsv) == 0  # a replace
    assert cache.put(b, digest, patterns_tsv) == 1
    assert cache.stats()["evictions"] == 1


def test_concurrent_puts_report_every_eviction_once(running_example):
    digest = running_example.digest()
    patterns_tsv = _tsv(
        _mine(running_example, MiningRequest(per=1, min_ps=3))
    )
    cache = ResultCache(max_entries=3)
    threads, per_thread = 8, 50
    reported = [0] * threads

    def worker(index):
        for n in range(per_thread):
            per = 1 + index * per_thread + n
            request = MiningRequest(per=per, min_ps=3)
            reported[index] += cache.put(request, digest, patterns_tsv)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    # Every key is distinct, so all but max_entries puts evict one.
    expected = threads * per_thread - 3
    assert sum(reported) == expected
    assert cache.stats()["evictions"] == expected


def test_digest_memo_is_lru_within_max_entries():
    cache = ResultCache(max_entries=2)
    assert cache.lookup_digest("raw-a") is None
    cache.record_digest("raw-a", "canonical-1")
    cache.record_digest("raw-b", "canonical-1")
    assert cache.lookup_digest("raw-a") == "canonical-1"  # now most recent
    cache.record_digest("raw-c", "canonical-2")  # evicts raw-b, not raw-a
    assert cache.lookup_digest("raw-a") == "canonical-1"
    assert cache.lookup_digest("raw-b") is None
    assert cache.lookup_digest("raw-c") == "canonical-2"
    # The memo is no cache entry and no lookup outcome.
    assert cache.stats() == {
        "entries": 0, "hits": 0, "derived": 0, "misses": 0, "evictions": 0,
    }


def test_stats_counts_every_outcome(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    request = MiningRequest(per=2, min_ps=3, min_rec=1)
    assert cache.get(request, digest) is None
    cache.put(request, digest, _tsv(_mine(running_example, request)))
    cache.get(request, digest)
    cache.get(request.with_thresholds(min_rec=2), digest)
    assert cache.stats() == {
        "entries": 1, "hits": 1, "derived": 1, "misses": 1, "evictions": 0,
    }


def test_capacity_validated():
    with pytest.raises(ParameterError, match="max_entries"):
        ResultCache(max_entries=0)
