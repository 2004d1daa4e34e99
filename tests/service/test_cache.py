"""The service result cache: derivation byte-identity, LRU, stats.

The cache's headline guarantee is the same theorem the sweep engine
pins (``tests/sweep/test_derivation_property.py``): serving a tighter
``min_rec`` by filtering a cached looser cell of the same ``(dataset,
engine, per, minPS)`` column is byte-identical — same canonical view,
same saved TSV — to mining that cell from scratch.  Here it is checked
at the service boundary, across every registered engine, on seeded
random databases.
"""

import io
import random

import pytest

from repro import mine_recurring_patterns
from repro.core.engines import engine_names
from repro.core.request import MiningRequest
from repro.exceptions import ParameterError
from repro.patterns_io import save_patterns
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
    cache.put(loose, digest, _mine(database, loose), {"schema": "x"})

    for delta in (0, 1, 3):
        tight = loose.with_thresholds(min_rec=min_rec + delta)
        outcome = cache.get(tight, digest)
        assert outcome is not None, "same column must always answer"
        assert outcome.how == ("hit" if delta == 0 else "derived")
        fresh = _mine(database, tight)
        assert canonical(outcome.patterns) == canonical(fresh)
        assert _tsv(outcome.patterns) == _tsv(fresh), (
            f"seed {BASE_SEED + case} engine {engine}: derived TSV "
            f"differs at min_rec={min_rec + delta}"
        )


def test_derivation_prefers_the_tightest_cached_base(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    for min_rec in (1, 2):
        request = MiningRequest(per=2, min_ps=3, min_rec=min_rec)
        cache.put(
            request, digest, _mine(running_example, request), {}
        )
    outcome = cache.get(
        MiningRequest(per=2, min_ps=3, min_rec=3), digest
    )
    assert outcome.how == "derived"
    assert outcome.base_min_rec == 2  # not the looser min_rec=1 cell


def test_looser_requests_never_served_from_tighter_cells(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    tight = MiningRequest(per=2, min_ps=3, min_rec=2)
    cache.put(tight, digest, _mine(running_example, tight), {})
    assert cache.get(
        MiningRequest(per=2, min_ps=3, min_rec=1), digest
    ) is None


def test_no_cross_contamination(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    request = MiningRequest(per=2, min_ps=3, min_rec=1)
    cache.put(request, digest, _mine(running_example, request), {})
    # Different digest, engine, per or min_ps: all misses.
    assert cache.get(request, "other-digest") is None
    for other in (
        MiningRequest(per=2, min_ps=3, min_rec=2, engine="rp-eclat"),
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
    patterns = _mine(running_example, requests[1])
    for request in requests:
        cache.put(request, digest, patterns, {})
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
    patterns = _mine(running_example, b)
    cache.put(a, digest, patterns, {})
    cache.put(b, digest, patterns, {})
    cache.get(a, digest)  # a becomes most recent
    cache.put(c, digest, patterns, {})  # evicts b, not a
    assert cache.get(a, digest) is not None
    assert cache.get(b, digest) is None


def test_stats_counts_every_outcome(running_example):
    digest = running_example.digest()
    cache = ResultCache()
    request = MiningRequest(per=2, min_ps=3, min_rec=1)
    assert cache.get(request, digest) is None
    cache.put(request, digest, _mine(running_example, request), {})
    cache.get(request, digest)
    cache.get(request.with_thresholds(min_rec=2), digest)
    assert cache.stats() == {
        "entries": 1, "hits": 1, "derived": 1, "misses": 1, "evictions": 0,
    }


def test_capacity_validated():
    with pytest.raises(ParameterError, match="max_entries"):
        ResultCache(max_entries=0)
