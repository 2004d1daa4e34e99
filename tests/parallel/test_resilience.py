"""Fault-injection matrix for the parallel resilience layer.

Every test injects a deterministic :class:`FaultPlan` into a
``jobs>=2`` mine and asserts the two halves of the resilience
contract:

* **equivalence** — the recovered pattern set (and the merged mining
  counters) are identical to the ``jobs=1`` serial run, for every
  fault kind and every parallel-capable engine;
* **accounting** — ``chunks_retried`` / ``chunks_fallback`` and the
  ``FaultEvent`` log match the injected plan.

Chunk-count control: the single-item database mines to exactly one
vertical chunk, so vertical-engine faults are perfectly attributable
and the counter assertions are exact.  The two-item database gives
RP-growth two conditional-base chunks; faults that keep the pool
healthy (``poison``, ``slow``) and the deadline path (``hang``) are
still exact, but a ``crash`` breaks the whole pool and may charge the
innocent in-flight chunk too (started-but-not-done attribution), so
those assertions are a tight range rather than an equality.
"""

import pytest

from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.datasets import paper_running_example
from repro.exceptions import ChunkFailedError, ParameterError
from repro.obs.report import validate_run_record
from repro.parallel import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    ParallelMiner,
    RetryPolicy,
)
from repro.timeseries.database import TransactionalDatabase

pytestmark = pytest.mark.slow

PARAMS = {"per": 2, "min_ps": 3, "min_rec": 2}

#: Three periodic runs; run 3 is separated so the paper's interval
#: logic yields two interesting intervals (recurrence 2).
TS = (1, 2, 3, 5, 6, 7, 11, 12, 13)


def _single_chunk_db(engine: str) -> TransactionalDatabase:
    """One vertical chunk ('a' only) / two growth chunks ('ab')."""
    items = "ab" if engine == "rp-growth" else "a"
    return TransactionalDatabase([(ts, items) for ts in TS])


def _mine(engine, database, **kwargs):
    miner = ParallelMiner(engine=engine, **PARAMS, **kwargs)
    return miner, miner.mine(database)


def _mining_counters(stats) -> dict:
    """The engine counters, minus the resilience bookkeeping."""
    counters = stats.as_dict()
    counters.pop("chunks_retried")
    counters.pop("chunks_fallback")
    return counters


def _assert_identical(serial, recovered):
    assert list(recovered) == list(serial)
    for expected, got in zip(serial, recovered):
        assert got.items == expected.items
        assert got.support == expected.support
        assert got.recurrence == expected.recurrence
        assert got.intervals == expected.intervals


# ----------------------------------------------------------------------
# The matrix: every fault kind x every engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_matrix_recovers_serial_result(engine, kind):
    database = _single_chunk_db(engine)
    serial_miner, serial = _mine(engine, database, jobs=1)
    plan = FaultPlan.single(
        kind, chunk=0, seconds=5.0 if kind == "hang" else 0.2
    )
    resilience = ResilienceOptions(
        timeout=1.0 if kind == "hang" else None, fault_plan=plan
    )
    miner, recovered = _mine(
        engine, database, jobs=2, retry_backoff=0.0, resilience=resilience
    )

    _assert_identical(serial, recovered)
    assert _mining_counters(miner.last_stats) == _mining_counters(
        serial_miner.last_stats
    )
    assert miner.last_stats.chunks_fallback == 0
    if kind == "slow":
        # A straggler is not a failure: no retries, empty fault log.
        assert miner.last_stats.chunks_retried == 0
        assert miner.last_faults == []
    elif kind == "crash" and engine == "rp-growth":
        # Pool-wide breakage: the in-flight sibling chunk may be
        # charged too (see module docstring).
        assert 1 <= miner.last_stats.chunks_retried <= 2
        assert all(event.action == "retry" for event in miner.last_faults)
    else:
        assert miner.last_stats.chunks_retried == 1
        assert [event.action for event in miner.last_faults] == ["retry"]
        assert miner.last_faults[0].chunk == 0


@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_multi_chunk_crash_still_matches_serial(engine):
    """Crash on the paper database (several chunks, both engines)."""
    database = paper_running_example()
    serial_miner, serial = _mine(engine, database, jobs=1)
    miner, recovered = _mine(
        engine, database, jobs=2, retry_backoff=0.0,
        resilience=ResilienceOptions(
            fault_plan=FaultPlan.single("crash", chunk=0)
        ),
    )
    _assert_identical(serial, recovered)
    assert _mining_counters(miner.last_stats) == _mining_counters(
        serial_miner.last_stats
    )
    assert miner.last_stats.chunks_retried >= 1
    assert miner.last_stats.chunks_fallback == 0


# ----------------------------------------------------------------------
# Retry exhaustion: serial fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_persistent_poison_falls_back_to_serial(engine):
    """execution=None poisons every execution: retries exhaust, the
    chunk is re-mined in-process, and the result is still exact."""
    database = _single_chunk_db(engine)
    serial_miner, serial = _mine(engine, database, jobs=1)
    miner, recovered = _mine(
        engine, database, jobs=2, retry_backoff=0.0,
        resilience=ResilienceOptions(
            max_retries=1,
            fault_plan=FaultPlan.single("poison", chunk=0, execution=None),
        ),
    )
    _assert_identical(serial, recovered)
    assert _mining_counters(miner.last_stats) == _mining_counters(
        serial_miner.last_stats
    )
    assert miner.last_stats.chunks_retried == 1
    assert miner.last_stats.chunks_fallback == 1
    assert [event.action for event in miner.last_faults] == [
        "retry", "fallback-serial",
    ]


@pytest.mark.parametrize("engine", ("rp-eclat", "rp-eclat-vec"))
def test_persistent_crash_falls_back_to_serial(engine):
    """The fallback path must also survive a fault that kills every
    pool — the in-process re-mine runs unguarded, so the injected
    crash cannot reach the parent."""
    database = _single_chunk_db(engine)
    _, serial = _mine(engine, database, jobs=1)
    miner, recovered = _mine(
        engine, database, jobs=2, retry_backoff=0.0,
        resilience=ResilienceOptions(
            max_retries=1,
            fault_plan=FaultPlan.single("crash", chunk=0, execution=None),
        ),
    )
    _assert_identical(serial, recovered)
    assert miner.last_stats.chunks_retried == 1
    assert miner.last_stats.chunks_fallback == 1


# ----------------------------------------------------------------------
# fallback="raise": the silent-abort regression
# ----------------------------------------------------------------------
def test_raise_mode_names_prefixes_and_keeps_partial_vertical():
    """Regression: a dead chunk used to surface as a bare
    BrokenProcessPool with no prefix attribution and no partial
    result.  ChunkFailedError must carry both."""
    database = _single_chunk_db("rp-eclat")
    miner = ParallelMiner(
        engine="rp-eclat", **PARAMS, jobs=2, retry_backoff=0.0,
        resilience=ResilienceOptions(
            max_retries=0,
            fallback="raise",
            fault_plan=FaultPlan.single("poison", chunk=0, execution=None),
        ),
    )
    with pytest.raises(ChunkFailedError) as excinfo:
        miner.mine(database)
    error = excinfo.value
    assert error.failed_prefixes == ("a",)
    assert "a" in str(error)
    assert error.partial is not None and list(error.partial) == []
    assert [event.action for event in error.events] == ["raise"]


def test_raise_mode_keeps_partial_growth():
    """RP-growth: the serial header sweep's 1-patterns survive into
    the partial result even when a conditional chunk dies."""
    database = _single_chunk_db("rp-growth")
    miner = ParallelMiner(
        engine="rp-growth", **PARAMS, jobs=2, retry_backoff=0.0,
        resilience=ResilienceOptions(
            max_retries=0,
            fallback="raise",
            fault_plan=FaultPlan.single("poison", chunk=0, execution=None),
        ),
    )
    with pytest.raises(ChunkFailedError) as excinfo:
        miner.mine(database)
    error = excinfo.value
    # Chunk 0 is the largest conditional base: suffix item 'b'.
    assert error.failed_prefixes == ("b",)
    partial_items = {frozenset(p.items) for p in error.partial}
    assert {frozenset("a"), frozenset("b")} <= partial_items


# ----------------------------------------------------------------------
# Telemetry: spans and the faults trace section
# ----------------------------------------------------------------------
def test_retry_spans_graft_under_mine():
    database = _single_chunk_db("rp-eclat")
    _, telemetry = mine_recurring_patterns(
        database, engine="rp-eclat", **PARAMS, jobs=2,
        resilience=ResilienceOptions(
            fault_plan=FaultPlan.single("poison", chunk=0)
        ),
        observability=ObservabilityOptions(collect_stats=True),
    )
    mine_spans = [
        item
        for root in telemetry.spans
        for _, item in root.walk()
        if item.name == "mine"
    ]
    assert mine_spans, "no mine span collected"
    child_names = [child.name for child in mine_spans[0].children]
    assert "retry" in child_names
    assert any(name.startswith("chunk[") for name in child_names)


def test_run_record_carries_faults_section():
    database = _single_chunk_db("rp-eclat")
    _, telemetry = mine_recurring_patterns(
        database, engine="rp-eclat", **PARAMS, jobs=2,
        resilience=ResilienceOptions(
            fault_plan=FaultPlan.single("poison", chunk=0)
        ),
        observability=ObservabilityOptions(collect_stats=True),
    )
    record = telemetry.as_run_record()
    validate_run_record(record)
    faults = record["faults"]
    assert faults["chunks_retried"] == 1
    assert faults["chunks_fallback"] == 0
    assert faults["events"] == [
        {
            "chunk": 0,
            "execution": 1,
            "reason": "poisoned result (str)",
            "action": "retry",
        }
    ]
    assert record["counters"]["chunks_retried"] == 1


def test_clean_run_has_no_faults_section():
    database = _single_chunk_db("rp-eclat")
    _, telemetry = mine_recurring_patterns(
        database, engine="rp-eclat", **PARAMS, jobs=2,
        observability=ObservabilityOptions(collect_stats=True),
    )
    record = telemetry.as_run_record()
    validate_run_record(record)
    assert "faults" not in record
    assert record["counters"]["chunks_retried"] == 0
    assert record["counters"]["chunks_fallback"] == 0


# ----------------------------------------------------------------------
# Parameter validation (no pools involved)
# ----------------------------------------------------------------------
def test_fault_spec_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        FaultSpec(0, "meteor")


def test_fault_spec_rejects_bad_execution():
    with pytest.raises(ParameterError):
        FaultSpec(0, "crash", execution=0)


def test_retry_policy_rejects_bad_values():
    with pytest.raises(ParameterError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ParameterError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ParameterError):
        RetryPolicy(backoff=-0.1)


def test_miner_rejects_bad_fallback():
    with pytest.raises(ParameterError):
        ParallelMiner(
            **PARAMS, resilience=ResilienceOptions(fallback="shrug")
        )


def test_fault_plan_lookup():
    plan = FaultPlan.of(
        FaultSpec(1, "crash", execution=2),
        FaultSpec(2, "poison", execution=None),
    )
    assert plan.find(1, 1) is None
    assert plan.find(1, 2).kind == "crash"
    assert plan.find(2, 1).kind == "poison"
    assert plan.find(2, 9).kind == "poison"
    assert plan.find(0, 1) is None
