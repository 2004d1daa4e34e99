"""Fault-injection matrix for the parallel resilience layer.

Every test injects a deterministic :class:`FaultPlan` into a
``jobs>=2`` ``run_request`` (or façade call) and asserts the two
halves of the resilience contract:

* **equivalence** — the recovered pattern set (and the merged mining
  counters) are identical to the ``jobs=1`` serial run, for every
  fault kind and every parallel-capable engine;
* **accounting** — ``chunks_retried`` / ``chunks_fallback`` and the
  ``FaultEvent`` log match the injected plan.

Chunk-count control: the single-item database mines to exactly one
chunk for every engine (its one item is the only root), so faults are
perfectly attributable and the counter assertions are exact.  Pool-wide
breakage with an innocent in-flight sibling chunk is exercised on the
paper's database (``test_multi_chunk_crash_still_matches_serial``).
"""

import pytest

from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns, run_request
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.core.request import MiningRequest
from repro.datasets import paper_running_example
from repro.exceptions import ChunkFailedError, ParameterError
from repro.obs.report import validate_run_record
from repro.parallel import FAULT_KINDS, FaultPlan, FaultSpec, worker
from repro.parallel.resilience import _retry_delay
from repro.timeseries.database import TransactionalDatabase

pytestmark = pytest.mark.slow

PARAMS = {"per": 2, "min_ps": 3, "min_rec": 2}

#: Three periodic runs; run 3 is separated so the paper's interval
#: logic yields two interesting intervals (recurrence 2).
TS = (1, 2, 3, 5, 6, 7, 11, 12, 13)


def _single_chunk_db() -> TransactionalDatabase:
    """One item, 'a': the only root of every engine, so one chunk."""
    return TransactionalDatabase([(ts, "a") for ts in TS])


def _mine(engine, database, **kwargs):
    """``(patterns, stats, fault_events)`` of one ``run_request``."""
    return run_request(
        database, MiningRequest(engine=engine, **PARAMS, **kwargs)
    )


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
    database = _single_chunk_db()
    serial, serial_stats, _ = _mine(engine, database, jobs=1)
    plan = FaultPlan.single(
        kind, chunk=0, seconds=5.0 if kind == "hang" else 0.2
    )
    resilience = ResilienceOptions(
        timeout=1.0 if kind == "hang" else None, fault_plan=plan
    )
    recovered, stats, faults = _mine(
        engine, database, jobs=2, resilience=resilience
    )

    _assert_identical(serial, recovered)
    assert _mining_counters(stats) == _mining_counters(serial_stats)
    assert stats.chunks_fallback == 0
    if kind == "slow":
        # A straggler is not a failure: no retries, empty fault log.
        assert stats.chunks_retried == 0
        assert faults == []
    else:
        assert stats.chunks_retried == 1
        assert [event.action for event in faults] == ["retry"]
        assert faults[0].chunk == 0


@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_multi_chunk_crash_still_matches_serial(engine):
    """Crash on the paper database (several chunks, both engines)."""
    database = paper_running_example()
    serial, serial_stats, _ = _mine(engine, database, jobs=1)
    recovered, stats, _ = _mine(
        engine, database, jobs=2,
        resilience=ResilienceOptions(
            fault_plan=FaultPlan.single("crash", chunk=0)
        ),
    )
    _assert_identical(serial, recovered)
    assert _mining_counters(stats) == _mining_counters(serial_stats)
    assert stats.chunks_retried >= 1
    assert stats.chunks_fallback == 0


# ----------------------------------------------------------------------
# Retry exhaustion: serial fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_persistent_poison_falls_back_to_serial(engine):
    """execution=None poisons every execution: retries exhaust, the
    chunk is re-mined in-process, and the result is still exact."""
    database = _single_chunk_db()
    serial, serial_stats, _ = _mine(engine, database, jobs=1)
    recovered, stats, faults = _mine(
        engine, database, jobs=2,
        resilience=ResilienceOptions(
            max_retries=1,
            fault_plan=FaultPlan.single("poison", chunk=0, execution=None),
        ),
    )
    _assert_identical(serial, recovered)
    assert _mining_counters(stats) == _mining_counters(serial_stats)
    assert stats.chunks_retried == 1
    assert stats.chunks_fallback == 1
    assert [event.action for event in faults] == [
        "retry", "fallback-serial",
    ]


@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_persistent_crash_falls_back_to_serial(engine):
    """The fallback path must also survive a fault that kills every
    pool — the in-process re-mine runs unguarded, so the injected
    crash cannot reach the parent."""
    database = _single_chunk_db()
    serial, serial_stats, _ = _mine(engine, database, jobs=1)
    recovered, stats, _ = _mine(
        engine, database, jobs=2,
        resilience=ResilienceOptions(
            max_retries=1,
            fault_plan=FaultPlan.single("crash", chunk=0, execution=None),
        ),
    )
    _assert_identical(serial, recovered)
    assert _mining_counters(stats) == _mining_counters(serial_stats)
    assert stats.chunks_retried == 1
    assert stats.chunks_fallback == 1


@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_serial_fallback_leaves_no_worker_state_in_the_parent(
    engine, monkeypatch
):
    """The in-process fallback is handed the workers' state; it must
    not install it in the parent's module global, where a daemon would
    keep the RP-tree or column alive and share it between threads."""
    monkeypatch.setattr(worker, "_STATE", None)
    database = paper_running_example()
    serial, serial_stats, _ = _mine(engine, database, jobs=1)
    recovered, stats, faults = _mine(
        engine, database, jobs=2,
        resilience=ResilienceOptions(
            max_retries=0,
            fault_plan=FaultPlan.single("poison", chunk=0, execution=None),
        ),
    )
    _assert_identical(serial, recovered)
    assert _mining_counters(stats) == _mining_counters(serial_stats)
    assert [event.action for event in faults] == ["fallback-serial"]
    assert worker._STATE is None


# ----------------------------------------------------------------------
# fallback="raise": the silent-abort regression
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_raise_mode_names_prefixes_and_keeps_partial(engine):
    """Regression: a dead chunk used to surface as a bare
    BrokenProcessPool with no prefix attribution and no partial
    result.  ChunkFailedError must carry both.  The dead chunk loses
    its roots' whole sub-problems, 1-patterns included — for RP-growth
    too, whose header items are roots like the vertical engines'."""
    database = _single_chunk_db()
    with pytest.raises(ChunkFailedError) as excinfo:
        _mine(
            engine, database, jobs=2,
            resilience=ResilienceOptions(
                max_retries=0,
                fallback="raise",
                fault_plan=FaultPlan.single(
                    "poison", chunk=0, execution=None
                ),
            ),
        )
    error = excinfo.value
    assert error.failed_prefixes == ("a",)
    assert "a" in str(error)
    assert error.partial is not None and list(error.partial) == []
    assert [event.action for event in error.events] == ["raise"]


# ----------------------------------------------------------------------
# Telemetry: spans and the faults trace section
# ----------------------------------------------------------------------
def test_retry_spans_graft_under_mine():
    """A retried chunk shows up once, as its accepted ``chunk[i]``
    leaf; the retry itself is reported in the ``faults`` section (see
    below), not as a span."""
    database = _single_chunk_db()
    _, telemetry = mine_recurring_patterns(
        database, engine="rp-eclat-vec", **PARAMS, jobs=2,
        resilience=ResilienceOptions(
            fault_plan=FaultPlan.single("poison", chunk=0)
        ),
        observability=ObservabilityOptions(collect_stats=True),
    )
    assert telemetry.stats.chunks_retried == 1
    mine_spans = [
        item
        for root in telemetry.spans
        for _, item in root.walk()
        if item.name == "mine"
    ]
    assert len(mine_spans) == 1, "expected one mine span"
    assert [child.name for child in mine_spans[0].children] == [
        "partition", "chunk[0]",
    ]
    names = {item.name for root in telemetry.spans for _, item in root.walk()}
    assert not names & {"retry", "fallback"}


def test_run_record_carries_faults_section():
    database = _single_chunk_db()
    _, telemetry = mine_recurring_patterns(
        database, engine="rp-eclat-vec", **PARAMS, jobs=2,
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
    database = _single_chunk_db()
    _, telemetry = mine_recurring_patterns(
        database, engine="rp-eclat-vec", **PARAMS, jobs=2,
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


# ----------------------------------------------------------------------
# The retry backoff schedule (docs/performance.md, "Retry policy")
# ----------------------------------------------------------------------
CHUNK_FAILURES = [(chunk, failures) for chunk in range(6)
                  for failures in range(1, 9)]


def test_retry_delay_is_a_pure_function_of_chunk_and_failures():
    first = [_retry_delay(chunk, n) for chunk, n in CHUNK_FAILURES]
    again = [_retry_delay(chunk, n) for chunk, n in CHUNK_FAILURES]
    assert first == again
    # Different chunks failing together do not retry in lockstep.
    assert len({_retry_delay(chunk, 1) for chunk in range(6)}) == 6


def test_retry_delay_doubles_from_backoff_to_cap_plus_bounded_jitter():
    for chunk, failures in CHUNK_FAILURES:
        # From the 7th failure on, 0.05 * 2**(n-1) >= 3.2 s: the cap
        # binds.  The jitter adds at most 25% of the base.
        base = min(0.05 * 2 ** (failures - 1), 2.0)
        delay = _retry_delay(chunk, failures)
        assert base <= delay <= base * 1.25, (chunk, failures, delay)
