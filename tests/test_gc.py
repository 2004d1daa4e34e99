"""The cyclic-collector pause: its contract, and the work it covers.

:func:`repro._gc.paused_gc` flips process state that every thread
shares, so the contract tests check nesting, exceptions, a caller's
own ``gc.disable()``, that collection resumes when the pause that
stopped it ends although another thread's is still open, and that
overlapping pauses from many threads leave collection on.  The count
tests pin where it applies: loading a Quest file and an rp-growth run
through :func:`~repro.core.miner.execute_request` start no collector
pass while they allocate, only the one young-generation pass that
follows the pause.
"""

import gc
import os
import sys
import threading

import pytest

from repro._gc import paused_gc
from repro.bench.workloads import quest_workload
from repro.core.miner import execute_request
from repro.core.request import MiningRequest
from repro.timeseries.io import (
    load_transactional_database,
    save_transactional_database,
)


@pytest.fixture(autouse=True)
def collector_enabled():
    """Each test starts with collection on; a failed one cannot leak
    a disabled collector into the rest of the suite."""
    assert gc.isenabled()
    yield
    gc.enable()


# ----------------------------------------------------------------------
# The helper's contract
# ----------------------------------------------------------------------
def test_pauses_nest():
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_an_exception_inside_a_pause_restores_the_state():
    with pytest.raises(RuntimeError):
        with paused_gc():
            with paused_gc():
                raise RuntimeError("boom")
    assert gc.isenabled()


def test_a_callers_own_disable_survives_a_pause():
    gc.disable()
    with paused_gc():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_collection_resumes_when_the_pause_that_stopped_it_ends():
    inside, release = threading.Event(), threading.Event()

    def other_job():
        with paused_gc():
            inside.set()
            release.wait(timeout=30)

    other = threading.Thread(target=other_job)
    try:
        with paused_gc():
            other.start()
            assert inside.wait(timeout=30)
        # The other pause is still open, but it found collection off
        # already, so it must not keep collection off any longer.
        assert gc.isenabled()
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert gc.isenabled()


def test_overlapping_pauses_from_many_threads():
    threads_count = 4 * (os.cpu_count() or 1) + 4
    bursts, rounds = 50, 40
    start = threading.Barrier(threads_count)

    def worker():
        # Each burst starts every thread at once, so entries and exits
        # race each other; without the lock an entry can read the
        # switch as off just before another pause's exit turns it on,
        # then turn it off for good.
        for _ in range(bursts):
            start.wait(timeout=30)
            for _ in range(rounds):
                with paused_gc():
                    pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker) for _ in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()


# ----------------------------------------------------------------------
# Where the pause applies
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quest_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("quest") / "quest.tsv"
    save_transactional_database(quest_workload(scale=0.02), path)
    return path


def _collections_during(call):
    """``call()``'s result, and the generations of the collections that
    start while it runs."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()  # an empty young generation, so counting starts at 0
    gc.callbacks.append(hook)
    try:
        result = call()
    finally:
        gc.callbacks.remove(hook)
    return result, started


# What a pause allocates is examined once, by the young-generation pass
# that the first allocation after the pause closes starts; depending on
# where that allocation falls, the pass starts inside the call or just
# after it.  With the collector running, the same calls start dozens of
# passes, older generations included.
ONE_YOUNG_PASS_AT_MOST = ([], [0])


def test_loading_a_file_costs_at_most_one_young_pass(quest_file):
    database, started = _collections_during(
        lambda: load_transactional_database(quest_file)
    )
    assert started in ONE_YOUNG_PASS_AT_MOST
    assert gc.isenabled()
    assert len(database) == 2000


@pytest.mark.parametrize("jobs", (1, 2))
def test_an_engine_run_costs_at_most_one_young_pass(quest_file, jobs):
    database = load_transactional_database(quest_file)
    request = MiningRequest(
        per=360, min_ps=0.002, min_rec=1, engine="rp-growth", jobs=jobs
    )
    found, started = _collections_during(
        lambda: execute_request(request, database)
    )
    assert started in ONE_YOUNG_PASS_AT_MOST
    assert gc.isenabled()
    assert len(found) > 0
