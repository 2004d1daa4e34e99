"""End-to-end tests of the mining service daemon.

Each test boots a real :class:`~repro.service.MiningService` on an
ephemeral port (a dedicated thread runs the asyncio loop) and drives it
with the blocking :class:`~repro.service.ServiceClient` — exactly the
path ``repro-mine submit/status/fetch`` takes.
"""

import asyncio
import contextlib
import gc
import io
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import mine_recurring_patterns
from repro.core.request import DatasetRef, MiningRequest
from repro.obs.report import iter_trace, validate_run_record
from repro.patterns_io import load_patterns, save_patterns
from repro.service import MiningService, ServiceClient, ServiceError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import load_transactional_database


@contextlib.contextmanager
def running_service(**kwargs):
    """A live service on an ephemeral port, stopped (drained) on exit."""
    service = MiningService(port=0, **kwargs)
    ready = threading.Event()
    state = {}

    def run():
        async def main():
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            await service.start()
            ready.set()
            await state["stop"].wait()
            await service.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "service failed to start"
    try:
        yield service
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(30)


def _tsv(patterns) -> str:
    buffer = io.StringIO()
    save_patterns(patterns, buffer)
    return buffer.getvalue()


@pytest.fixture
def example_ref(running_example):
    return DatasetRef.from_database(running_example)


# ----------------------------------------------------------------------
# The happy path
# ----------------------------------------------------------------------
def test_submit_poll_fetch_round_trip(running_example, example_ref):
    with running_service() as service:
        client = ServiceClient(port=service.port)
        job_id = client.submit(
            MiningRequest(per=2, min_ps=3, min_rec=2, source=example_ref)
        )
        assert job_id == "job-000001"
        status = client.wait(job_id, timeout=60)
        assert status["status"] == "done"
        assert status["cache"] == "miss"
        assert status["seconds"] > 0
        result = client.result(job_id)
        served = load_patterns(io.StringIO(result["patterns_tsv"]))
        direct = mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2
        )
        assert served == direct
        assert result["patterns_found"] == len(direct) == 8


def test_cache_miss_then_hit_then_derived(running_example, example_ref):
    with running_service() as service:
        client = ServiceClient(port=service.port)
        loose = MiningRequest(per=2, min_ps=3, min_rec=1, source=example_ref)
        first = client.submit(loose)
        client.wait(first, timeout=60)
        second = client.submit(loose)
        client.wait(second, timeout=60)
        tight = MiningRequest(per=2, min_ps=3, min_rec=2, source=example_ref)
        third = client.submit(tight)
        client.wait(third, timeout=60)

        assert client.result(first)["cache"] == "miss"
        assert client.result(second)["cache"] == "hit"
        result = client.result(third)
        assert result["cache"] == "derived"
        # The derived answer is byte-identical to a fresh mine.
        fresh = mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2
        )
        assert result["patterns_tsv"] == _tsv(fresh)
        # And the hit returned the exact bytes of the first answer.
        assert (
            client.result(second)["patterns_tsv"]
            == client.result(first)["patterns_tsv"]
        )

        metrics = client.metrics()
        assert "repro_service_jobs_submitted_total 3" in metrics
        assert "repro_service_cache_miss_total 1" in metrics
        assert "repro_service_cache_hit_total 1" in metrics
        assert "repro_service_cache_derived_total 1" in metrics
        assert (
            'repro_service_jobs_served_total{result="done"} 3' in metrics
        )


def test_a_cell_is_serialized_once_and_shared_by_its_hits(
    running_example, example_ref, monkeypatch
):
    """A miss serializes its patterns once and caches that TSV; every
    hit's job holds that very string, and a derivation filters its
    rows, so neither calls ``save_patterns``."""
    import repro.service.daemon as daemon

    saved = []
    original = daemon.save_patterns

    def save_patterns(patterns, target):
        saved.append(len(patterns))
        original(patterns, target)

    monkeypatch.setattr(daemon, "save_patterns", save_patterns)
    loose = MiningRequest(per=2, min_ps=3, min_rec=1, source=example_ref)
    tight = loose.with_thresholds(min_rec=2)
    with running_service() as service:
        client = ServiceClient(port=service.port)
        jobs = []
        for request in (loose, loose, tight, loose):
            job_id = client.submit(request)
            assert client.wait(job_id, timeout=60)["status"] == "done"
            jobs.append(service.jobs.get(job_id))
    miss, first_hit, derived, second_hit = jobs
    assert [job.cache for job in jobs] == ["miss", "hit", "derived", "hit"]
    assert saved == [miss.patterns_found]
    assert first_hit.patterns_tsv is miss.patterns_tsv
    assert second_hit.patterns_tsv is miss.patterns_tsv
    assert derived.patterns_tsv == _tsv(
        mine_recurring_patterns(running_example, per=2, min_ps=3, min_rec=2)
    )
    assert derived.patterns_found == 8


def test_hits_hold_no_copy_of_their_answer(tmp_path):
    """Twenty more hits on a cached quest-0.02 cell keep tracemalloc's
    traced memory within half of one answer's length: each hit's job
    holds the cell's string, not a serialization of its own."""
    import tracemalloc

    from repro.bench.workloads import quest_workload
    from repro.timeseries.io import save_transactional_database

    path = tmp_path / "quest.tsv"
    save_transactional_database(quest_workload(0.02), str(path))
    request = MiningRequest(
        per=1440, min_ps=0.002, min_rec=1, source=DatasetRef.file(str(path))
    )
    service = MiningService(port=0)

    def serve():
        job = service.jobs.create(request)
        service._execute(job)
        assert job.status == "done", job.error
        return job

    miss, first_hit = serve(), serve()
    assert (miss.cache, first_hit.cache) == ("miss", "hit")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hits = [serve() for _ in range(20)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert {job.cache for job in hits} == {"hit"}
    assert grown < len(miss.patterns_tsv) / 2, (
        f"20 hits grew {grown} bytes; one answer is "
        f"{len(miss.patterns_tsv)}"
    )


def test_workload_source_needs_no_files(running_example):
    del running_example
    with running_service() as service:
        client = ServiceClient(port=service.port)
        job_id = client.submit(
            MiningRequest(
                per=2,
                min_ps=2,
                source=DatasetRef.named_workload(
                    "quest", scale=0.01, seed=1
                ),
            )
        )
        status = client.wait(job_id, timeout=120)
        assert status["status"] == "done", status


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def test_concurrent_submissions_all_complete(running_example, example_ref):
    with running_service(workers=2) as service:
        client = ServiceClient(port=service.port)
        # Prime the column so the concurrent wave is served from cache.
        primer = client.submit(
            MiningRequest(per=2, min_ps=3, min_rec=1, source=example_ref)
        )
        assert client.wait(primer, timeout=60)["status"] == "done"

        def one(min_rec: int) -> str:
            job_id = client.submit(
                MiningRequest(
                    per=2, min_ps=3, min_rec=min_rec, source=example_ref
                )
            )
            status = client.wait(job_id, timeout=60)
            assert status["status"] == "done", status
            return client.result(job_id)["patterns_tsv"]

        min_recs = [1, 2, 3, 1, 2, 3, 4, 1]
        with ThreadPoolExecutor(max_workers=8) as pool:
            served = list(pool.map(one, min_recs))
        for min_rec, tsv in zip(min_recs, served):
            fresh = mine_recurring_patterns(
                running_example, per=2, min_ps=3, min_rec=min_rec
            )
            assert tsv == _tsv(fresh), f"min_rec={min_rec} diverged"
        # Every one of the 8 was answered from the primed cell.
        stats = service.cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] + stats["derived"] == len(min_recs)


def test_concurrent_misses_leave_the_collector_enabled(example_ref):
    # Two workers load and mine at once, so their collector pauses
    # overlap; the pause that turned collection off turns it back on.
    with running_service(workers=2) as service:
        client = ServiceClient(port=service.port)

        def one(per: int) -> str:
            job_id = client.submit(
                MiningRequest(per=per, min_ps=2, min_rec=1, source=example_ref)
            )
            return client.wait(job_id, timeout=60)["status"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            statuses = list(pool.map(one, range(1, 9)))
        assert statuses == ["done"] * 8
        assert service.cache.stats()["misses"] == 8
    assert gc.isenabled()


# ----------------------------------------------------------------------
# Eviction, failures, protocol errors
# ----------------------------------------------------------------------
def test_eviction_surfaces_in_metrics(example_ref):
    with running_service(cache_size=1) as service:
        client = ServiceClient(port=service.port)
        for per in (1, 2):
            job_id = client.submit(
                MiningRequest(per=per, min_ps=3, source=example_ref)
            )
            assert client.wait(job_id, timeout=60)["status"] == "done"
        assert service.cache.stats()["evictions"] == 1
        assert (
            "repro_service_cache_evictions_total 1" in client.metrics()
        )


def test_failed_job_surfaces_its_error(tmp_path):
    with running_service() as service:
        client = ServiceClient(port=service.port)
        job_id = client.submit(
            MiningRequest(
                per=2,
                min_ps=3,
                source=DatasetRef.file(str(tmp_path / "missing.tsv")),
            )
        )
        status = client.wait(job_id, timeout=60)
        assert status["status"] == "failed"
        assert "missing.tsv" in status["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409
        assert (
            'repro_service_jobs_served_total{result="failed"} 1'
            in client.metrics()
        )


def test_protocol_errors(example_ref):
    with running_service() as service:
        client = ServiceClient(port=service.port)
        # Unknown job: 404 from both routes.
        for path in ("/jobs/nope", "/jobs/nope/result"):
            status, _ = client._request("GET", path)
            assert status == 404
        # Invalid request bodies: 400 with the validation message.
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/jobs", {"per": 2})
        assert excinfo.value.status == 400
        assert "min_ps" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/jobs", {"per": 2, "min_ps": 3, "x": 1})
        assert excinfo.value.status == 400
        # A request without a source cannot be served.
        with pytest.raises(ServiceError, match="source"):
            client.submit(MiningRequest(per=2, min_ps=3))
        # Wrong methods.
        assert client._request("GET", "/jobs")[0] == 405
        # Health endpoint.
        health = client._json("GET", "/healthz")
        assert health["status"] == "ok"
        del example_ref


def test_file_ref_with_a_non_string_path_is_refused(example_ref):
    # open() would take an int path for a descriptor of the daemon's
    # own, read it, and close it.
    read_fd, write_fd = os.pipe()
    os.close(write_fd)
    try:
        with running_service() as service:
            client = ServiceClient(port=service.port)
            body = MiningRequest(per=2, min_ps=3, source=example_ref).to_dict()
            for path in (read_fd, 3.5, ["x"]):
                body["source"] = {"kind": "file", "path": path}
                with pytest.raises(ServiceError) as excinfo:
                    client._json("POST", "/jobs", body)
                assert excinfo.value.status == 400
                assert "path" in str(excinfo.value)
            assert len(service.jobs) == 0
            job_id = client.submit(
                MiningRequest(per=2, min_ps=3, source=example_ref)
            )
            assert client.wait(job_id, timeout=60)["status"] == "done"
        os.fstat(read_fd)  # never read or closed by the daemon
    finally:
        os.close(read_fd)


def test_unreachable_service_raises_service_error():
    client = ServiceClient(port=1)  # nothing listens there
    with pytest.raises(ServiceError, match="repro-mine serve"):
        client.status("job-000001")


# ----------------------------------------------------------------------
# File sources: the bytes are the identity
# ----------------------------------------------------------------------
#: The running example's TSV, and a variant of the same length whose
#: line 9 holds other items, so it mines to another answer.
EXAMPLE_TSV = (
    b"1\ta b g\n2\ta c d\n3\ta b e f\n4\ta b c d\n5\tc d e f g\n"
    b"6\te f g\n7\ta b c g\n9\tc d\n10\tc d e f\n11\ta b e f\n"
    b"12\ta b c d e f g\n14\ta b g\n"
)
VARIANT_TSV = EXAMPLE_TSV.replace(b"9\tc d\n", b"9\ta b\n")


def _counted_loads(monkeypatch):
    """Patch ``DatasetRef.load`` to record the path of every parse."""
    parsed = []
    original = DatasetRef.load

    def load(self, *args, **kwargs):
        parsed.append(self.path)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DatasetRef, "load", load)
    return parsed


def _answer(client, request) -> dict:
    job_id = client.submit(request)
    status = client.wait(job_id, timeout=60)
    assert status["status"] == "done", status
    return client.result(job_id)


def _fresh_tsv(content: bytes, request, tmp_path) -> str:
    """A local mine of ``content``, for comparison with the daemon."""
    path = tmp_path / "fresh.tsv"
    path.write_bytes(content)
    return _tsv(
        mine_recurring_patterns(
            load_transactional_database(str(path)),
            per=request.per,
            min_ps=request.min_ps,
            min_rec=request.min_rec,
            engine=request.engine,
        )
    )


def _file_request(path, min_rec=1, per=2):
    return MiningRequest(
        per=per, min_ps=3, min_rec=min_rec, source=DatasetRef.file(str(path))
    )


def test_file_hits_and_derivations_never_parse(tmp_path, monkeypatch):
    path = tmp_path / "example.tsv"
    path.write_bytes(EXAMPLE_TSV)
    parsed = _counted_loads(monkeypatch)
    with running_service() as service:
        client = ServiceClient(port=service.port)
        assert _answer(client, _file_request(path))["cache"] == "miss"
        assert parsed == [str(path)]
        assert _answer(client, _file_request(path))["cache"] == "hit"
        derived = _answer(client, _file_request(path, min_rec=2))
        assert derived["cache"] == "derived"
        assert parsed == [str(path)]
    assert derived["patterns_tsv"] == _fresh_tsv(
        EXAMPLE_TSV, _file_request(path, min_rec=2), tmp_path
    )


def test_rewrite_in_place_with_size_and_mtime_restored(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_bytes(EXAMPLE_TSV)
    before = os.stat(path)
    request = _file_request(path)
    with running_service() as service:
        client = ServiceClient(port=service.port)
        first = _answer(client, request)
        with open(path, "r+b") as handle:
            handle.write(VARIANT_TSV)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
            before.st_size, before.st_mtime_ns, before.st_ino
        )
        second = _answer(client, request)
    assert second["cache"] == "miss"
    assert second["patterns_tsv"] == _fresh_tsv(VARIANT_TSV, request, tmp_path)
    assert second["patterns_tsv"] != first["patterns_tsv"]


def test_replace_by_rename(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_bytes(EXAMPLE_TSV)
    request = _file_request(path)
    with running_service() as service:
        client = ServiceClient(port=service.port)
        first = _answer(client, request)
        staged = tmp_path / "data.tsv.new"
        staged.write_bytes(VARIANT_TSV)
        os.replace(staged, path)
        second = _answer(client, request)
    assert second["cache"] == "miss"
    assert second["patterns_tsv"] == _fresh_tsv(VARIANT_TSV, request, tmp_path)
    assert second["patterns_tsv"] != first["patterns_tsv"]


def test_file_deleted_between_submits_fails_naming_it(tmp_path):
    path = tmp_path / "vanishing.tsv"
    path.write_bytes(EXAMPLE_TSV)
    with running_service() as service:
        client = ServiceClient(port=service.port)
        assert _answer(client, _file_request(path))["cache"] == "miss"
        path.unlink()
        job_id = client.submit(_file_request(path))
        status = client.wait(job_id, timeout=60)
    assert status["status"] == "failed"
    assert str(path) in status["error"]


def test_byte_identical_files_parse_once(tmp_path, monkeypatch):
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    first.write_bytes(EXAMPLE_TSV)
    second.write_bytes(EXAMPLE_TSV)
    parsed = _counted_loads(monkeypatch)
    with running_service() as service:
        client = ServiceClient(port=service.port)
        assert _answer(client, _file_request(first))["cache"] == "miss"
        assert _answer(client, _file_request(second))["cache"] == "hit"
    assert parsed == [str(first)]


def test_reformatted_content_parses_once_then_shares_cells(
    tmp_path, monkeypatch
):
    # CRLF line ends and reordered items: other bytes, same database.
    lines = EXAMPLE_TSV.decode("utf-8").splitlines()
    reformatted = "".join(
        f"{ts}\t{' '.join(reversed(items.split()))}\r\n"
        for ts, items in (line.split("\t") for line in lines)
    ).encode("utf-8")
    assert reformatted != EXAMPLE_TSV
    plain, other = tmp_path / "plain.tsv", tmp_path / "other.tsv"
    plain.write_bytes(EXAMPLE_TSV)
    other.write_bytes(reformatted)
    parsed = _counted_loads(monkeypatch)
    with running_service() as service:
        client = ServiceClient(port=service.port)
        assert _answer(client, _file_request(plain))["cache"] == "miss"
        assert _answer(client, _file_request(other))["cache"] == "hit"
        assert _answer(client, _file_request(other))["cache"] == "hit"
    assert parsed == [str(plain), str(other)]


def test_digest_memo_is_bounded_by_the_cache_size(tmp_path, monkeypatch):
    # Two spellings of one database: the single cached cell answers
    # both, so only the memo's bound can make the first parse again.
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    first.write_bytes(EXAMPLE_TSV)
    second.write_bytes(EXAMPLE_TSV.replace(b"\n", b"\r\n"))
    parsed = _counted_loads(monkeypatch)
    with running_service(cache_size=1) as service:
        client = ServiceClient(port=service.port)
        outcomes = [
            _answer(client, _file_request(path))["cache"]
            for path in (first, second, first)
        ]
    assert outcomes == ["miss", "hit", "hit"]
    assert parsed == [str(first), str(second), str(first)]


def test_a_miss_on_known_bytes_does_not_hash_the_database(
    tmp_path, monkeypatch
):
    """The memo already maps these bytes to their digest, so a second
    miss on them (another ``per``) hands that digest to its run record
    instead of hashing the freshly parsed database again."""
    path = tmp_path / "example.tsv"
    path.write_bytes(EXAMPLE_TSV)
    trace_path = tmp_path / "service.jsonl"
    hashed = []
    original = TransactionalDatabase.digest

    def digest(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(TransactionalDatabase, "digest", digest)
    with running_service(trace=str(trace_path)) as service:
        client = ServiceClient(port=service.port)
        assert _answer(client, _file_request(path, per=2))["cache"] == "miss"
        assert len(hashed) == 1
        assert _answer(client, _file_request(path, per=3))["cache"] == "miss"
        assert len(hashed) == 1
    fresh = original(load_transactional_database(str(path)))
    records = list(iter_trace(str(trace_path)))
    assert [record["params"]["per"] for record in records] == [2, 3]
    assert [record["dataset_digest"] for record in records] == [fresh, fresh]


def test_a_vec_miss_builds_no_row_view_and_no_item_index(
    tmp_path, monkeypatch
):
    """A miss parses the file into the database's id columns; the
    digest and the rp-eclat-vec kernel's columnar view read those
    columns, so neither the row tuple nor the item -> timestamps index
    of the loaded database is ever built."""
    path = tmp_path / "example.tsv"
    path.write_bytes(EXAMPLE_TSV)
    built = []
    rows = TransactionalDatabase.transactions
    index = TransactionalDatabase.item_timestamps

    def transactions(self):
        built.append("transactions")
        return rows.fget(self)

    def item_timestamps(self):
        built.append("item_timestamps")
        return index(self)

    monkeypatch.setattr(
        TransactionalDatabase, "transactions", property(transactions)
    )
    monkeypatch.setattr(
        TransactionalDatabase, "item_timestamps", item_timestamps
    )
    request = MiningRequest(
        per=2, min_ps=3, min_rec=1, engine="rp-eclat-vec",
        source=DatasetRef.file(str(path)),
    )
    with running_service() as service:
        client = ServiceClient(port=service.port)
        answer = _answer(client, request)
    assert answer["cache"] == "miss"
    assert built == []
    assert answer["patterns_tsv"] == _fresh_tsv(EXAMPLE_TSV, request, tmp_path)


def test_concurrent_file_requests_under_contention(tmp_path):
    # Two pairs of byte-identical files, sixteen jobs at once on more
    # workers than cores, with the interpreter switching threads as
    # often as it can: every answer must still be its file's own.
    contents = {}
    for name, content in (("a", EXAMPLE_TSV), ("b", VARIANT_TSV)):
        for copy in (1, 2):
            path = tmp_path / f"{name}{copy}.tsv"
            path.write_bytes(content)
            contents[str(path)] = content
    requests = [
        _file_request(path, min_rec=min_rec, per=per)
        for path in contents
        for per in (2, 3)
        for min_rec in (1, 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with running_service(workers=4) as service:
            client = ServiceClient(port=service.port)
            with ThreadPoolExecutor(max_workers=len(requests)) as pool:
                job_ids = list(pool.map(client.submit, requests))
                statuses = list(
                    pool.map(lambda j: client.wait(j, timeout=120), job_ids)
                )
                answers = list(pool.map(client.result, job_ids))
            stats = service.cache.stats()
    finally:
        sys.setswitchinterval(interval)
    assert [s["status"] for s in statuses] == ["done"] * len(requests)
    for request, answer in zip(requests, answers):
        content = contents[request.source.path]
        assert answer["patterns_tsv"] == _fresh_tsv(content, request, tmp_path)
    assert stats["hits"] + stats["derived"] + stats["misses"] == len(requests)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_every_served_job_emits_a_valid_run_record(
    tmp_path, example_ref
):
    trace_path = tmp_path / "service.jsonl"
    with running_service(trace=str(trace_path)) as service:
        client = ServiceClient(port=service.port)
        loose = MiningRequest(per=2, min_ps=3, min_rec=1, source=example_ref)
        for request in (loose, loose, loose.with_thresholds(min_rec=2)):
            job_id = client.submit(request)
            assert client.wait(job_id, timeout=60)["status"] == "done"
    records = [r for r in iter_trace(str(trace_path)) if r.get("kind") == "run"]
    assert [r["cache"] for r in records] == ["miss", "hit", "derived"]
    digests = set()
    for record in records:
        validate_run_record(record)
        digests.add(record["dataset_digest"])
    assert len(digests) == 1  # all three served the same content
    assert records[2]["params"]["min_rec"] == 2
    assert records[2]["cache_base_min_rec"] == 1


def test_served_records_describe_the_serve(tmp_path, example_ref, capsys):
    from repro.cli import main

    trace_path = tmp_path / "service.jsonl"
    with running_service(trace=str(trace_path)) as service:
        client = ServiceClient(port=service.port)
        loose = MiningRequest(per=2, min_ps=3, min_rec=1, source=example_ref)
        for request in (loose, loose, loose.with_thresholds(min_rec=2)):
            job_id = client.submit(request)
            assert client.wait(job_id, timeout=60)["status"] == "done"
    miss, hit, derived = iter_trace(str(trace_path))
    assert miss["counters"]["erec_evaluations"] > 0
    assert [root["name"] for root in miss["spans"]] == [
        "transform", "first_scan", "tree_build", "mine",
    ]
    for served, found in ((hit, miss["patterns_found"]), (derived, 8)):
        assert served["patterns_found"] == found
        assert served["spans"] == []
        assert served["counters"] == {
            name: found if name == "patterns_found" else 0
            for name in miss["counters"]
        }
        assert served["dataset"] == miss["dataset"]
    # A trace of the daemon counts the one mine once.
    assert main(["trace", "--input", str(trace_path)]) == 0
    report = capsys.readouterr().out
    tree = report.split("span tree:")[1].split("per-phase aggregate")[0]
    assert tree.count("first_scan") == 1


def test_record_seconds_cover_the_whole_job(tmp_path, example_ref):
    """Regression: a hit's record stopped at the cache answer and a
    miss's covered only the mine.  Every record's ``seconds`` is now
    its job's, the TSV write included."""
    trace_path = tmp_path / "service.jsonl"
    job_seconds = []
    with running_service(trace=str(trace_path)) as service:
        client = ServiceClient(port=service.port)
        loose = MiningRequest(per=2, min_ps=3, min_rec=1, source=example_ref)
        for request in (loose, loose, loose.with_thresholds(min_rec=2)):
            status = client.wait(client.submit(request), timeout=60)
            assert status["status"] == "done"
            job_seconds.append(status["seconds"])
    records = list(iter_trace(str(trace_path)))
    assert [record["cache"] for record in records] == [
        "miss", "hit", "derived",
    ]
    assert [record["seconds"] for record in records] == job_seconds


# ----------------------------------------------------------------------
# The thin CLI client against a live daemon
# ----------------------------------------------------------------------
def test_cli_submit_status_fetch(
    tmp_path, running_example, capsys
):
    from repro.cli import main
    from repro.timeseries.io import save_transactional_database

    data = tmp_path / "example.tsv"
    save_transactional_database(running_example, str(data))
    with running_service() as service:
        port = ["--port", str(service.port)]
        assert main(
            ["submit", *port, "--input", str(data),
             "--per", "2", "--min-ps", "3", "--min-rec", "2",
             "--wait", "--timeout", "60"]
        ) == 0
        out = capsys.readouterr().out
        assert "8 recurring patterns" in out
        assert "cache: miss" in out

        assert main(["status", *port, "--job", "job-000001"]) == 0
        assert "job-000001: done" in capsys.readouterr().out

        saved = tmp_path / "patterns.tsv"
        assert main(
            ["fetch", *port, "--job", "job-000001",
             "--save-patterns", str(saved)]
        ) == 0
        capsys.readouterr()
        reloaded = load_patterns(str(saved))
        assert reloaded == mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2
        )

        # Unknown job id is a clean CLI error, not a traceback.
        assert main(["status", *port, "--job", "nope"]) == 1
        assert "error:" in capsys.readouterr().err
