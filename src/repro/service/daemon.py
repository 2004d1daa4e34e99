"""The asyncio mining service daemon.

One :class:`MiningService` owns four things: a minimal HTTP/1.1
listener (``asyncio.start_server`` — the container deliberately has no
web framework, and the protocol needed here is four routes with JSON
bodies), a bounded mining worker pool (an ``asyncio.Semaphore`` gating
a ``ThreadPoolExecutor``), the content-addressed
:class:`~repro.service.cache.ResultCache`, and the observability
surfaces every other mining path already has — ``repro_service_*``
counters in a :class:`~repro.obs.metrics.MetricsRegistry` exposed at
``GET /metrics``, plus one validated ``repro-run/v1`` record per served
job appended to the service trace.

Routes (see ``docs/service.md``):

* ``POST /jobs`` — a :class:`~repro.core.request.MiningRequest` wire
  form (must carry ``source``); returns ``202`` with the job id.
* ``GET /jobs/{id}`` — the job's status body.
* ``GET /jobs/{id}/result`` — the finished job's pattern set as
  reloadable TSV (``409`` until done).
* ``GET /metrics`` — Prometheus exposition of the registry.
* ``GET /healthz`` — liveness plus job/cache stats.

Mining happens in executor threads; the cache and trace writer are
lock-guarded accordingly.  Every served job — mined, exact hit, or
min_rec-derived — emits a run record whose ``cache`` field says which,
so a trace of the daemon is analyzable by ``repro-mine trace`` exactly
like a batch trace.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Optional, Set, Tuple

from repro.core.miner import execute_request
from repro.core.options import ObservabilityOptions
from repro.core.request import MiningRequest
from repro.exceptions import ParameterError, ReproError
from repro.obs.counters import MiningStats
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.report import MiningTelemetry, TraceWriter, validate_run_record
from repro.patterns_io import save_patterns
from repro.service.cache import CacheOutcome, ResultCache
from repro.service.jobs import Job, JobStore

__all__ = ["MiningService", "run_server"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}

#: Content type of the Prometheus exposition format.
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MiningService:
    """The daemon: HTTP front, worker pool, result cache, telemetry."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        workers: int = 2,
        cache_size: int = 64,
        registry: Optional[MetricsRegistry] = None,
        trace=None,
    ):
        if isinstance(workers, bool) or not isinstance(
            workers, int
        ) or workers < 1:
            raise ParameterError(
                f"workers must be a positive int, got {workers!r}"
            )
        self.host = host
        self.port = port
        self.workers = workers
        self.cache = ResultCache(cache_size)
        self.jobs = JobStore()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._trace_target = trace
        self._trace_writer: Optional[TraceWriter] = None
        self._trace_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._tasks: Set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the listener; ``self.port`` becomes the actual port."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._semaphore = asyncio.Semaphore(self.workers)
        if self._trace_target is not None:
            if hasattr(self._trace_target, "write"):
                self._trace_writer = TraceWriter(self._trace_target)
            else:
                # Append: a restarted daemon extends its trace.
                self._trace_writer = TraceWriter(
                    open(self._trace_target, "a", encoding="utf-8")
                )
                self._trace_writer._owns_handle = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Drain in-flight jobs, close the listener and the sinks."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._trace_writer is not None:
            self._trace_writer.close()
            self._trace_writer = None

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have been awaited)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP ----------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            status, content_type, payload = await self._respond(reader)
        except Exception as error:  # malformed request, broken pipe
            status, content_type, payload = (
                400,
                "application/json",
                json.dumps({"error": str(error)}).encode("utf-8"),
            )
        try:
            reason = _REASONS.get(status, "Unknown")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(self, reader) -> Tuple[int, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return self._json(400, {"error": "malformed request line"})
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return self._route(method, target, body)

    @staticmethod
    def _json(status: int, payload: Dict[str, object]) -> Tuple[int, str, bytes]:
        return (
            status,
            "application/json",
            json.dumps(payload, sort_keys=False).encode("utf-8"),
        )

    def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, str, bytes]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/jobs":
            if method != "POST":
                return self._json(405, {"error": "POST /jobs"})
            return self._submit(body)
        if path == "/metrics":
            if method != "GET":
                return self._json(405, {"error": "GET /metrics"})
            text = render_prometheus(self.registry)
            return 200, _PROMETHEUS_TYPE, text.encode("utf-8")
        if path == "/healthz":
            return self._json(
                200,
                {
                    "status": "ok",
                    "jobs": len(self.jobs),
                    "cache": self.cache.stats(),
                },
            )
        if path.startswith("/jobs/"):
            if method != "GET":
                return self._json(405, {"error": "GET only"})
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.jobs.get(job_id)
            if job is None:
                return self._json(404, {"error": f"unknown job {job_id!r}"})
            if not tail:
                return self._json(200, job.as_status())
            if tail == "result":
                if job.status == "failed":
                    return self._json(
                        409,
                        {**job.as_status(), "error": job.error},
                    )
                if job.status != "done":
                    return self._json(409, job.as_status())
                return self._json(200, job.as_result())
            return self._json(404, {"error": f"unknown path {path!r}"})
        return self._json(404, {"error": f"unknown path {path!r}"})

    def _submit(self, body: bytes) -> Tuple[int, str, bytes]:
        try:
            record = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return self._json(400, {"error": f"invalid JSON body: {error}"})
        try:
            request = MiningRequest.from_dict(record)
        except ReproError as error:
            return self._json(400, {"error": str(error)})
        if request.source is None:
            return self._json(
                400,
                {
                    "error": "mining request requires a source: the "
                    "daemon has no positional data argument — add "
                    "source={'kind': 'inline'|'file'|'workload', ...}"
                },
            )
        job = self.jobs.create(request)
        self._counter("repro_service_jobs_submitted_total").inc()
        task = asyncio.get_running_loop().create_task(self._run_job(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return self._json(202, {"id": job.id, "status": job.status})

    # -- the worker path -----------------------------------------------
    async def _run_job(self, job: Job) -> None:
        assert self._semaphore is not None and self._executor is not None
        async with self._semaphore:
            job.status = "running"
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, self._execute, job)

    def _execute(self, job: Job) -> None:
        """Serve one job in a worker thread: cache, derive, or mine.

        A ``file`` source is read and hashed on every request; the
        cache's memo maps those bytes' SHA-256 to the canonical digest,
        so a hit or a derivation never parses.  Bytes the memo has not
        seen, and misses, are parsed: the very bytes that were hashed.
        A miss hands the digest it already holds to its run record, so
        the parsed database is hashed at most once, and not at all when
        the memo knew the bytes.  A miss serializes its patterns once
        and caches that TSV; a hit's job holds the same string object,
        and a derivation the kept rows of its base cell's string, so
        neither serializes.  Every run record's ``seconds`` is the
        job's own: read, hash, parse, lookup or mine, and a miss's TSV
        write.
        """
        started = time.perf_counter()
        try:
            request = job.request
            source = request.source
            data = raw_digest = digest = database = None
            if source.kind == "file":
                # Content is the only identity trusted: size, mtime and
                # path say nothing about what a rewrite left behind.
                with open(source.path, "rb") as handle:
                    data = handle.read()
                raw_digest = hashlib.sha256(data).hexdigest()
                digest = self.cache.lookup_digest(raw_digest)
            if digest is None:
                database = source.load(data)
                digest = database.digest()
                if raw_digest is not None:
                    self.cache.record_digest(raw_digest, digest)
            outcome = self.cache.get(request, digest)
            if outcome is not None:
                patterns_tsv = outcome.patterns_tsv
                patterns_found = outcome.patterns_found
                record = _served_record(request, digest, outcome)
                self._counter(
                    "repro_service_cache_hit_total"
                    if outcome.how == "hit"
                    else "repro_service_cache_derived_total"
                ).inc()
                job.cache = outcome.how
            else:
                if database is None:
                    database = source.load(data)
                # The server owns every sink: replace the wire
                # observability with stats collection only.
                obs = request.observability
                exec_request = replace(
                    request,
                    observability=ObservabilityOptions(
                        collect_stats=True,
                        track_memory=obs.track_memory,
                        dataset=obs.dataset,
                    ),
                )
                patterns, telemetry = execute_request(
                    exec_request, database, dataset_digest=digest
                )
                record = telemetry.as_run_record()
                record["cache"] = "miss"
                job.cache = "miss"
                self._counter("repro_service_cache_miss_total").inc()
                buffer = io.StringIO()
                save_patterns(patterns, buffer)
                patterns_tsv = buffer.getvalue()
                patterns_found = len(patterns)
                evicted = self.cache.put(request, digest, patterns_tsv)
                if evicted:
                    self._counter(
                        "repro_service_cache_evictions_total"
                    ).inc(evicted)
            job.patterns_tsv = patterns_tsv
            job.patterns_found = patterns_found
            job.seconds = record["seconds"] = time.perf_counter() - started
            validate_run_record(record)
            self._write_trace(record)
            job.status = "done"
            self._counter(
                "repro_service_jobs_served_total", {"result": "done"}
            ).inc()
        except Exception as error:  # surfaced via GET /jobs/{id}
            job.error = str(error)
            job.seconds = time.perf_counter() - started
            job.status = "failed"
            self._counter(
                "repro_service_jobs_served_total", {"result": "failed"}
            ).inc()

    # -- observability -------------------------------------------------
    def _counter(self, name: str, labels: Optional[Dict[str, str]] = None):
        return self.registry.counter(name, labels)

    def _write_trace(self, record: Dict[str, object]) -> None:
        if self._trace_writer is None:
            return
        with self._trace_lock:
            self._trace_writer.write_record(record)


def _served_record(
    request: MiningRequest, digest: str, outcome: CacheOutcome
) -> Dict[str, object]:
    """A cache-served job's run record: it describes the serve, not the
    mine that filled the cell — no spans, and every counter 0 but
    ``patterns_found``.  The caller sets ``seconds`` to the job's."""
    found = outcome.patterns_found
    extra: Dict[str, object] = {"dataset_digest": digest, "cache": outcome.how}
    if outcome.base_min_rec is not None:
        extra["cache_base_min_rec"] = outcome.base_min_rec
    label = request.observability.dataset
    return MiningTelemetry(
        engine=request.engine, params=request.thresholds(),
        stats=MiningStats(patterns_found=found), spans=(),
        patterns_found=found, seconds=0.0,
        dataset=request.source.label if label is None else label,
        extra=extra,
    ).as_run_record()


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    workers: int = 2,
    cache_size: int = 64,
    trace=None,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Blocking entry point behind ``repro-mine serve``."""
    service = MiningService(
        host,
        port,
        workers=workers,
        cache_size=cache_size,
        trace=trace,
        registry=registry,
    )

    async def _main() -> None:
        await service.start()
        print(
            f"repro-mine service listening on "
            f"http://{service.host}:{service.port}",
            file=sys.stderr,
        )
        try:
            await service.serve_forever()
        finally:
            try:
                await service.stop()
            except Exception:
                pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro-mine service stopped", file=sys.stderr)
