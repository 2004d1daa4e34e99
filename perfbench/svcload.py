"""The service workload: two tenants against one ``repro-mine serve``.

Each client owns its tenant's files (Quest structure seed 0 or 1) and
submits a seeded sequence of ``rp-eclat-vec`` file requests over
per in {360, 720, 1440} x min_rec in {1, 2, 3} at min_ps 0.002.  It polls
the job's status every ``POLL_S`` and then fetches the result: a closed
loop with two clients.

Requests come in rounds of seven.  Round ``r`` mines one new cell: per
``PERS[r % 3]`` at min_rec 1 in the tenant's file ``(r // 3) % VARIANTS``
(a miss).  One answer is derived from it at min_rec 2 or 3, and five
exact hits ask again for the min_rec-1 cells of this round and the two
before it, so every round is 14% misses, 14% derived and 71% hits, spread
over all three pers.  The clients start each round together, and a new
cycle of three rounds (one per per) starts only before the deadline, so
a run measures whole cycles with the same overlap between the two
clients' work.

The daemon's LRU cache holds ``CACHE_SIZE`` entries.  A cell is needed
for three rounds, in which the two clients put about six entries, so no
needed cell is evicted; between two rounds on the same cell a client
alone puts more entries than the cache holds, so every round's first
request is a miss.  The cache outcome of every request is therefore
exact to predict, and the daemon's memory stays bounded however long a
run is.
"""

from __future__ import annotations

import queue
import random
import signal
import subprocess
import threading
import time
from itertools import count
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import inputs
from common import (
    BenchmarkError, Context, Op, Result, median, read_vm_hwm_mb, throughput,
)
from tracing import Replay, Tracer, report_layers, sha256

ENGINE = "rp-eclat-vec"
#: The reference answers come from another engine than the one served.
REFERENCE_ENGINE = "rp-growth"
PERS = (360, 720, 1440)
MIN_RECS = (1, 2, 3)
MIN_PS = 0.002
CLIENTS = 2
WORKERS = 1
VARIANTS = 4
#: More than the ~6 entries put while a cell is needed, fewer than the
#: 3 * VARIANTS - 3 a client puts between a cell's last use and its reuse.
CACHE_SIZE = 8
POLL_S = 0.1
SETUPS = 3
ROUND_HITS = 5
ROUND_LENGTH = ROUND_HITS + 2
#: A round's hits ask for the cells mined in this many latest rounds.
RECENT_ROUNDS = 3
#: Rounds in the traced run: one new cell on each per.
TRACE_ROUNDS = len(PERS)
TRACE_REQUESTS = ROUND_LENGTH * TRACE_ROUNDS
OUTCOMES = ("miss", "derived", "hit")

Cell = Tuple[int, int, int]  # (file variant, per, min_rec)


def request_stream(seed: int, client: int) -> Iterator[Tuple[int, Cell]]:
    """``(round, cell)`` pairs, endlessly, for one client."""
    recent: List[Tuple[int, int]] = []
    for round_index in count():
        rng = random.Random(f"{seed}:client{client}:round{round_index}")
        variant = round_index // len(PERS) % VARIANTS
        per = PERS[round_index % len(PERS)]
        recent = (recent + [(variant, per)])[-RECENT_ROUNDS:]
        rest = [(variant, per, rng.choice(MIN_RECS[1:]))] + [
            recent[i % len(recent)] + (1,) for i in range(ROUND_HITS)
        ]
        rng.shuffle(rest)
        for cell in [(variant, per, 1)] + rest:
            yield round_index, cell


class Predictor:
    """The cache outcome of each request: the cache holds the cells this
    client mined in its ``RECENT_ROUNDS`` latest rounds."""

    def __init__(self) -> None:
        self.mined: Dict[Cell, int] = {}

    def outcome(self, round_index: int, cell: Cell) -> str:
        self.mined = {
            c: r for c, r in self.mined.items()
            if r > round_index - RECENT_ROUNDS
        }
        variant, per, min_rec = cell
        if cell in self.mined:
            return "hit"
        if any((variant, per, looser) in self.mined
               for looser in range(1, min_rec)):
            return "derived"
        self.mined[cell] = round_index
        return "miss"


def at_min_rec(tsv: str, min_rec: int) -> str:
    """A pattern file cut to the patterns with at least ``min_rec``
    interesting intervals (one per comma-separated triple)."""
    header, *rows = tsv.splitlines(keepends=True)
    return header + "".join(
        row for row in rows
        if row.rsplit("\t", 1)[1].count(",") + 1 >= min_rec
    )


class Tenants:
    """Both tenants' files, the warm-up file and every expected answer."""

    def __init__(self, ctx: Context):
        self.files: Dict[Tuple[int, int], Path] = {}
        self.seeded: Dict[Tuple[int, int], inputs.Seeded] = {}
        self.expected: Dict[Tuple[int, int, int, int], str] = {}
        for client in range(CLIENTS):
            structure = inputs.Structure(ctx.root, ctx.scale, client)
            answers = {
                per: structure.answer(REFERENCE_ENGINE, per, MIN_PS)
                for per in PERS
            }
            for variant in range(VARIANTS):
                key = (client, variant)
                seeded = inputs.Seeded(
                    structure, ctx.seed, f"tenant{client}-file{variant}"
                )
                self.seeded[key] = seeded
                self.files[key] = ctx.work / f"tenant{client}-{variant}.tsv"
                for per, loosest in answers.items():
                    tsv = inputs.patterns_tsv(seeded.rename(loosest))
                    for min_rec in MIN_RECS:
                        self.expected[key + (per, min_rec)] = at_min_rec(
                            tsv, min_rec
                        )
            if client == 0:
                self.warmup = inputs.Seeded(structure, ctx.seed, "warmup")
                self.warmup_expected = inputs.patterns_tsv(
                    self.warmup.rename(answers[PERS[0]])
                )
        self.warmup_file = ctx.work / "warmup.tsv"

    def write(self) -> None:
        for key, path in self.files.items():
            self.seeded[key].write(path)
        self.warmup.write(self.warmup_file)

    def facts(self) -> dict:
        return {
            "tenants": CLIENTS,
            "files_per_tenant": VARIANTS,
            **{f"tenant{c}_{name}": value
               for c in range(CLIENTS)
               for name, value in self.seeded[c, 0].describe(
                   self.files[c, 0]).items()},
            "loop": "closed",
            "clients": CLIENTS,
            "daemon_workers": WORKERS,
            "daemon_cache_entries": CACHE_SIZE,
            "poll_s": POLL_S,
        }

    def request(self, client: int, cell: Cell, path: Path = None):
        from repro.core.request import DatasetRef, MiningRequest

        variant, per, min_rec = cell
        source = path if path is not None else self.files[client, variant]
        return MiningRequest(
            per=per, min_ps=MIN_PS, min_rec=min_rec, engine=ENGINE,
            source=DatasetRef.file(str(source)),
        )


class Daemon:
    """``repro-mine serve`` as a subprocess on a free port."""

    def __init__(self, ctx: Context):
        self.proc = subprocess.Popen(
            ctx.repro_command(
                "serve", "--port", "0", "--workers", str(WORKERS),
                "--cache-size", str(CACHE_SIZE),
            ),
            env=ctx.env, cwd=ctx.work, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.lines: "queue.Queue[bytes]" = queue.Queue()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        deadline = time.monotonic() + 60
        while True:
            try:
                line = self.lines.get(
                    timeout=max(deadline - time.monotonic(), 0.01)
                )
            except queue.Empty:
                self.stop()
                raise BenchmarkError("daemon did not start in 60 s")
            if not line:
                self.stop()
                raise BenchmarkError("daemon exited before listening")
            if b"listening on" in line:
                self.port = int(line.strip().rsplit(b":", 1)[1])
                break
        from repro.service import ServiceClient

        self.client = ServiceClient(port=self.port, timeout=120)

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.lines.put(line)
        self.lines.put(b"")

    def counters(self) -> Dict[str, float]:
        values = {}
        for line in self.client.metrics().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stderr.close()


def serve_one(daemon: Daemon, request, expected: str, predicted: str) -> Op:
    """Submit, poll, fetch and check one request."""
    from repro.service import ServiceError

    started = time.perf_counter()
    error, result = None, {}
    try:
        job = daemon.client.submit(request)
        status = daemon.client.wait(job, timeout=120, interval=POLL_S)
        if status["status"] != "done":
            error = f"job {status['status']}: {status.get('error')}"
        else:
            result = daemon.client.result(job)
    except ServiceError as failure:
        error = str(failure)
    ended = time.perf_counter()
    if error is None:
        if result["cache"] != predicted:
            error = f"cache {result['cache']!r}, predicted {predicted!r}"
        elif result["patterns_tsv"] != expected:
            error = "patterns differ from the reference"
    return Op(ended - started, error, outcome=predicted,
              server_seconds=result.get("seconds"), started=started,
              ended=ended)


def start(ctx: Context, tenants: Tenants) -> Daemon:
    """One set-up: write the files, start the daemon, warm it up."""
    tenants.write()
    daemon = Daemon(ctx)
    warm = serve_one(
        daemon,
        tenants.request(0, (0, PERS[0], 1), path=tenants.warmup_file),
        tenants.warmup_expected, "miss",
    )
    if not warm.ok:
        daemon.stop()
        raise BenchmarkError(f"warm-up request failed: {warm.error}")
    return daemon


def run_clients(daemon: Daemon, tenants: Tenants, seed: int,
                deadline: float = None, rounds: int = None) -> List[Op]:
    """Both clients' closed loops, round by round, until ``deadline``
    passes at the end of a cycle of rounds or ``rounds`` are done.  The
    clients start each round together, so one client's misses meet the
    same share of the other's work in every run."""
    ops: List[Op] = []
    lock = threading.Lock()
    go = [True]

    def decide() -> None:
        # Whole cycles of rounds, one on each per, so that every run asks
        # for the same mix of pers.
        done = len(ops) // (CLIENTS * ROUND_LENGTH)
        cycle_done = done % len(PERS) == 0
        go[0] = (rounds is None or done < rounds) and (
            deadline is None or not cycle_done
            or time.perf_counter() < deadline
        )

    barrier = threading.Barrier(CLIENTS, action=decide)

    def client_loop(client: int) -> None:
        predictor = Predictor()
        try:
            for index, (round_index, cell) in enumerate(
                request_stream(seed, client)
            ):
                if index % ROUND_LENGTH == 0:
                    barrier.wait(timeout=600)
                    if not go[0]:
                        return
                op = serve_one(
                    daemon, tenants.request(client, cell),
                    tenants.expected[(client,) + cell],
                    predictor.outcome(round_index, cell),
                )
                with lock:
                    ops.append(op)
        except threading.BrokenBarrierError:
            return
        except BaseException:
            barrier.abort()
            raise

    threads = [
        threading.Thread(target=client_loop, args=(c,))
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops


def _mix(ops: List[Op]) -> str:
    total = len(ops) or 1
    return ", ".join(
        f"{kind} {sum(op.outcome == kind for op in ops) / total:.0%}"
        for kind in OUTCOMES
    )


def timed(ctx: Context) -> Result:
    tenants = Tenants(ctx)
    setups = []
    daemon = None
    try:
        for _ in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            started = time.perf_counter()
            daemon = start(ctx, tenants)
            setups.append(time.perf_counter() - started)
        before = daemon.counters()
        ops = run_clients(
            daemon, tenants, ctx.seed,
            deadline=time.perf_counter() + ctx.seconds,
        )
        after = daemon.counters()
        peak = read_vm_hwm_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()
    result = Result(facts=tenants.facts())
    result.facts["request_mix"] = _mix(ops)
    evictions = after.get("repro_service_cache_evictions_total", 0.0) - \
        before.get("repro_service_cache_evictions_total", 0.0)
    result.facts["cache_evictions"] = int(evictions)
    result.count(ops)
    result.add("setup_s", median(setups), "s", f"median of {SETUPS} set-ups")
    result.add("ops_per_s", throughput(ops), "1/s")
    done = [op for op in ops if op.ok]
    result.add_latencies("latency", [op.latency for op in done])
    for kind in ("hit", "miss", "derived"):
        result.add_latencies(
            f"{kind}_latency", [op.latency for op in done if op.outcome == kind]
        )
    result.add("peak_rss_mb", peak, "MiB", "daemon VmHWM before stop")
    return result


# -- the traced run ----------------------------------------------------
def replay_ops(ctx: Context, tenants: Tenants) -> Tuple[Tracer, List[Op]]:
    """The traced run's requests through ``MiningService._execute`` in a
    fresh process, interleaved round by round as the clients send them."""
    checks = [(tenants.warmup_expected, "miss")]
    requests = [{
        "request": tenants.request(
            0, (0, PERS[0], 1), path=tenants.warmup_file
        ).to_dict(),
        "traced": False,
    }]
    streams = [request_stream(ctx.seed, c) for c in range(CLIENTS)]
    predictors = [Predictor() for _ in range(CLIENTS)]
    for _ in range(TRACE_REQUESTS):
        for client in range(CLIENTS):
            round_index, cell = next(streams[client])
            checks.append((
                tenants.expected[(client,) + cell],
                predictors[client].outcome(round_index, cell),
            ))
            requests.append({
                "request": tenants.request(client, cell).to_dict(),
                "traced": True,
            })
    replay = Replay(ctx, {
        "kind": "service", "cache_size": CACHE_SIZE, "requests": requests,
    })
    try:
        tracer, results = replay.finish()
    finally:
        replay.close()
    ops = []
    for (expected, predicted), got in zip(checks, results):
        error = None
        if got["status"] != "done":
            error = f"replayed job {got['status']}: {got['error']}"
        elif got["cache"] != predicted:
            error = f"replayed cache {got['cache']!r}, predicted {predicted!r}"
        elif got["sha256"] != sha256(expected):
            error = "replayed patterns differ from the reference"
        ops.append(Op(got["seconds"], error, outcome=predicted))
    return tracer, ops


def traced(ctx: Context) -> Result:
    tenants = Tenants(ctx)
    daemon = start(ctx, tenants)
    try:
        before = daemon.counters()
        served = run_clients(daemon, tenants, ctx.seed, rounds=TRACE_ROUNDS)
        after = daemon.counters()
    finally:
        daemon.stop()
    result = Result(facts=tenants.facts())
    result.facts["request_mix"] = _mix(served)
    result.count(served)

    tracer, replayed = replay_ops(ctx, tenants)
    result.count(replayed)

    done = [op for op in served if op.ok]
    latency = median(op.latency for op in done)
    result.add("latency_p50_s", latency, "s",
               f"untraced daemon, median of {len(done)} ops")
    for kind in ("hit", "derived", "miss"):
        result.add(
            f"service.execute_s.{kind}",
            median(op.server_seconds for op in done if op.outcome == kind),
            "s", "GET /jobs/{id} seconds, median",
        )
    wait = median(op.latency - op.server_seconds for op in done)
    result.add("service.wait_s", wait, "s",
               "client latency minus server seconds, median")

    def delta(name: str) -> int:
        return int(after.get(name, 0.0) - before.get(name, 0.0))

    outcomes = {}
    for kind in ("hit", "derived", "miss", "evictions"):
        outcomes[kind] = delta(f"repro_service_cache_{kind}_total")
        result.add(f"service.cache_{kind}", outcomes[kind], "count",
                   "GET /metrics, traced requests")
    submitted = delta("repro_service_jobs_submitted_total")
    result.add(
        "service.served_from_cache_ratio",
        (outcomes["hit"] + outcomes["derived"]) / submitted if submitted
        else 0.0,
        "ratio", f"(hit + derived) / {submitted} submitted",
    )
    layered = {"service.wait_s": wait}
    for name in tracer.top_level():
        layered[name] = tracer.op_median(name)
    report_layers(result, tracer, layered, latency)
    return result
