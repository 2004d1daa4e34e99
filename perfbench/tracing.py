"""Spans recorded from outside the program, for the traced run.

:meth:`Tracer.wrap` replaces a public function or method with a wrapper
that times each call made inside an op; nothing in ``src/`` changes and
the originals are restored by :meth:`Tracer.restore`.  Spans stay in
memory until the run ends and are written once, by the caller.  The
replay itself runs in a fresh process (``replay.py``), which prints its
spans for :meth:`Tracer.from_replay`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import BenchmarkError, Result


@dataclass
class SpanRecord:
    op: int
    name: str
    seconds: float
    parent: Optional[str] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.ops: List[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counters: Dict[str, int] = {}
        self._patches: list = []

    @contextmanager
    def op(self, op_id: int):
        """Attribute every wrapped call made by this thread to ``op_id``."""
        self._local.op = op_id
        self._local.stack = []
        try:
            yield
        finally:
            self._local.op = None
            with self._lock:
                self.ops.append(op_id)

    @classmethod
    def from_replay(cls, data: dict) -> "Tracer":
        """The spans and counters a replay process printed."""
        tracer = cls()
        tracer.spans = [SpanRecord(**span) for span in data["spans"]]
        tracer.ops = data["ops"]
        tracer.counters = data["counters"]
        return tracer

    def current_op(self) -> Optional[int]:
        return getattr(self._local, "op", None)

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def add(self, op: int, name: str, seconds: float,
            parent: Optional[str] = None) -> None:
        with self._lock:
            self.spans.append(SpanRecord(op, name, seconds, parent))

    def wrap(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            op = getattr(local, "op", None)
            if op is None:
                return original(*args, **kwargs)
            stack = local.stack
            parent = stack[-1] if stack else None
            stack.append(name)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - started
                stack.pop()
                self.add(op, name, seconds, parent)

        self.patch(owner, attribute, traced)

    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; :meth:`restore` puts the original back."""
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- summaries -----------------------------------------------------
    def per_op(self, name: str) -> Dict[int, float]:
        """Seconds spent in ``name`` by each op (0 where it never ran)."""
        totals = {op: 0.0 for op in self.ops}
        for span in self.spans:
            if span.name == name:
                totals[span.op] = totals.get(span.op, 0.0) + span.seconds
        return totals

    def layer_seconds(self, name: str) -> float:
        """Median seconds per op, over the ops that entered the layer."""
        ran = [s for s in self.per_op(name).values() if s > 0]
        return statistics.median(ran) if ran else 0.0

    def op_median(self, name: str) -> float:
        """Median seconds per op over every op, zero where it never ran."""
        values = list(self.per_op(name).values())
        return statistics.median(values) if values else 0.0

    def top_level(self) -> List[str]:
        """Names of the spans no other wrapped call encloses."""
        return sorted({s.name for s in self.spans if s.parent is None})


# -- the program's layers ---------------------------------------------
REPLAY = Path(__file__).with_name("replay.py")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Replay:
    """A ``replay.py`` process: traced ops on request, spans at the end."""

    def __init__(self, ctx, job: dict):
        self._error_path = ctx.work / "replay.err"
        self._errors = open(self._error_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(REPLAY)], env=ctx.env, cwd=ctx.work,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._errors, text=True,
        )
        self._send(json.dumps(job))

    def _send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            errors = self._error_path.read_text(encoding="utf-8")
            raise BenchmarkError(f"traced replay failed: {errors[-500:]}")
        return json.loads(line)

    def step(self) -> dict:
        """Run one traced op; its result."""
        self._send("op")
        return self.receive()

    def finish(self) -> Tuple[Tracer, List[dict]]:
        """End the input; the spans and every op's result."""
        self.proc.stdin.close()
        data = self.receive()
        self.close()
        return Tracer.from_replay(data), data["results"]

    def close(self) -> None:
        if self.proc.poll() is None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._errors.close()


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the public functions every workload's path goes through."""
    import repro.cli._options
    import repro.core.miner
    import repro.patterns_io
    import repro.service.daemon
    import repro.timeseries.io
    from repro.core.request import DatasetRef
    from repro.timeseries.database import TransactionalDatabase

    original = repro.core.miner.execute_request

    def execute_with_stats(request, *args, **kwargs):
        # The engine's own spans and counters, read through
        # ObservabilityOptions(collect_stats=True).
        wanted = request.observability.collect_stats
        if not wanted:
            request = replace(
                request,
                observability=replace(
                    request.observability, collect_stats=True
                ),
            )
        found, telemetry = original(request, *args, **kwargs)
        record_engine(tracer, request.jobs, telemetry)
        return (found, telemetry) if wanted else found

    for module in (repro.core.miner, repro.service.daemon):
        tracer.patch(module, "execute_request", execute_with_stats)
        tracer.wrap(module, "execute_request", "core.mine_s")
    for module in (repro.cli._options, repro.timeseries.io):
        tracer.wrap(module, "load_transactional_database",
                    "timeseries.load_s")
    tracer.wrap(DatasetRef, "load", "service.load_s")
    tracer.wrap(repro.patterns_io, "save_patterns", "patterns_io.save_s")
    tracer.wrap(repro.service.daemon, "save_patterns", "patterns_io.save_s")
    tracer.wrap(TransactionalDatabase, "digest", "timeseries.digest_s")
    tracer.wrap(TransactionalDatabase, "columnar", "timeseries.columnar_s")


_ENGINE_SPANS = {
    "first_scan": "core.first_scan_s",
    "tree_build": "core.tree_build_s",
    "partition": "parallel.partition_s",
}
_ENGINE_COUNTERS = ("erec_evaluations", "conditional_trees",
                    "initial_tree_nodes")


def record_engine(tracer: Tracer, jobs: int, telemetry) -> None:
    """Copy the engine's span tree and counters into the current op."""
    op = tracer.current_op()
    if op is None:
        return
    for root in telemetry.spans:
        for _, span in root.walk():
            if span.name == "mine":
                name = "core.grow_s" if jobs == 1 else "parallel.mine_s"
            elif span.name.startswith("chunk["):
                name = "parallel.chunks_s"
                tracer.count("parallel.chunks", 1)
            else:
                name = _ENGINE_SPANS.get(span.name)
            if name is not None:
                tracer.add(op, name, span.seconds, parent="core.mine_s")
    for counter in _ENGINE_COUNTERS:
        tracer.count(f"core.{counter}", getattr(telemetry.stats, counter))


def report_layers(result: Result, tracer: Tracer, layered: dict,
                  latency: float) -> None:
    """Every traced layer, counts totalled, plus what no layer explains."""
    for name in sorted({s.name for s in tracer.spans}):
        result.add(name, tracer.layer_seconds(name), "s",
                   "median per op that entered the layer")
    for name, total in sorted(tracer.counters.items()):
        result.add(name, total, "count",
                   f"total over {len(tracer.ops)} traced ops")
    unattributed = latency - sum(layered.values())
    share = unattributed / latency if latency else 0.0
    result.add(
        "unattributed_s", unattributed, "s",
        f"{share:.1%} of latency_p50_s; summed layers: "
        + ", ".join(f"{k}={v:.4f}" for k, v in sorted(layered.items())),
    )
    result.add("unattributed_share", share, "ratio")
    result.spans = tracer.spans
