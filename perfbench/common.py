"""Shared plumbing: the run context, op records and latency summaries."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class BenchmarkError(RuntimeError):
    """Set-up could not produce a state worth measuring."""


@dataclass
class Context:
    """Everything one invocation of the benchmark shares."""

    root: Path
    workload: str
    seed: int
    seconds: float
    scale: float
    work: Path
    env: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def create(cls, root: Path, workload: str, seed: int, seconds: float,
               scale: float) -> "Context":
        work = root / ".bench_out" / f"work-{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        return cls(root, workload, seed, seconds, scale, work, env)

    def repro_command(self, *argv: str) -> List[str]:
        """The ``repro-mine`` entry point, run from this checkout's source."""
        return [sys.executable, "-m", "repro.cli", *argv]


@dataclass
class Op:
    """One client-visible operation and whether its output was right."""

    latency: float
    error: Optional[str] = None
    outcome: Optional[str] = None  # service cache outcome
    server_seconds: Optional[float] = None
    started: float = 0.0
    ended: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Result:
    """What one workload measured: facts, named metrics and op counts."""

    facts: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    spans: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        if note:
            self.notes[name] = note

    def count(self, ops: List[Op]) -> None:
        self.attempted += len(ops)
        for op in ops:
            if not op.ok:
                self.failed += 1
                self.errors.append(op.error)

    def add_latencies(self, prefix: str, latencies: List[float]) -> None:
        """``<prefix>_p50_s`` plus ``latency_tail_s`` when the ops allow."""
        self.add(f"{prefix}_p50_s", median(latencies), "s",
                 f"median of {len(latencies)} ops")
        tail = tail_latency(latencies) if prefix == "latency" else None
        if tail is not None:
            percentile, seconds, beyond = tail
            self.add("latency_tail_s", seconds, "s",
                     f"p{percentile:g}, {beyond} of {len(latencies)} "
                     "ops beyond it")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: Candidate tail percentiles, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_latency(latencies: List[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, seconds, samples beyond)`` at the highest percentile
    with at least ten samples beyond it, or ``None`` for too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in _TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * n))
        beyond = n - rank
        if beyond >= 10:
            return percentile, ordered[rank - 1], beyond
    return None


def throughput(ops: List[Op]) -> float:
    """Completed ops per second, from the first start to the last end."""
    done = [op for op in ops if op.ok]
    if not done:
        return 0.0
    span = max(op.ended for op in ops) - min(op.started for op in ops)
    return len(done) / span if span > 0 else 0.0


def read_vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")
