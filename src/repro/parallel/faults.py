"""Deterministic fault injection for the parallel mining layer.

Testing a supervision layer against failures that are merely *hoped
for* (an OOM kill that may or may not arrive) produces flaky tests and
unreproducible bugs.  This module makes worker failure a first-class,
reproducible input instead: a :class:`FaultPlan` names exactly which
chunk fails, on which execution, and how —

``crash``
    the worker process dies immediately (``os._exit``), which breaks
    the whole ``ProcessPoolExecutor`` exactly like an OOM-killed fork;
``hang``
    the worker sleeps past any per-chunk deadline, exercising the
    timeout path;
``slow``
    the worker sleeps briefly and then completes normally — a
    straggler, not a failure;
``poison``
    the worker returns a corrupted payload instead of the
    ``(patterns, stats, seconds)`` triple, exercising result validation.

The plan travels into every worker through the pool initializer
(:func:`init_worker`, which chains the engine's own initializer), and
fault decisions are a pure function of ``(chunk id, execution
number)`` — the parent passes the execution number with each
submission — so an injected failure fires identically no matter which
worker process picks the chunk up.

The module also owns the *marker protocol* the supervisor uses to
attribute failures after a pool death: before running a chunk the
worker writes its first heartbeat, ``beat-<chunk>-<execution>``, in a
parent-owned marker directory, and after finishing it touches
``done-<chunk>-<execution>``.  When the pool breaks, chunks with a
``beat`` but no ``done`` marker were executing and are charged a
retry; chunks never started (or finished with the result lost in
transit) are resubmitted without burning a retry credit.

The ``beat`` file is also the **heartbeat channel**: it holds the
worker's pid, and the chunk loops call :func:`maybe_beat` between
tasks to re-touch it (rate-limited).  No background thread beats on
the worker's behalf — deliberately, so a worker stuck *inside* one
task (or asleep under an injected ``hang``) stops beating and the
supervisor can report "worker N silent for Xs" from the file's mtime
*before* the chunk deadline fires.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.exceptions import ParameterError

__all__ = [
    "FAULT_KINDS",
    "POISONED_RESULT",
    "FaultSpec",
    "FaultPlan",
    "install_fault_plan",
    "init_worker",
    "guarded_chunk",
    "marker_path",
    "has_marker",
    "maybe_beat",
    "latest_beat",
]

#: The injectable failure modes, in the order the test matrix runs them.
FAULT_KINDS = ("crash", "hang", "slow", "poison")

#: What a poisoned chunk returns instead of its result triple.
POISONED_RESULT = "repro-poisoned-chunk-result"

#: Exit status of a crash-injected worker (anything non-zero breaks the
#: pool; 17 is recognisable in core dumps and CI logs).
_CRASH_STATUS = 17


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *kind* on the Nth execution of chunk K.

    Parameters
    ----------
    chunk:
        The chunk id (the submission index of the chunk plan, which is
        deterministic — see ``plan_chunks``).
    kind:
        One of :data:`FAULT_KINDS`.
    execution:
        Fire on this execution of the chunk (1-based; retries re-execute
        with the next number).  ``None`` fires on *every* execution —
        a persistent fault that forces the retry budget to exhaust.
    seconds:
        Sleep duration for ``hang``/``slow`` (ignored otherwise).
    """

    chunk: int
    kind: str
    execution: Optional[int] = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"fault kind {self.kind!r} is not one of {FAULT_KINDS}"
            )
        if self.execution is not None and self.execution < 1:
            raise ParameterError(
                f"fault execution must be >= 1 or None, got {self.execution!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of :class:`FaultSpec` injected into pool workers.

    Examples
    --------
    >>> plan = FaultPlan.single("poison", chunk=2)
    >>> plan.find(2, 1).kind
    'poison'
    >>> plan.find(2, 2) is None
    True
    """

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        """A plan from individual specs."""
        return cls(specs=tuple(specs))

    @classmethod
    def single(
        cls,
        kind: str,
        chunk: int = 0,
        execution: Optional[int] = 1,
        seconds: float = 30.0,
    ) -> "FaultPlan":
        """The common one-fault plan used by the test matrix."""
        return cls(specs=(FaultSpec(chunk, kind, execution, seconds),))

    def find(self, chunk: int, execution: int) -> Optional[FaultSpec]:
        """The spec firing on this ``(chunk, execution)``, if any."""
        for spec in self.specs:
            if spec.chunk == chunk and (
                spec.execution is None or spec.execution == execution
            ):
                return spec
        return None


# ----------------------------------------------------------------------
# Worker-process state (module globals are both fork- and spawn-safe
# because this module is importable by name, like repro.parallel.worker)
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_MARKER_DIR: Optional[str] = None

#: The (chunk, execution) this worker is currently running, if any —
#: set by guarded_chunk so maybe_beat() knows which beat file to touch.
_CURRENT: Optional[Tuple[int, int]] = None
_LAST_BEAT = 0.0

#: Minimum seconds between beat-file touches from the chunk loops.
BEAT_INTERVAL = 0.05


def install_fault_plan(
    plan: Optional[FaultPlan], marker_dir: Optional[str] = None
) -> None:
    """Install ``plan`` (and the marker directory) in this process."""
    global _PLAN, _MARKER_DIR
    _PLAN = plan
    _MARKER_DIR = marker_dir


def init_worker(
    plan: Optional[FaultPlan],
    marker_dir: Optional[str],
    initializer,
    initargs: Sequence[object],
) -> None:
    """Pool initializer: install fault state, then run the engine's own.

    This is the hook the resilience layer passes to every
    ``ProcessPoolExecutor`` it builds — the engine-state initializer
    (:func:`repro.parallel.worker.init_chunk_worker`) still runs
    exactly as before, after the fault plan lands.
    """
    install_fault_plan(plan, marker_dir)
    if initializer is not None:
        initializer(*initargs)


def marker_path(
    marker_dir: str, prefix: str, chunk: int, execution: int
) -> str:
    """The marker file for one ``(prefix, chunk, execution)``."""
    return os.path.join(marker_dir, f"{prefix}-{chunk}-{execution}")


def has_marker(
    marker_dir: Optional[str], prefix: str, chunk: int, execution: int
) -> bool:
    """Parent-side check: did a worker leave this marker?"""
    if marker_dir is None:
        return False
    return os.path.exists(marker_path(marker_dir, prefix, chunk, execution))


def _mark(prefix: str, chunk: int, execution: int) -> None:
    if _MARKER_DIR is None:
        return
    try:
        with open(marker_path(_MARKER_DIR, prefix, chunk, execution), "w"):
            pass
    except OSError:  # pragma: no cover - marker dir vanished mid-run
        pass


def _write_beat(chunk: int, execution: int) -> None:
    """Touch this chunk's beat file, recording the worker pid."""
    if _MARKER_DIR is None:
        return
    try:
        path = marker_path(_MARKER_DIR, "beat", chunk, execution)
        with open(path, "w") as handle:
            handle.write(str(os.getpid()))
    except OSError:  # pragma: no cover - marker dir vanished mid-run
        pass


def maybe_beat(min_interval: float = BEAT_INTERVAL) -> bool:
    """Re-touch the current chunk's beat file, rate-limited.

    Called by the worker chunk loops between tasks.  A no-op outside a
    guarded chunk or without a marker directory; returns whether a beat
    was actually written.
    """
    global _LAST_BEAT
    if _CURRENT is None or _MARKER_DIR is None:
        return False
    now = time.monotonic()
    if now - _LAST_BEAT < min_interval:
        return False
    _LAST_BEAT = now
    _write_beat(*_CURRENT)
    return True


def latest_beat(
    marker_dir: Optional[str], chunk: int, execution: int
) -> Optional[Tuple[float, Optional[int]]]:
    """Parent-side: ``(mtime, pid)`` of a chunk's beat file, if any.

    ``mtime`` is wall-clock (``time.time`` base — parent and workers
    share the filesystem clock); ``pid`` is ``None`` when the file
    content is unreadable or empty.
    """
    if marker_dir is None:
        return None
    path = marker_path(marker_dir, "beat", chunk, execution)
    try:
        mtime = os.path.getmtime(path)
        with open(path, "r") as handle:
            content = handle.read().strip()
    except OSError:
        return None
    pid = int(content) if content.isdigit() else None
    return mtime, pid


def guarded_chunk(chunk_fn, chunk_id: int, payload, execution: int):
    """Run one chunk inside a worker, applying any planned fault.

    This is the callable the supervisor actually submits to the pool:
    it brackets ``chunk_fn(chunk_id, payload)`` with the first
    heartbeat and the done marker and consults the installed
    :class:`FaultPlan` first.  The heartbeat is written *before* the
    fault check on purpose: it marks the chunk as started, and an
    injected ``hang`` then looks exactly like a production hang — one
    beat at chunk start, silence after.  With no plan installed
    (production) the overhead is two ``open()`` calls per chunk.
    """
    global _CURRENT, _LAST_BEAT
    _CURRENT = (chunk_id, execution)
    _LAST_BEAT = time.monotonic()
    _write_beat(chunk_id, execution)
    try:
        spec = _PLAN.find(chunk_id, execution) if _PLAN is not None else None
        if spec is not None:
            if spec.kind == "crash":
                os._exit(_CRASH_STATUS)
            if spec.kind in ("hang", "slow"):
                time.sleep(spec.seconds)
            if spec.kind == "poison":
                _mark("done", chunk_id, execution)
                return POISONED_RESULT
        result = chunk_fn(chunk_id, payload)
        _mark("done", chunk_id, execution)
        return result
    finally:
        _CURRENT = None
