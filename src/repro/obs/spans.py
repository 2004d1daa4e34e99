"""Lightweight nested span timing.

A *span* is a named wall-clock interval.  Spans nest (a span opened
while another is active becomes its child), are collected per thread by
a :class:`SpanCollector`, and cost almost nothing when no collector is
active: :func:`span` then returns a shared no-op context manager and
the only work done is one thread-local attribute lookup.

Usage::

    collector = SpanCollector()
    with collector:
        with span("first_scan"):
            ...
        with span("mine"):
            with span("conditional"):
                ...
    collector.total("mine")       # seconds
    list(collector.walk())        # (depth, Span) pairs, depth-first

Engines call :func:`span` unconditionally around their phases; callers
that want telemetry activate a collector (directly, or through
``mine_recurring_patterns(...,
observability=ObservabilityOptions(collect_stats=True))``).

With ``SpanCollector(track_memory=True)`` each span additionally
records the peak ``tracemalloc`` allocation observed while it was the
innermost open span (folded upward so a parent's peak covers its
children); see :mod:`repro.obs.memory`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.memory import MemoryTracker

__all__ = ["Span", "SpanCollector", "span", "current_collector"]

_local = threading.local()


@dataclass
class Span:
    """One named, timed (and optionally memory-profiled) interval."""

    name: str
    started: float
    seconds: float = 0.0
    memory_peak_bytes: Optional[int] = None
    children: List["Span"] = field(default_factory=list)

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Yield ``(depth, span)`` for this span and its subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the trace sink)."""
        record: Dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
        }
        if self.memory_peak_bytes is not None:
            record["memory_peak_bytes"] = self.memory_peak_bytes
        if self.children:
            record["children"] = [child.as_dict() for child in self.children]
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        """Rebuild a span subtree from :meth:`as_dict` output.

        The absolute ``started`` instant is not serialized (it is only
        meaningful within one process's ``perf_counter`` clock), so the
        rebuilt span carries ``started=0.0``.  Durations, names, peak
        memory and children round-trip exactly; this is how the
        parallel layer folds worker-process spans into the parent
        collector's tree.
        """
        return cls(
            name=str(record["name"]),
            started=0.0,
            seconds=float(record.get("seconds", 0.0)),  # type: ignore[arg-type]
            memory_peak_bytes=record.get("memory_peak_bytes"),  # type: ignore[arg-type]
            children=[
                cls.from_dict(child)
                for child in record.get("children", ())  # type: ignore[union-attr]
            ],
        )


class _NoopSpan:
    """Returned by :func:`span` when no collector is active."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


class SpanCollector:
    """Per-thread span sink; active between ``__enter__``/``__exit__``.

    Collectors may nest: activating a second collector shadows the
    first until it exits.  Spans opened while this collector is active
    land in :attr:`roots` (or under the currently open span).

    Parameters
    ----------
    track_memory:
        Record per-span peak memory via ``tracemalloc``.  Accurate but
        *not* free — tracing slows allocation-heavy code noticeably —
        so it is off by default and intended for dedicated memory runs.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._memory: Optional[MemoryTracker] = None
        self._previous: Optional["SpanCollector"] = None
        self.memory_peak_bytes: Optional[int] = None

    # -- activation ----------------------------------------------------
    def __enter__(self) -> "SpanCollector":
        self._previous = getattr(_local, "collector", None)
        _local.collector = self
        if self.track_memory:
            self._memory = MemoryTracker()
            self._memory.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        _local.collector = self._previous
        self._previous = None
        if self._memory is not None:
            self._fold_peak(self._memory.peak())
            self._memory.stop()
            self._memory = None
        return False

    # -- span plumbing (used by the span() context managers) -----------
    def _open(self, name: str) -> Span:
        if self._memory is not None and self._stack:
            # Credit the parent with what it allocated before this
            # child, then start a fresh window for the child.
            parent = self._stack[-1]
            parent.memory_peak_bytes = max(
                parent.memory_peak_bytes or 0, self._memory.peak()
            )
        if self._memory is not None:
            self._memory.reset_peak()
        opened = Span(name=name, started=time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(opened)
        else:
            self.roots.append(opened)
        self._stack.append(opened)
        return opened

    def _close(self, closing: Span) -> None:
        closing.seconds = time.perf_counter() - closing.started
        popped = self._stack.pop()
        assert popped is closing, "span close out of order"
        if self._memory is not None:
            closing.memory_peak_bytes = max(
                closing.memory_peak_bytes or 0, self._memory.peak()
            )
            self._fold_peak(closing.memory_peak_bytes)
            if self._stack:
                parent = self._stack[-1]
                parent.memory_peak_bytes = max(
                    parent.memory_peak_bytes or 0, closing.memory_peak_bytes
                )
            self._memory.reset_peak()

    def _fold_peak(self, peak: int) -> None:
        self.memory_peak_bytes = max(self.memory_peak_bytes or 0, peak)

    # -- queries -------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        """The completed top-level spans."""
        return tuple(self.roots)

    def walk(self) -> Iterator[Tuple[int, Span]]:
        """All collected spans, depth-first with their depth."""
        for root in self.roots:
            yield from root.walk()

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name`` (0.0 if none)."""
        return sum(s.seconds for _, s in self.walk() if s.name == name)


class _LiveSpan:
    __slots__ = ("_collector", "_name", "_span")

    def __init__(self, collector: SpanCollector, name: str):
        self._collector = collector
        self._name = name
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._collector._open(self._name)
        return self._span

    def __exit__(self, *exc: object) -> bool:
        assert self._span is not None
        self._collector._close(self._span)
        return False


def span(name: str):
    """Open a named span under the active collector, if any.

    Returns a context manager; when no collector is active it is a
    shared no-op object, making instrumentation effectively free in
    production paths.

    Examples
    --------
    >>> with span("idle"):            # no collector: no-op
    ...     pass
    >>> collector = SpanCollector()
    >>> with collector:
    ...     with span("work"):
    ...         pass
    >>> [s.name for s in collector.spans]
    ['work']
    """
    collector = getattr(_local, "collector", None)
    if collector is None:
        return _NOOP
    return _LiveSpan(collector, name)


def current_collector() -> Optional[SpanCollector]:
    """The collector active on this thread, or ``None``."""
    return getattr(_local, "collector", None)
