"""Run telemetry and its sinks: summary table, logging, JSON-lines.

:class:`MiningTelemetry` bundles everything one mining run measured —
engine, parameters, the shared :class:`~repro.obs.counters.MiningStats`
counters, the span tree and (optionally) peak memory.  Three sinks
consume it:

* :meth:`MiningTelemetry.summary_table` — the human-readable phase
  table the CLI prints with ``--profile``;
* :meth:`MiningTelemetry.log` — one stdlib-``logging`` record per
  phase plus a run summary;
* :class:`TraceWriter` — a JSON-lines trace file, one record per line;
  a run is its one ``run`` record, span tree included.

:func:`profile_call` is the one runner every observed mining path goes
through: it opens the live monitor, collects the spans, packages the
:class:`MiningTelemetry` and writes the trace.

The ``run`` record is the repo's machine-readable benchmark currency:
``BENCH_*.json`` files embed exactly these records (schema
``repro-run/v1``, validated by :func:`validate_run_record`; see
``docs/observability.md`` for the field-by-field contract).
"""

from __future__ import annotations

import json
import logging
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.obs.counters import MiningStats
from repro.obs.spans import Span, SpanCollector

__all__ = [
    "QA_SCHEMA",
    "RUN_SCHEMA",
    "STREAM_SCHEMA",
    "SWEEP_SCHEMA",
    "MiningTelemetry",
    "TraceWriter",
    "iter_trace",
    "profile_call",
    "read_trace",
    "validate_qa_record",
    "validate_run_record",
    "validate_stream_record",
    "validate_sweep_record",
]

logger = logging.getLogger("repro.obs")

#: Schema tag carried by every run record.
RUN_SCHEMA = "repro-run/v1"

#: Schema tag carried by every ``repro qa`` gate report.
QA_SCHEMA = "repro-qa/v1"

#: Schema tag carried by every shared-scan sweep record.
SWEEP_SCHEMA = "repro-sweep/v1"

#: Schema tag carried by every streaming-checkpoint record.
STREAM_SCHEMA = "repro-stream/v1"


def present(*keys: str) -> Tuple[Tuple[str, type], ...]:
    """:func:`check_fields` pairs that ask only for presence."""
    return tuple((key, object) for key in keys)


#: Keys a ``repro-stream/v1`` header record must carry, with types.
_STREAM_HEADER_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("shards", int),
    ("params", dict),
    ("streams", int),
    ("active", int),
    ("evicted", int),
    ("lru", list),
    ("watched", list),
)

#: Keys a ``repro-stream/v1`` per-stream record must carry, with types.
_STREAM_STATE_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("shard", int),
    ("state", dict),
    ("stream", object),
)

#: Top-level keys every ``repro-qa/v1`` record must carry, with types.
_QA_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("passed", bool),
    ("seconds", float),
    ("budget_seconds", float),
    ("seed", int),
    ("skipped", list),
    ("relations", dict),
    ("golden", dict),
    ("differential", dict),
)

#: Sections of a ``repro-qa/v1`` record, and the keys of their checks.
_QA_RELATIONS = present("matrix_complete") + (
    ("checks", list), ("violations", list),
)
_QA_RELATION_CHECK = present(
    "relation", "engine", "jobs", "cases", "violations"
)
_QA_GOLDEN_CHECK = present("name", "engine", "status")
_QA_DIFFERENTIAL = present("cases", "checks") + (("failures", list),)

#: Keys every ``repro-run/v1`` record must carry, with their types.
_RUN_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("engine", str),
    ("params", dict),
    ("patterns_found", int),
    ("seconds", float),
    ("counters", dict),
    ("spans", list),
)

#: Keys of a run record's optional ``faults`` section, with their types.
_RUN_FAULTS: Tuple[Tuple[str, type], ...] = (
    ("chunks_retried", int),
    ("chunks_fallback", int),
    ("events", list),
)


@dataclass
class MiningTelemetry:
    """Everything measured about one mining run."""

    engine: str
    params: Dict[str, object]
    stats: MiningStats
    spans: Tuple[Span, ...]
    patterns_found: int
    seconds: float
    memory_peak_bytes: Optional[int] = None
    dataset: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    # -- derived views -------------------------------------------------
    def phase_seconds(self) -> Dict[str, float]:
        """Summed seconds per span name, in first-seen order."""
        totals: Dict[str, float] = {}
        for root in self.spans:
            for _, item in root.walk():
                totals[item.name] = totals.get(item.name, 0.0) + item.seconds
        return totals

    def as_run_record(self) -> Dict[str, object]:
        """The ``repro-run/v1`` record (see docs/observability.md)."""
        record: Dict[str, object] = {
            "schema": RUN_SCHEMA,
            "kind": "run",
            "engine": self.engine,
            "params": dict(self.params),
            "patterns_found": self.patterns_found,
            "seconds": self.seconds,
            "counters": self.stats.as_dict(),
            "spans": [root.as_dict() for root in self.spans],
        }
        if self.memory_peak_bytes is not None:
            record["memory_peak_bytes"] = self.memory_peak_bytes
        if self.dataset is not None:
            record["dataset"] = self.dataset
        record.update(self.extra)
        return record

    # -- sinks ---------------------------------------------------------
    def summary_table(self) -> str:
        """Phase timings and counters as a fixed-width table."""
        from repro.bench.reporting import format_table  # avoid cycle

        rows: List[List[object]] = []
        for root in self.spans:
            for depth, item in root.walk():
                memory = (
                    _format_bytes(item.memory_peak_bytes)
                    if item.memory_peak_bytes is not None
                    else ""
                )
                rows.append(
                    ["  " * depth + item.name, f"{item.seconds:.6f}", memory]
                )
        rows.append(["total", f"{self.seconds:.6f}",
                     _format_bytes(self.memory_peak_bytes)
                     if self.memory_peak_bytes is not None else ""])
        phase_table = format_table(
            ["phase", "seconds", "peak mem"],
            rows,
            title=f"{self.engine}: {self.patterns_found} patterns",
        )
        counter_rows = [
            [name, value]
            for name, value in self.stats.as_dict().items()
        ]
        counter_table = format_table(["counter", "value"], counter_rows)
        return phase_table + "\n\n" + counter_table

    def log(
        self,
        target: Optional[logging.Logger] = None,
        level: int = logging.INFO,
    ) -> None:
        """Emit the telemetry through stdlib logging."""
        sink = target if target is not None else logger
        sink.log(
            level,
            "run engine=%s patterns=%d seconds=%.6f",
            self.engine,
            self.patterns_found,
            self.seconds,
        )
        for name, seconds in self.phase_seconds().items():
            sink.log(level, "phase %s seconds=%.6f", name, seconds)


def check_fields(
    record: Any, required: Tuple[Tuple[str, type], ...], what: str
) -> None:
    """Raise ``ValueError`` at the first missing or mistyped field.

    ``required`` holds ``(key, type)`` pairs; ``object`` asks only for
    presence.  The one type rule of every record validator: an ``int``
    field refuses a ``bool`` and a ``float`` field accepts an ``int``
    (JSON has one number type).

    Examples
    --------
    >>> check_fields({"n": True}, (("n", int),), "run record")
    Traceback (most recent call last):
        ...
    ValueError: run record key 'n' must be int, got bool
    """
    for key, expected in required:
        if key not in record:
            raise ValueError(f"{what} missing required key {key!r}")
        value = record[key]
        accepted = (int, float) if expected is float else expected
        if not isinstance(value, accepted) or (
            expected in (int, float) and isinstance(value, bool)
        ):
            raise ValueError(
                f"{what} key {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )


def validate_run_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid run record.

    Examples
    --------
    >>> validate_run_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: run record schema 'bogus' != 'repro-run/v1'
    """
    schema = record.get("schema")
    if schema != RUN_SCHEMA:
        raise ValueError(f"run record schema {schema!r} != {RUN_SCHEMA!r}")
    check_fields(record, _RUN_REQUIRED, "run record")
    if record["kind"] != "run":
        raise ValueError(f"run record kind {record['kind']!r} != 'run'")
    check_fields(
        record["counters"],
        tuple((name, int) for name in MiningStats.field_names()),
        "run record counters",
    )
    if "faults" in record:
        check_fields(record, (("faults", dict),), "run record")
        check_fields(record["faults"], _RUN_FAULTS, "run record faults")


#: Keys every ``repro-sweep/v1`` record must carry, with their types.
_SWEEP_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("engine", str),
    ("grid", dict),
    ("jobs", int),
    ("seconds", float),
    ("counters", dict),
    ("cells", list),
)

#: Reuse counters every sweep record's ``counters`` section must carry.
_SWEEP_COUNTERS = tuple(
    (name, int)
    for name in ("cells_total", "cells_mined", "cells_derived", "scans_shared")
)

#: The axes a sweep record's ``grid`` must list.
_SWEEP_GRID = tuple(
    (axis, list) for axis in ("pers", "min_ps_values", "min_recs")
)

#: Keys every cell of a sweep record must carry, with their types.
_SWEEP_CELL_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("params", dict),
    ("patterns_found", int),
    ("seconds", float),
    ("derived", bool),
    ("counters", dict),
    ("spans", list),
)


def validate_sweep_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid sweep record.

    The ``repro-sweep/v1`` schema is the machine-readable output of the
    shared-scan threshold-sweep engine (:mod:`repro.sweep`); it is
    written through the same :class:`TraceWriter` sink as
    ``repro-run/v1`` records and consumed the same way by
    ``BENCH_sweep.json``.  See ``docs/observability.md`` for the
    field-by-field contract.

    Examples
    --------
    >>> validate_sweep_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: sweep record schema 'bogus' != 'repro-sweep/v1'
    """
    schema = record.get("schema")
    if schema != SWEEP_SCHEMA:
        raise ValueError(
            f"sweep record schema {schema!r} != {SWEEP_SCHEMA!r}"
        )
    check_fields(record, _SWEEP_REQUIRED, "sweep record")
    if record["kind"] != "sweep":
        raise ValueError(
            f"sweep record kind {record['kind']!r} != 'sweep'"
        )
    check_fields(record["grid"], _SWEEP_GRID, "sweep record grid")
    counters = record["counters"]
    check_fields(counters, _SWEEP_COUNTERS, "sweep record counters")
    cells = record["cells"]
    expected_cells = counters["cells_total"]  # type: ignore[index]
    if len(cells) != expected_cells:  # type: ignore[arg-type]
        raise ValueError(
            f"sweep record has {len(cells)} cells "  # type: ignore[arg-type]
            f"but counters.cells_total = {expected_cells}"
        )
    for cell in cells:  # type: ignore[union-attr]
        check_fields(cell, _SWEEP_CELL_REQUIRED, "sweep record cell")
        check_fields(
            cell["params"], present("per", "min_ps", "min_rec"),
            "sweep record cell params",
        )
        if cell["derived"] and not cell.get("derived_from"):
            raise ValueError(
                "sweep record derived cell must name 'derived_from'"
            )


def validate_qa_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid qa record.

    The ``repro-qa/v1`` schema is the machine-readable output of the
    ``repro qa`` conformance gate (:mod:`repro.qa.gate`); CI consumes
    it the way benchmarks consume ``repro-run/v1`` records.  See
    ``docs/observability.md`` for the field-by-field contract.

    Examples
    --------
    >>> validate_qa_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: qa record schema 'bogus' != 'repro-qa/v1'
    """
    schema = record.get("schema")
    if schema != QA_SCHEMA:
        raise ValueError(f"qa record schema {schema!r} != {QA_SCHEMA!r}")
    check_fields(record, _QA_REQUIRED, "qa record")
    if record["kind"] != "qa":
        raise ValueError(f"qa record kind {record['kind']!r} != 'qa'")
    relations = record["relations"]
    check_fields(relations, _QA_RELATIONS, "qa record relations")
    for check in relations["checks"]:  # type: ignore[index]
        check_fields(check, _QA_RELATION_CHECK, "qa record relation check")
    golden = record["golden"]
    check_fields(golden, (("checks", list),), "qa record golden")
    for check in golden["checks"]:  # type: ignore[index]
        check_fields(check, _QA_GOLDEN_CHECK, "qa record golden check")
    check_fields(
        record["differential"], _QA_DIFFERENTIAL, "qa record differential"
    )


def validate_stream_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid stream record.

    The ``repro-stream/v1`` schema is the checkpoint format of the
    sharded streaming registry (:mod:`repro.streaming`): one
    ``stream-checkpoint`` header line followed by one ``stream-state``
    line per stream, all written through the same :class:`TraceWriter`
    sink as ``repro-run/v1`` records.  See ``docs/streaming.md`` for
    the field-by-field contract.

    Examples
    --------
    >>> validate_stream_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: stream record schema 'bogus' != 'repro-stream/v1'
    """
    schema = record.get("schema")
    if schema != STREAM_SCHEMA:
        raise ValueError(
            f"stream record schema {schema!r} != {STREAM_SCHEMA!r}"
        )
    kind = record.get("kind")
    if kind == "stream-checkpoint":
        required = _STREAM_HEADER_REQUIRED
    elif kind == "stream-state":
        required = _STREAM_STATE_REQUIRED
    else:
        raise ValueError(
            f"stream record kind {kind!r} is not one of "
            f"'stream-checkpoint', 'stream-state'"
        )
    check_fields(record, required, "stream record")
    if kind == "stream-checkpoint":
        if record["shards"] < 1:  # type: ignore[operator]
            raise ValueError("stream record 'shards' must be >= 1")
        check_fields(
            record["params"], present("min_ps", "min_rec"),
            "stream record params",
        )
    else:
        state_kind = record["state"].get("kind")  # type: ignore[union-attr]
        if state_kind not in ("monitor", "calendar-monitor"):
            raise ValueError(
                f"stream record state kind {state_kind!r} is not one of "
                f"'monitor', 'calendar-monitor'"
            )


class TraceWriter:
    """JSON-lines trace sink: one complete JSON record per line.

    A completed run contributes its one ``{"kind": "run", ...}`` record,
    which carries the run's span tree, so a trace holds each span once.
    Every line is a complete JSON document, so a trace interrupted
    between records is still parseable.

    Examples
    --------
    >>> import io
    >>> handle = io.StringIO()
    >>> writer = TraceWriter(handle)
    >>> writer.write_record({"kind": "note", "text": "hi"})
    >>> handle.getvalue()
    '{"kind": "note", "text": "hi"}\\n'
    """

    def __init__(self, target: Union[str, IO[str]]):
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Close the underlying file if this writer opened it."""
        if self._owns_handle:
            self._handle.close()

    def write_record(self, record: Mapping[str, object]) -> None:
        """Write one record as a single JSON line (flushed)."""
        self._handle.write(json.dumps(record, sort_keys=False) + "\n")
        self._handle.flush()

    def write_run(self, telemetry: MiningTelemetry) -> None:
        """One run's ``repro-run/v1`` record, span tree included."""
        self.write_record(telemetry.as_run_record())


def iter_trace(
    source: Union[str, IO[str]]
) -> Iterator[Dict[str, object]]:
    """Stream a JSON-lines trace one record at a time.

    Blank lines are ignored; anything else must be valid JSON.  Memory
    use is O(longest line), never O(file) — a nightly sweep trace with
    thousands of snapshot records costs the same as a two-line one.
    Given a path the file is opened lazily and closed when the
    generator is exhausted or dropped; given a handle, the caller keeps
    ownership and the handle is read from its current position.
    """
    if hasattr(source, "read"):
        for line in source:  # type: ignore[union-attr]
            if line.strip():
                yield json.loads(line)
        return
    with open(source, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def read_trace(source: Union[str, IO[str]]) -> List[Dict[str, object]]:
    """Parse a whole JSON-lines trace into a list of records.

    Convenience eager form of :func:`iter_trace`; prefer the iterator
    for anything that might be large (the trace CLI does).
    """
    return list(iter_trace(source))


def profile_call(
    fn: Callable[
        [Optional[object]],
        Tuple[
            object,
            Optional[MiningStats],
            Optional[Callable[[], Dict[str, object]]],
        ],
    ],
    engine: str,
    observability,
    params: Optional[Dict[str, object]] = None,
    dataset: Optional[str] = None,
    count: Callable[[object], int] = len,
) -> Tuple[object, Optional[MiningTelemetry]]:
    """Run ``fn(monitor)`` with the observability its options ask for.

    The one runner of every observed mining path: ``execute_request``
    (the façade, CLI ``mine`` and the daemon's misses), and the CLI's
    noise-tolerant, baseline and ``shard`` runs.  In order, it

    1. opens the live monitor ``observability`` asks for (progress,
       metrics or an injected monitor; it closes only one it built)
       and reports the finished run to it;
    2. collects spans while ``fn`` runs, when telemetry is on
       (``collect_stats`` or ``trace``);
    3. packages the run's one :class:`MiningTelemetry`;
    4. writes it to ``observability.trace`` as one run record.

    ``fn`` returns ``(result, stats, extra)``: ``stats`` may be
    ``None`` (the record then counts only ``patterns_found``), and
    ``extra``, a zero-argument callable or ``None``, supplies the run
    record's extra fields and is called only when telemetry is on.
    ``count`` reads ``patterns_found`` off ``result``; ``dataset`` is
    the label used when ``observability.dataset`` is unset.

    Returns ``(result, telemetry)``; ``telemetry`` is ``None`` when
    telemetry is off, and then no span collector is built.
    """
    # progress imports metrics, which imports this module.
    from repro.obs.progress import open_monitor

    if observability.track_memory and not observability.enabled:
        warnings.warn(
            "track_memory=True has no effect without collect_stats or "
            "trace — no telemetry is collected, so there is nothing to "
            "attach memory samples to",
            RuntimeWarning,
            stacklevel=3,
        )
    collector = (
        SpanCollector(track_memory=observability.track_memory)
        if observability.enabled
        else None
    )
    with open_monitor(observability) as monitor:
        started = time.perf_counter()
        with nullcontext() if collector is None else collector:
            result, stats, extra = fn(monitor)
        seconds = time.perf_counter() - started
        found = count(result)
        if monitor is not None:
            monitor.run_finished(
                engine=engine, stats=stats, seconds=seconds,
                patterns_found=found,
            )
    if collector is None:
        return result, None
    telemetry = MiningTelemetry(
        engine=engine,
        params=dict(params or {}),
        stats=MiningStats(patterns_found=found) if stats is None else stats,
        spans=collector.spans,
        patterns_found=found,
        seconds=seconds,
        memory_peak_bytes=collector.memory_peak_bytes,
        dataset=(
            dataset if observability.dataset is None
            else observability.dataset
        ),
        extra={} if extra is None else extra(),
    )
    if observability.trace is not None:
        with TraceWriter(observability.trace) as writer:
            writer.write_run(telemetry)
    return result, telemetry


def _format_bytes(value: Optional[int]) -> str:
    if value is None:
        return ""
    if value >= 1 << 20:
        return f"{value / (1 << 20):.1f} MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f} KiB"
    return f"{value} B"
