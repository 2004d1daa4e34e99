"""Process-safe metrics: counters, gauges and fixed-bucket histograms.

PR 1's telemetry (:mod:`repro.obs.report`) is *post-hoc*: a run record
exists only after the run finishes.  This module is the *live* side —
the metrics surface ROADMAP item 2's service daemon assumes, shared by
the batch CLI, the bench harness and the supervised pool:

* :class:`MetricsRegistry` — a named family of :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments.  Every mutation and
  every snapshot happens under one registry-wide lock, so a snapshot
  taken while other threads update is always internally consistent.
  Cross-*process* safety comes from the same design as the rest of the
  parallel layer: workers never touch the parent's registry — their
  numbers travel through the existing chunk-result channel (counters in
  the merged :class:`~repro.obs.counters.MiningStats`, heartbeats as
  marker-file mtimes) and the parent publishes them.
* ``repro-metrics/v1`` — the JSONL snapshot record
  (:meth:`MetricsRegistry.snapshot`, checked by
  :func:`validate_metrics_record`), written through the same
  :class:`~repro.obs.report.TraceWriter` sink as every other schema,
  periodically via :class:`MetricsEmitter`.
* :func:`render_prometheus` — the text exposition format a future
  ``/metrics`` endpoint will serve, with cumulative ``le`` buckets.

:func:`publish_mining_stats` maps the engines' additive
:class:`~repro.obs.counters.MiningStats` onto registry counters, so
every mining path feeds the same instrument names.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from typing import (
    IO,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import ParameterError
from repro.obs.counters import MiningStats
from repro.obs.report import TraceWriter, check_fields, present

__all__ = [
    "METRICS_SCHEMA",
    "DEFAULT_SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsEmitter",
    "publish_mining_stats",
    "render_prometheus",
    "validate_metrics_record",
]

#: Schema tag carried by every metrics snapshot record.
METRICS_SCHEMA = "repro-metrics/v1"

#: Keys every ``repro-metrics/v1`` record must carry, with their types.
_METRICS_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("at_unix", float),
    ("counters", list),
    ("gauges", list),
    ("histograms", list),
)

#: Keys every counter or gauge entry of a metrics record must carry.
_ENTRY_REQUIRED = present("name", "value") + (("labels", dict),)

#: Keys every histogram entry of a metrics record must carry.
_HISTOGRAM_REQUIRED = present("name", "labels", "sum", "count") + (
    ("boundaries", list),
    ("counts", list),
)

#: Default histogram boundaries for run/phase durations, spanning the
#: running example (sub-millisecond) to a quest-scale sweep (minutes).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: Prometheus-compatible metric and label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The identity of one instrument: name plus its sorted label items.
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _labels_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    for name, value in labels.items():
        if not _LABEL_RE.match(name):
            raise ParameterError(f"invalid label name {name!r}")
        if not isinstance(value, str):
            raise ParameterError(
                f"label {name!r} value must be str, "
                f"got {type(value).__name__}"
            )
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count.  Create via the registry."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 lock: threading.RLock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc {amount!r})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (e.g. heartbeat age)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 lock: threading.RLock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-boundary histogram of observations.

    ``boundaries`` are the upper bucket edges; internally each bucket
    holds the *non-cumulative* count of observations in ``(prev, edge]``
    (plus one overflow bucket above the last edge).  An observation
    exactly equal to an edge lands in that edge's bucket — i.e. the
    snapshot and exposition follow Prometheus ``le`` (≤) semantics.
    """

    __slots__ = ("name", "labels", "boundaries", "_lock", "_counts",
                 "_sum", "_count")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 boundaries: Tuple[float, ...], lock: threading.RLock):
        if not boundaries:
            raise ParameterError(
                f"histogram {name!r} needs at least one bucket boundary"
            )
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ParameterError(
                f"histogram {name!r} boundaries must be strictly "
                f"increasing, got {boundaries!r}"
            )
        self.name = name
        self.labels = labels
        self.boundaries = boundaries
        self._lock = lock
        self._counts = [0] * (len(boundaries) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, overflow last."""
        with self._lock:
            return list(self._counts)

    def cumulative_counts(self) -> List[int]:
        """Cumulative ``le`` counts, one per boundary plus ``+Inf``."""
        counts = self.bucket_counts()
        out: List[int] = []
        running = 0
        for count in counts:
            running += count
            out.append(running)
        return out


class MetricsRegistry:
    """The named instrument family every mining path publishes into.

    Instruments are identified by ``(name, labels)``; :meth:`counter` /
    :meth:`gauge` / :meth:`histogram` get-or-create, so publishing code
    never needs registration boilerplate.  One ``RLock`` guards every
    instrument *and* :meth:`snapshot`, which is what makes a snapshot
    taken under concurrent updates internally consistent (pinned by
    ``tests/obs/test_metrics.py``).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[_Key, object] = {}

    # -- get-or-create -------------------------------------------------
    def _get(self, name: str, labels, kind, **kwargs):
        if not _NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        key: _Key = (name, _labels_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                boundaries = kwargs.get("boundaries")
                if boundaries is not None and tuple(boundaries) != (
                    existing.boundaries  # type: ignore[union-attr]
                ):
                    raise ParameterError(
                        f"histogram {name!r} already registered with "
                        f"different boundaries"
                    )
                return existing
            metric = kind(name, key[1], lock=self._lock, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(name, labels, Counter)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(name, labels, Gauge)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        boundaries: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``.

        Re-requesting an existing histogram with different
        ``boundaries`` raises — mixed-boundary merging is undefined.
        """
        return self._get(
            name, labels, Histogram, boundaries=tuple(boundaries)
        )

    def instruments(self) -> List[object]:
        """Every registered instrument, in deterministic name order."""
        with self._lock:
            return [
                self._metrics[key] for key in sorted(self._metrics)
            ]

    # -- the repro-metrics/v1 record -----------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The ``repro-metrics/v1`` record of the current state."""
        counters: List[Dict[str, object]] = []
        gauges: List[Dict[str, object]] = []
        histograms: List[Dict[str, object]] = []
        with self._lock:
            for key in sorted(self._metrics):
                metric = self._metrics[key]
                entry: Dict[str, object] = {
                    "name": metric.name,  # type: ignore[attr-defined]
                    "labels": dict(metric.labels),  # type: ignore[attr-defined]
                }
                if isinstance(metric, Counter):
                    entry["value"] = metric.value
                    counters.append(entry)
                elif isinstance(metric, Gauge):
                    entry["value"] = metric.value
                    gauges.append(entry)
                else:
                    histogram = metric
                    assert isinstance(histogram, Histogram)
                    entry["boundaries"] = list(histogram.boundaries)
                    entry["counts"] = histogram.bucket_counts()
                    entry["sum"] = histogram.sum
                    entry["count"] = histogram.count
                    histograms.append(entry)
        return {
            "schema": METRICS_SCHEMA,
            "kind": "metrics",
            "at_unix": time.time(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def validate_metrics_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid metrics record.

    Examples
    --------
    >>> validate_metrics_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: metrics record schema 'bogus' != 'repro-metrics/v1'
    """
    schema = record.get("schema")
    if schema != METRICS_SCHEMA:
        raise ValueError(
            f"metrics record schema {schema!r} != {METRICS_SCHEMA!r}"
        )
    if record.get("kind") != "metrics":
        raise ValueError(
            f"metrics record kind {record.get('kind')!r} != 'metrics'"
        )
    check_fields(record, _METRICS_REQUIRED, "metrics record")
    for section in ("counters", "gauges"):
        for entry in record[section]:  # type: ignore[union-attr]
            check_fields(
                entry, _ENTRY_REQUIRED, f"metrics record {section} entry"
            )
    for entry in record["histograms"]:  # type: ignore[union-attr]
        check_fields(
            entry, _HISTOGRAM_REQUIRED, "metrics record histogram entry"
        )
        boundaries = entry["boundaries"]
        counts = entry["counts"]
        if len(counts) != len(boundaries) + 1:
            raise ValueError(
                f"metrics record histogram {entry['name']!r} must have "
                f"len(boundaries) + 1 counts, got {len(counts)} counts "
                f"for {len(boundaries)} boundaries"
            )
        if sum(counts) != entry["count"]:
            raise ValueError(
                f"metrics record histogram {entry['name']!r} counts sum "
                f"to {sum(counts)} but 'count' says {entry['count']}"
            )


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(
    labels: Iterable[Tuple[str, str]],
    extra: Optional[Tuple[str, str]] = None,
) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + inner + "}"


def _format_value(value: Union[int, float]) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    One ``# TYPE`` line per metric name (first label set seen), then
    one sample line per label set; histograms expand to cumulative
    ``_bucket{le=...}`` samples plus ``_sum`` and ``_count``.  This is
    the payload a ``/metrics`` endpoint serves verbatim.
    """
    lines: List[str] = []
    typed: set = set()
    for metric in registry.instruments():
        if isinstance(metric, Counter):
            kind = "counter"
        elif isinstance(metric, Gauge):
            kind = "gauge"
        else:
            kind = "histogram"
        if metric.name not in typed:  # type: ignore[attr-defined]
            typed.add(metric.name)  # type: ignore[attr-defined]
            lines.append(f"# TYPE {metric.name} {kind}")  # type: ignore[attr-defined]
        if isinstance(metric, (Counter, Gauge)):
            lines.append(
                f"{metric.name}{_labels_text(metric.labels)} "
                f"{_format_value(metric.value)}"
            )
            continue
        cumulative = metric.cumulative_counts()
        edges = [str(edge) for edge in metric.boundaries] + ["+Inf"]
        for edge, count in zip(edges, cumulative):
            labels = _labels_text(metric.labels, extra=("le", edge))
            lines.append(f"{metric.name}_bucket{labels} {count}")
        labels = _labels_text(metric.labels)
        lines.append(f"{metric.name}_sum{labels} {_format_value(metric.sum)}")
        lines.append(f"{metric.name}_count{labels} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Periodic snapshot emission
# ----------------------------------------------------------------------
class MetricsEmitter:
    """Writes registry snapshots as JSONL at a bounded rate.

    ``maybe_emit()`` is safe to call from any hot path: it returns
    immediately unless ``interval`` seconds have passed since the last
    emission.  ``emit()`` forces a snapshot (used for the final flush
    when a run ends).  The target is anything
    :class:`~repro.obs.report.TraceWriter` accepts — a path or an open
    text handle.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        target: Union[str, IO[str]],
        interval: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ParameterError(
                f"emitter interval must be positive, got {interval!r}"
            )
        self.registry = registry
        self.interval = interval
        self._writer = TraceWriter(target)
        self._last: Optional[float] = None
        self._closed = False

    def maybe_emit(self) -> bool:
        """Emit a snapshot if the interval has elapsed; report whether."""
        now = time.monotonic()
        if self._last is not None and now - self._last < self.interval:
            return False
        self.emit()
        return True

    def emit(self) -> Dict[str, object]:
        """Write one validated snapshot record now and return it."""
        record = self.registry.snapshot()
        validate_metrics_record(record)
        if not self._closed:
            self._writer.write_record(record)
        self._last = time.monotonic()
        return record

    def close(self, final: bool = True) -> None:
        """Flush a last snapshot (by default) and release the sink."""
        if self._closed:
            return
        if final:
            self.emit()
        self._closed = True
        self._writer.close()


# ----------------------------------------------------------------------
# MiningStats -> counters
# ----------------------------------------------------------------------
def publish_mining_stats(
    registry: MetricsRegistry,
    stats: MiningStats,
    engine: Optional[str] = None,
) -> None:
    """Add one run's engine counters to ``registry``.

    Every :class:`MiningStats` field becomes the counter
    ``repro_mining_<field>_total`` (labelled by ``engine`` when given).
    The stats are additive over runs, so calling this per completed run
    accumulates a service-lifetime total — exactly the Prometheus
    counter contract.
    """
    labels = {"engine": engine} if engine else None
    for name in MiningStats.field_names():
        registry.counter(f"repro_mining_{name}_total", labels).inc(
            getattr(stats, name)
        )
