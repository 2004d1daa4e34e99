"""The unified mining request object.

Nine PRs grew the façade one keyword at a time: thresholds, engine,
``jobs``, ``shards``/``max_events_in_memory``, two options objects.
Every layer that forwards a mine — the CLI, the sweep engine's cell
scheduler, the shard pipeline, and now the service daemon — had to
thread that kwarg soup through its own signature.  A
:class:`MiningRequest` is the one frozen, eagerly validated object
that replaces it: *what* to mine (an optional :class:`DatasetRef`),
*how* to mine it (engine, thresholds, jobs, sharding) and the
cross-cutting options (:class:`~repro.core.options.ResilienceOptions`,
:class:`~repro.core.options.ObservabilityOptions`).

The object has a JSON wire form (:meth:`MiningRequest.to_dict` /
:meth:`MiningRequest.from_dict`) because the service daemon
(:mod:`repro.service`) accepts it over HTTP; fields that cannot travel
(an injected monitor, open trace handles, a fault plan) are deliberately
excluded from the wire form and rejected when serialising.

The request also knows its identity in the service result cache:
:meth:`MiningRequest.cache_key` is the content address
``(dataset_digest, engine, per, min_ps, min_rec)`` and
:meth:`MiningRequest.column_key` drops ``min_rec`` — the coordinate
along which the min_rec derivation theorem (``docs/api.md``) lets a
looser cached cell answer tighter queries.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from repro._validation import Number
from repro.core.engines import get_engine
from repro.core.model import MiningParameters
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.exceptions import ParameterError
from repro.timeseries.database import TransactionalDatabase

__all__ = ["DatasetRef", "MiningRequest", "resolve_jobs"]

#: Dataset reference kinds the wire format accepts.
_REF_KINDS = ("inline", "file", "workload")


def resolve_jobs(jobs: Optional[int], engine: str) -> int:
    """Normalise and validate a ``jobs`` count against an engine.

    ``None`` means 1; anything else must be a positive int, and counts
    above 1 require the engine's ``supports_jobs`` capability.  Shared
    by :class:`MiningRequest` and the sweep plan so both emit the same
    pinned messages.
    """
    spec = get_engine(engine)
    resolved = 1 if jobs is None else jobs
    if isinstance(resolved, bool) or not isinstance(resolved, int) \
            or resolved < 1:
        raise ParameterError(f"jobs must be a positive int, got {jobs!r}")
    if resolved > 1 and not spec.supports_jobs:
        raise ParameterError(
            f"engine {engine!r} does not support jobs > 1; its "
            "registry entry lacks the supports_jobs capability (the "
            "exhaustive reference stays single-process by design)"
        )
    return resolved


@dataclass(frozen=True)
class DatasetRef:
    """A serialisable reference to the data a request mines.

    Three kinds cover the service's inputs:

    * ``inline`` — the transactions travel in the request itself
      (``rows`` of ``(ts, [items...])`` pairs); right for the small
      interactive case;
    * ``file`` — a transaction-format path readable by the *server*
      (the big-data case: ship the reference, not the bytes);
    * ``workload`` — a named synthetic generator from
      :mod:`repro.bench.workloads` plus its ``scale``/``seed``, so
      benchmarks and examples need no files at all.

    Examples
    --------
    >>> ref = DatasetRef.inline([(1, ["a", "b"]), (2, ["a"])])
    >>> len(ref.load())
    2
    >>> DatasetRef.from_dict(ref.to_dict()) == ref
    True
    """

    kind: str
    rows: Optional[Tuple[Tuple[float, Tuple[str, ...]], ...]] = None
    path: Optional[str] = None
    workload: Optional[str] = None
    scale: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _REF_KINDS:
            raise ParameterError(
                f"dataset ref kind must be one of {_REF_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "inline":
            if self.rows is None:
                raise ParameterError("inline dataset ref requires rows")
            canonical = []
            for row in self.rows:
                try:
                    ts, items = row
                except (TypeError, ValueError) as exc:
                    raise ParameterError(
                        f"inline row must be a (ts, items) pair, got {row!r}"
                    ) from exc
                canonical.append((ts, tuple(items)))
            object.__setattr__(self, "rows", tuple(canonical))
        elif self.kind == "file":
            # A non-string path would reach open(), which reads an int
            # (or a bool) as a file descriptor and closes it afterwards.
            if not isinstance(self.path, str) or not self.path:
                raise ParameterError(
                    "file dataset ref requires a path (a non-empty "
                    f"string), got {self.path!r}"
                )
        else:
            if not self.workload:
                raise ParameterError(
                    "workload dataset ref requires a workload name"
                )

    # -- constructors --------------------------------------------------
    @classmethod
    def inline(cls, rows) -> "DatasetRef":
        """Reference carrying the transactions themselves."""
        return cls(kind="inline", rows=tuple(rows))

    @classmethod
    def from_database(cls, database: TransactionalDatabase) -> "DatasetRef":
        """Inline reference to an already-built database."""
        return cls.inline(
            (t.ts, tuple(sorted(t.items, key=repr))) for t in database
        )

    @classmethod
    def file(cls, path: str) -> "DatasetRef":
        """Reference to a transaction-format file on the server."""
        return cls(kind="file", path=str(path))

    @classmethod
    def named_workload(
        cls, name: str, scale: float = 0.05, seed: int = 0
    ) -> "DatasetRef":
        """Reference to a synthetic workload generator."""
        return cls(kind="workload", workload=name, scale=scale, seed=seed)

    # -- behaviour -----------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable dataset label for telemetry records."""
        if self.kind == "inline":
            return f"inline[{len(self.rows or ())} rows]"
        if self.kind == "file":
            return str(self.path)
        return f"{self.workload}-{self.scale:g}"

    def load(self, data: Optional[bytes] = None) -> TransactionalDatabase:
        """Materialise the referenced database.

        ``data`` is a ``file`` ref's content already read, parsed in
        place of the path: the service hashes a file's bytes and parses
        those same bytes, so a rewrite in between cannot pair one
        content's hash with another's database.  Decoding and line
        splitting are exactly those of reading the path as UTF-8 text.
        """
        if data is not None and self.kind != "file":
            raise ParameterError(
                "only a file dataset ref loads from data, not a "
                f"{self.kind} ref"
            )
        if self.kind == "inline":
            return TransactionalDatabase(self.rows or ())
        if self.kind == "file":
            from repro.timeseries.io import load_transactional_database

            if data is None:
                return load_transactional_database(self.path)
            with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
                return load_transactional_database(text)
        from repro.bench.workloads import WORKLOADS

        try:
            factory = WORKLOADS[self.workload]
        except KeyError:
            raise ParameterError(
                f"unknown workload {self.workload!r}; known: "
                f"{sorted(WORKLOADS)}"
            ) from None
        return factory(scale=self.scale, seed=self.seed)

    # -- wire format ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        record: Dict[str, object] = {"kind": self.kind}
        if self.kind == "inline":
            record["rows"] = [
                [ts, list(items)] for ts, items in (self.rows or ())
            ]
        elif self.kind == "file":
            record["path"] = self.path
        else:
            record["workload"] = self.workload
            record["scale"] = self.scale
            record["seed"] = self.seed
        return record

    @classmethod
    def from_dict(cls, record) -> "DatasetRef":
        """Parse the wire form, re-validating every field."""
        if not isinstance(record, dict):
            raise ParameterError(
                f"dataset ref must be an object, got {type(record).__name__}"
            )
        kind = record.get("kind")
        if kind == "inline":
            rows = record.get("rows")
            if not isinstance(rows, (list, tuple)):
                raise ParameterError("inline dataset ref requires rows")
            return cls.inline(tuple((ts, tuple(items)) for ts, items in rows))
        if kind == "file":
            return cls(kind="file", path=record.get("path"))
        if kind == "workload":
            return cls(
                kind="workload",
                workload=record.get("workload"),
                scale=record.get("scale", 0.05),
                seed=record.get("seed", 0),
            )
        raise ParameterError(
            f"dataset ref kind must be one of {_REF_KINDS}, got {kind!r}"
        )


@dataclass(frozen=True)
class MiningRequest:
    """One validated, immutable description of a mine.

    Attributes
    ----------
    per, min_ps, min_rec:
        The model thresholds, validated exactly as the façade validates
        them (shared :class:`~repro.core.model.MiningParameters`
        messages, before any work starts).
    engine:
        Engine-registry name; must exist at construction time.
    jobs:
        Worker processes; ``None`` normalises to 1, ``> 1`` requires
        the engine's ``supports_jobs`` capability.
    shards, max_events_in_memory:
        Route through the time-sharded pipeline (:mod:`repro.shard`);
        mutually exclusive, both optional.
    resilience, observability:
        The two PR-5 options objects, embedded whole.
    source:
        Optional :class:`DatasetRef`.  The façade fills it in from the
        positional ``data`` argument's shape only for telemetry; the
        service requires it — a request without data cannot be served.

    Examples
    --------
    >>> request = MiningRequest(per=2, min_ps=3, min_rec=2)
    >>> request.jobs
    1
    >>> request.cache_key("d1")
    ('d1', 'rp-growth', 2, 3, 2)
    >>> MiningRequest.from_dict(request.to_dict()) == request
    True
    """

    per: Number
    min_ps: Union[int, float]
    min_rec: int = 1
    engine: str = "rp-growth"
    jobs: Optional[int] = None
    shards: Optional[int] = None
    max_events_in_memory: Optional[int] = None
    resilience: ResilienceOptions = field(default_factory=ResilienceOptions)
    observability: ObservabilityOptions = field(
        default_factory=ObservabilityOptions
    )
    source: Optional[DatasetRef] = None

    def __post_init__(self) -> None:
        MiningParameters(
            per=self.per, min_ps=self.min_ps, min_rec=self.min_rec
        )
        object.__setattr__(self, "jobs", resolve_jobs(self.jobs, self.engine))
        if self.shards is not None and self.max_events_in_memory is not None:
            raise ParameterError(
                "shards and max_events_in_memory are mutually exclusive — "
                "one names a shard count, the other a per-shard bound"
            )
        for name, value in (
            ("shards", self.shards),
            ("max_events_in_memory", self.max_events_in_memory),
        ):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ParameterError(
                    f"{name} must be a positive int, got {value!r}"
                )
        if not isinstance(self.resilience, ResilienceOptions):
            raise ParameterError(
                "resilience must be a ResilienceOptions, "
                f"got {type(self.resilience).__name__}"
            )
        if not isinstance(self.observability, ObservabilityOptions):
            raise ParameterError(
                "observability must be an ObservabilityOptions, "
                f"got {type(self.observability).__name__}"
            )
        if self.source is not None and not isinstance(
            self.source, DatasetRef
        ):
            raise ParameterError(
                f"source must be a DatasetRef, "
                f"got {type(self.source).__name__}"
            )

    # -- derived views -------------------------------------------------
    @property
    def sharded(self) -> bool:
        """True when the request routes through :mod:`repro.shard`."""
        return (
            self.shards is not None or self.max_events_in_memory is not None
        )

    def thresholds(self) -> Dict[str, object]:
        """The model-threshold triple as the telemetry ``params`` dict."""
        return {
            "per": self.per, "min_ps": self.min_ps, "min_rec": self.min_rec,
        }

    def cache_key(self, dataset_digest: str) -> Tuple:
        """The service cache's content address for this request."""
        return (
            dataset_digest, self.engine, self.per, self.min_ps, self.min_rec,
        )

    def column_key(self, dataset_digest: str) -> Tuple:
        """The cache column — everything ``min_rec`` derivation shares."""
        return (dataset_digest, self.engine, self.per, self.min_ps)

    def with_thresholds(
        self,
        per: Optional[Number] = None,
        min_ps: Optional[Union[int, float]] = None,
        min_rec: Optional[int] = None,
    ) -> "MiningRequest":
        """A copy with some thresholds replaced (re-validated)."""
        return replace(
            self,
            per=self.per if per is None else per,
            min_ps=self.min_ps if min_ps is None else min_ps,
            min_rec=self.min_rec if min_rec is None else min_rec,
        )

    # -- wire format ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON wire form (inverse of :meth:`from_dict`).

        The resilience knobs travel minus ``fault_plan`` (a local
        testing hook), and only the scalar observability fields travel
        (``collect_stats``/``track_memory``/``dataset``) — trace and
        metrics sinks belong to the process that owns the file handles.
        Raises :class:`~repro.exceptions.ParameterError` when a
        non-serialisable field is set, instead of silently dropping it.
        """
        if self.resilience.fault_plan is not None:
            raise ParameterError(
                "a fault_plan cannot be serialised; it is a local "
                "testing hook — build the request without one"
            )
        obs = self.observability
        for name, value in (
            ("monitor", obs.monitor),
            ("trace", obs.trace),
            ("metrics", obs.metrics),
        ):
            if value is not None:
                raise ParameterError(
                    f"observability.{name} cannot be serialised; sinks "
                    "and monitors belong to the serving process"
                )
        record: Dict[str, object] = {
            "per": self.per,
            "min_ps": self.min_ps,
            "min_rec": self.min_rec,
            "engine": self.engine,
            "jobs": self.jobs,
            "resilience": {
                "timeout": self.resilience.timeout,
                "max_retries": self.resilience.max_retries,
                "fallback": self.resilience.fallback,
            },
            "observability": {
                "collect_stats": obs.collect_stats,
                "track_memory": obs.track_memory,
                "dataset": obs.dataset,
            },
        }
        if self.shards is not None:
            record["shards"] = self.shards
        if self.max_events_in_memory is not None:
            record["max_events_in_memory"] = self.max_events_in_memory
        if self.source is not None:
            record["source"] = self.source.to_dict()
        return record

    @classmethod
    def from_dict(cls, record) -> "MiningRequest":
        """Parse (and fully re-validate) the wire form."""
        if not isinstance(record, dict):
            raise ParameterError(
                f"mining request must be an object, "
                f"got {type(record).__name__}"
            )
        known = {
            "per", "min_ps", "min_rec", "engine", "jobs", "shards",
            "max_events_in_memory", "resilience", "observability", "source",
        }
        unknown = sorted(set(record) - known)
        if unknown:
            raise ParameterError(
                f"mining request has unknown field(s) {unknown}"
            )
        for required in ("per", "min_ps"):
            if required not in record:
                raise ParameterError(
                    f"mining request missing required field {required!r}"
                )
        resilience_record = record.get("resilience") or {}
        if not isinstance(resilience_record, dict):
            raise ParameterError("mining request 'resilience' must be an object")
        extra = sorted(
            set(resilience_record) - {"timeout", "max_retries", "fallback"}
        )
        if extra:
            raise ParameterError(
                f"mining request resilience has unknown field(s) {extra}"
            )
        resilience = ResilienceOptions(
            timeout=resilience_record.get("timeout"),
            max_retries=resilience_record.get("max_retries", 2),
            fallback=resilience_record.get("fallback", "serial"),
        )
        obs_record = record.get("observability") or {}
        if not isinstance(obs_record, dict):
            raise ParameterError(
                "mining request 'observability' must be an object"
            )
        extra = sorted(
            set(obs_record) - {"collect_stats", "track_memory", "dataset"}
        )
        if extra:
            raise ParameterError(
                f"mining request observability has unknown field(s) {extra}"
            )
        observability = ObservabilityOptions(
            collect_stats=bool(obs_record.get("collect_stats", False)),
            track_memory=bool(obs_record.get("track_memory", False)),
            dataset=obs_record.get("dataset"),
        )
        source_record = record.get("source")
        source = (
            DatasetRef.from_dict(source_record)
            if source_record is not None else None
        )
        return cls(
            per=record["per"],
            min_ps=record["min_ps"],
            min_rec=record.get("min_rec", 1),
            engine=record.get("engine", "rp-growth"),
            jobs=record.get("jobs"),
            shards=record.get("shards"),
            max_events_in_memory=record.get("max_events_in_memory"),
            resilience=resilience,
            observability=observability,
            source=source,
        )
