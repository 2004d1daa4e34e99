"""The engine registry — the single source of truth for engine names.

Every part of the library that needs to know which mining engines
exist (the façade, the CLI's ``--engine`` choices, the parallel
layer's capability check, the qa gate's engine × jobs matrix) reads
this registry instead of keeping its own copied tuple.  An engine is a
:class:`EngineSpec`: a name, a factory producing a miner object, and
capability flags —

``supports_jobs``
    The engine's search space can be prefix-partitioned by
    :mod:`repro.parallel`, so ``jobs > 1`` is allowed.  Pool workers
    build their engine through the same factory, so such an engine
    must also speak the worker protocol (``_first_scan`` /
    ``attach_context`` / ``_grow``, see ``docs/api.md``).
``exhaustive``
    The engine enumerates the full itemset lattice without pruning; it
    exists as an obviously-correct reference for small inputs, and
    consumers like the golden corpus exclude it from large cases.

A factory is called as ``factory(per, min_ps, min_rec)`` and returns
an object with ``mine(database)`` and ``last_stats`` (the
:class:`~repro.obs.counters.StatsSource` protocol).  The factory is
the only way the library builds an engine — serial runs, the parallel
parent, its pool workers and its serial fallback alike.  Engine
options such as ``RPGrowth(item_order=)`` belong to the engine
classes, for direct use.

Examples
--------
>>> from repro.core.engines import engine_names, get_engine
>>> engine_names()
('rp-growth', 'rp-eclat-vec', 'naive')
>>> engine_names(supports_jobs=True)
('rp-growth', 'rp-eclat-vec')
>>> get_engine("naive").supports_jobs
False
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.exceptions import ParameterError

__all__ = [
    "EngineSpec",
    "engine_names",
    "get_engine",
    "register_engine",
    "unregister_engine",
]


@dataclass(frozen=True)
class EngineSpec:
    """One registered mining engine: identity, factory, capabilities."""

    name: str
    factory: Callable[..., object]
    supports_jobs: bool = False
    exhaustive: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ParameterError(
                f"engine name must be a non-empty string, got {self.name!r}"
            )
        if not callable(self.factory):
            raise ParameterError(
                f"engine factory must be callable, got {self.factory!r}"
            )


#: The registry proper.  Insertion order is the presentation order
#: everywhere (CLI choices, qa matrices, documentation).
_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(
    name: str,
    factory: Callable[..., object],
    *,
    supports_jobs: bool = False,
    exhaustive: bool = False,
    description: str = "",
    replace: bool = False,
) -> EngineSpec:
    """Register a mining engine under ``name``.

    ``factory(per, min_ps, min_rec)`` must return an object with
    ``mine(database)`` and ``last_stats``.  Registering an
    existing name raises :class:`~repro.exceptions.ParameterError`
    unless ``replace=True``.

    Returns the created :class:`EngineSpec`.
    """
    if name in _REGISTRY and not replace:
        raise ParameterError(
            f"engine {name!r} is already registered; "
            "pass replace=True to override it"
        )
    spec = EngineSpec(
        name=name,
        factory=factory,
        supports_jobs=supports_jobs,
        exhaustive=exhaustive,
        description=description,
    )
    _REGISTRY[name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove ``name`` from the registry (no-op for unknown names)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> EngineSpec:
    """The :class:`EngineSpec` registered as ``name``.

    Raises :class:`~repro.exceptions.ParameterError` naming the known
    engines when ``name`` is not registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown engine {name!r}; expected one of {engine_names()}"
        ) from None


def engine_names(*, supports_jobs: Optional[bool] = None) -> tuple:
    """Registered engine names, in registration order.

    ``supports_jobs=True`` (``False``) keeps only the engines that can
    (cannot) be prefix-partitioned across worker processes.  The tuple
    is computed on every call, so an engine registered later shows up
    at once.
    """
    return tuple(
        name
        for name, spec in _REGISTRY.items()
        if supports_jobs is None or spec.supports_jobs == supports_jobs
    )


# ----------------------------------------------------------------------
# Built-in engine factories (lazy imports keep start-up cheap and
# avoid import cycles).
# ----------------------------------------------------------------------
def _make_rp_growth(per, min_ps, min_rec):
    from repro.core.rp_growth import RPGrowth

    return RPGrowth(per, min_ps, min_rec)


def _make_rp_eclat_vec(per, min_ps, min_rec):
    from repro.core.rp_eclat_vec import RPEclatVec

    return RPEclatVec(per, min_ps, min_rec)


class _NaiveEngine:
    """Adapter giving the naive reference miner the engine protocol."""

    def __init__(self, per, min_ps, min_rec):
        self.per = per
        self.min_ps = min_ps
        self.min_rec = min_rec
        self.last_stats = None

    def mine(self, database):
        from repro.core.naive import mine_recurring_patterns_naive
        from repro.obs.counters import MiningStats

        stats = MiningStats()
        result = mine_recurring_patterns_naive(
            database, self.per, self.min_ps, self.min_rec, stats=stats
        )
        self.last_stats = stats
        return result


def _make_naive(per, min_ps, min_rec):
    return _NaiveEngine(per, min_ps, min_rec)


register_engine(
    "rp-growth",
    _make_rp_growth,
    supports_jobs=True,
    description="the paper's RP-growth algorithm (default)",
)
register_engine(
    "rp-eclat-vec",
    _make_rp_eclat_vec,
    supports_jobs=True,
    description="batched columnar vertical engine (NumPy kernel)",
)
register_engine(
    "naive",
    _make_naive,
    exhaustive=True,
    description="exhaustive reference (small inputs only)",
)
