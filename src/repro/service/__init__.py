"""The mining service daemon and its thin client (``docs/service.md``).

``repro-mine serve`` runs a :class:`MiningService`: an asyncio HTTP
daemon that accepts :class:`~repro.core.request.MiningRequest` wire
forms on ``POST /jobs``, mines them on a bounded worker pool through
the same :func:`~repro.core.miner.execute_request` dispatch every
other surface uses, and answers repeats from a content-addressed
:class:`ResultCache` of the patterns TSVs its misses served.  A hit
serves its cell's string unchanged; a *derived* answer keeps the rows
of a cached looser-``min_rec`` cell in the same ``(dataset, engine,
per, min_ps)`` column whose patterns have at least ``min_rec``
periodic-intervals, byte-identical to a fresh mine.
:class:`ServiceClient` (behind ``repro-mine submit``/``status``/
``fetch``) is the matching stdlib client.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.cache": ("CacheOutcome", "ResultCache"),
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.daemon": ("MiningService", "run_server"),
    "repro.service.jobs": ("Job", "JobStore"),
})

__all__ = [
    "CacheOutcome",
    "Job",
    "JobStore",
    "MiningService",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "run_server",
]
