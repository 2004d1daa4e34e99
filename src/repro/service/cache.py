"""The content-addressed, sweep-backed result cache.

Entries are keyed by :meth:`MiningRequest.cache_key` —
``(dataset_digest, engine, per, min_ps, min_rec)`` — so a cached
answer can never leak across datasets, engines or threshold points.
Each entry is the patterns TSV (:func:`~repro.patterns_io.save_patterns`)
that the miss which filled it served, and an exact hit hands out that
same string.  The sweep engine's min_rec derivation theorem
(``docs/api.md``) adds a second way to hit: within one *column*
``(dataset_digest, engine, per, min_ps)``, the patterns at a tighter
(larger) ``min_rec`` are a pure recurrence filter of any looser cached
cell, with identical support / recurrence / interval metadata.
:meth:`ResultCache.get` therefore serves a request from any cached
column cell whose ``min_rec`` is at most the requested one, keeping the
rows of that cell's TSV with enough interval triples
(:func:`~repro.patterns_io.filter_patterns_tsv`) — byte-identical to a
fresh mine, a guarantee property-tested in
``tests/service/test_cache.py``.

Eviction is LRU over exact entries; a derivation refreshes its base
entry's recency (the base just proved itself useful).  The cache is
thread-safe: the daemon's worker pool calls it from executor threads,
and a derivation filters its base's (immutable) text outside the lock.

Beside the entries the cache keeps a memo from the SHA-256 of a file's
raw bytes to the canonical ``dataset_digest`` those bytes parse to
(:meth:`ResultCache.lookup_digest` / :meth:`ResultCache.record_digest`),
so the daemon can find a file's cells without parsing it.  Equal bytes
parse to equal databases, so a memo entry never goes stale; the memo is
LRU-bounded by the same ``max_entries``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.request import MiningRequest
from repro.exceptions import ParameterError
from repro.patterns_io import count_patterns_tsv, filter_patterns_tsv

__all__ = ["CacheOutcome", "ResultCache"]


@dataclass
class CacheOutcome:
    """What a lookup produced and how.

    ``patterns_tsv`` is the answer as the daemon serves it: the cached
    string itself on a hit, the kept rows of the base cell's string on
    a derivation.  ``patterns_found`` counts its patterns.  ``how`` is
    ``"hit"`` (exact key) or ``"derived"`` (recurrence filter of a
    looser column cell); ``base_min_rec`` names the cached cell that
    served a derivation.
    """

    patterns_tsv: str
    patterns_found: int
    how: str
    base_min_rec: Optional[int] = None


class ResultCache:
    """LRU cache of the patterns TSVs misses served, with min_rec
    column derivation."""

    def __init__(self, max_entries: int = 64):
        if isinstance(max_entries, bool) or not isinstance(
            max_entries, int
        ) or max_entries < 1:
            raise ParameterError(
                f"max_entries must be a positive int, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, str]" = OrderedDict()
        self._digests: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.derived = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(
        self, request: MiningRequest, dataset_digest: str
    ) -> Optional[CacheOutcome]:
        """Serve ``request`` from cache, exactly or by derivation."""
        key = request.cache_key(dataset_digest)
        column = request.column_key(dataset_digest)
        with self._lock:
            patterns_tsv = self._entries.get(key)
            if patterns_tsv is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return CacheOutcome(
                    patterns_tsv, count_patterns_tsv(patterns_tsv), "hit"
                )
            # The derivation theorem: any cached cell of the same
            # column at a looser (smaller) min_rec can answer.  Prefer
            # the tightest such base — it filters the least.
            base_key: Optional[Tuple] = None
            for candidate in self._entries:
                if candidate[:4] != column:
                    continue
                if candidate[4] > request.min_rec:
                    continue
                if base_key is None or candidate[4] > base_key[4]:
                    base_key = candidate
            if base_key is None:
                self.misses += 1
                return None
            base_tsv = self._entries[base_key]
            self._entries.move_to_end(base_key)
            self.derived += 1
        patterns_tsv = filter_patterns_tsv(base_tsv, request.min_rec)
        return CacheOutcome(
            patterns_tsv, count_patterns_tsv(patterns_tsv), "derived",
            base_min_rec=base_key[4],
        )

    def put(
        self,
        request: MiningRequest,
        dataset_digest: str,
        patterns_tsv: str,
    ) -> int:
        """Cache the patterns TSV a miss served, evicting LRU entries
        if full.

        Returns the number of entries this call evicted.
        """
        key = request.cache_key(dataset_digest)
        evicted = 0
        with self._lock:
            self._entries[key] = patterns_tsv
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        return evicted

    def lookup_digest(self, raw_digest: str) -> Optional[str]:
        """The canonical digest recorded for ``raw_digest``, if any."""
        with self._lock:
            canonical = self._digests.get(raw_digest)
            if canonical is not None:
                self._digests.move_to_end(raw_digest)
            return canonical

    def record_digest(self, raw_digest: str, canonical: str) -> None:
        """Remember that bytes hashing to ``raw_digest`` parse to
        ``canonical``, evicting the least recently used pair if full."""
        with self._lock:
            self._digests[raw_digest] = canonical
            self._digests.move_to_end(raw_digest)
            while len(self._digests) > self.max_entries:
                self._digests.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        """Counters for the ``/metrics`` endpoint and tests."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "derived": self.derived,
                "misses": self.misses,
                "evictions": self.evictions,
            }
