"""RP-list construction — Algorithm 1 of the paper.

The RP-list is the candidate-item table: one entry per distinct item
holding its support and its *estimated maximum recurrence* ``Erec``,
both computed in a single streaming scan of the database.  Items with
``Erec < minRec`` can be pruned outright (no recurring pattern can
contain them, by Properties 1–2), and the survivors — the *candidate
items* — are sorted in support-descending order, which is the global
item order used by the RP-tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.model import ResolvedParameters
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["RPListEntry", "RPList", "build_rp_list"]


@dataclass
class RPListEntry:
    """Streaming per-item state of Algorithm 1.

    Attributes mirror the paper's arrays: ``support`` is ``s``,
    ``erec`` is the accumulated estimated recurrence, ``last_ts`` is
    ``idl`` (the timestamp of the item's latest appearance) and
    ``current_ps`` is ``ps`` (the periodic-support of the run currently
    being extended).
    """

    item: Item
    support: int = 0
    erec: int = 0
    last_ts: float = 0.0
    current_ps: int = 0

    def observe(self, ts: float, per: float, min_ps: int) -> None:
        """Account for one occurrence of the item at timestamp ``ts``."""
        if self.support == 0:
            # First appearance (lines 3-5): start the first run.
            self.support = 1
            self.current_ps = 1
        elif ts - self.last_ts <= per:
            # The run continues (lines 7-8).
            self.support += 1
            self.current_ps += 1
        else:
            # The run broke (lines 10-11): bank its Erec contribution
            # and start a new run at ts.
            self.erec += self.current_ps // min_ps
            self.support += 1
            self.current_ps = 1
        self.last_ts = ts

    def finalize(self, min_ps: int) -> None:
        """Bank the trailing run (line 15 of Algorithm 1)."""
        self.erec += self.current_ps // min_ps
        self.current_ps = 0


class RPList:
    """The finished candidate-item list.

    Attributes
    ----------
    entries:
        All items scanned, keyed by item (pre-pruning), for inspection
        and tests against the paper's Figure 4.
    candidates:
        Candidate items (``Erec ≥ minRec``) in support-descending order,
        ties broken by item repr so the order is deterministic.
    """

    def __init__(self, entries: Dict[Item, RPListEntry], min_rec: int):
        self.entries: Dict[Item, RPListEntry] = entries
        survivors = [
            entry for entry in entries.values() if entry.erec >= min_rec
        ]
        survivors.sort(key=lambda e: (-e.support, repr(e.item)))
        self.candidates: Tuple[Item, ...] = tuple(e.item for e in survivors)
        self._rank: Dict[Item, int] = {
            item: rank for rank, item in enumerate(self.candidates)
        }

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, item: Item) -> bool:
        return item in self._rank

    def rank(self, item: Item) -> int:
        """Position of a candidate item in the global tree order."""
        return self._rank[item]

    def sort_transaction(self, items: frozenset) -> List[Item]:
        """Candidate-item projection of a transaction, in tree order.

        This is the ``CI(t)`` projection plus the support-descending
        sort applied before inserting each transaction into the RP-tree
        (Algorithm 2, line 4).
        """
        rank = self._rank
        return sorted(
            (item for item in items if item in rank),
            key=rank.__getitem__,
        )


def build_rp_list(
    database: TransactionalDatabase, params: ResolvedParameters
) -> RPList:
    """Run Algorithm 1: one scan of ``database`` producing the RP-list.

    The scan reads the database's id rows
    (:meth:`~repro.timeseries.database.TransactionalDatabase.id_rows`),
    not its row objects, and keys the entries by item label in
    sorted-by-repr order.

    Examples
    --------
    With the paper's running example and ``per=2, minPS=3, minRec=2``,
    item ``g`` is pruned (its Erec is 1) and the candidates come out in
    support-descending order (Figure 4(f)):

    >>> from repro.datasets import paper_running_example
    >>> from repro.core.model import MiningParameters
    >>> db = paper_running_example()
    >>> rp_list = build_rp_list(
    ...     db, MiningParameters(2, 3, 2).resolve(len(db)))
    >>> rp_list.candidates
    ('a', 'b', 'c', 'd', 'e', 'f')
    """
    # The database's id rows index one entry per distinct item.
    by_id = [RPListEntry(item) for item in database.item_labels]
    for ts, ids in database.id_rows():
        for item_id in ids:
            by_id[item_id].observe(ts, params.per, params.min_ps)
    for entry in by_id:
        entry.finalize(params.min_ps)
    return RPList({entry.item: entry for entry in by_id}, params.min_rec)
