"""The shared mining-counter protocol.

Every engine — ``rp-growth``, ``rp-eclat``, ``rp-eclat-vec``,
``naive`` — and the streaming monitor populates one :class:`MiningStats`
instance per run, so the ablation benches and the run reports can
compare engines counter-for-counter.  The dataclass started life
inside ``repro.core.rp_growth``; it lives here now so that the
counters are defined once, next to the rest of the observability
layer, and the engines only *populate* them.

Counter glossary (see ``docs/observability.md`` for the mapping to the
paper's quantities):

``candidate_items``
    1-patterns surviving the first-scan ``Erec`` test (the RP-list's
    candidate set; Algorithm 1).
``pruned_items``
    Items removed by that first-scan test.
``initial_tree_nodes``
    Item nodes in the freshly built RP-tree — the quantity Lemma 2
    bounds.  Zero for vertical engines, which build no tree.
``erec_evaluations``
    How many point sequences had the ``Erec`` bound (Section 4.1)
    computed.
``candidate_patterns``
    How many passed (``Erec >= minRec``) and were expanded.
``recurrence_evaluations``
    Exact ``getRecurrence`` computations (one per candidate pattern).
``patterns_found``
    Recurring patterns reported.
``conditional_trees``
    Conditional RP-trees built (RP-growth only).
``tid_list_entries``
    Total timestamps materialised in intersected point sequences
    (vertical engines' analogue of tree size; 0 for RP-growth, whose
    ts-lists live in the tree and are counted by
    ``initial_tree_nodes``).
``chunks_retried``
    Parallel chunks re-submitted after an attributed failure (worker
    crash, deadline expiry, poisoned result).  Always 0 for serial
    runs and for fault-free parallel runs.
``chunks_fallback``
    Parallel chunks whose retries were exhausted and that were
    re-mined in-process by the serial engine (``fallback="serial"``).
    The two resilience counters are bookkeeping about the *run*, not
    the *mining*: they are excluded from cross-engine counter-parity
    comparisons.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterable, Optional

try:  # Protocol is typing-only; keep a soft fallback for exotic 3.9s.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = ["MiningStats", "StatsSource"]


@dataclass
class MiningStats:
    """Counters describing one mining run.

    All engines share this structure; counters an engine cannot
    meaningfully produce stay at their zero default (e.g.
    ``conditional_trees`` for the vertical engines).

    Examples
    --------
    >>> stats = MiningStats(patterns_found=8)
    >>> stats.as_dict()["patterns_found"]
    8
    """

    candidate_items: int = 0
    pruned_items: int = 0
    initial_tree_nodes: int = 0
    erec_evaluations: int = 0
    candidate_patterns: int = 0
    recurrence_evaluations: int = 0
    patterns_found: int = 0
    conditional_trees: int = 0
    tid_list_entries: int = 0
    chunks_retried: int = 0
    chunks_fallback: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view, in field order (for reports and JSON)."""
        return asdict(self)

    def merge(self, other: "MiningStats") -> "MiningStats":
        """Add ``other``'s counters into this instance, in place.

        Every counter is additive across disjoint sub-problems, so a
        parallel run merges its per-worker counter sets into one that
        equals the serial run's counters exactly (the prefix partition
        of :mod:`repro.parallel` is a partition of the serial work, not
        an approximation of it).  Returns ``self`` for chaining /
        ``functools.reduce``.

        Examples
        --------
        >>> merged = MiningStats(patterns_found=3)
        >>> merged.merge(MiningStats(patterns_found=5)).patterns_found
        8
        """
        for name in self.field_names():
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @classmethod
    def merged(cls, parts: "Iterable[MiningStats]") -> "MiningStats":
        """A fresh instance holding the sum of ``parts``' counters."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    @classmethod
    def field_names(cls) -> tuple:
        """The counter names, in declaration order."""
        return tuple(f.name for f in fields(cls))


@runtime_checkable
class StatsSource(Protocol):
    """Anything that leaves a :class:`MiningStats` after a run.

    All four engine classes satisfy this: they expose the most recent
    run's counters as ``last_stats`` (``None`` before the first run).
    """

    last_stats: Optional[MiningStats]
