"""The canonical candidate ordering shared by the vertical engines.

Both vertical miners (:class:`repro.core.rp_eclat.RPEclat` and
:class:`repro.core.rp_eclat_vec.RPEclatVec`) explore the candidate-item
lattice from a sorted list of first-item candidates.  The
order matters twice:

* **determinism** — two engines (or two runs) must enumerate the same
  lattice so cross-engine tests can compare counters, and the parallel
  layer (:mod:`repro.parallel`) can partition the candidate list by
  index knowing every engine agrees on what lives at each index;
* **efficiency** — extending rarest-first keeps intermediate point
  sequences short, which is the classic Eclat heuristic.

The key is ``(point-sequence length, repr(item))``: primary rarest
first, ties broken by the item's ``repr`` so items of any hashable type
order deterministically.  Historically each engine spelled its own sort
key inline; they agreed by luck, not by contract.  This module is the
contract.
"""

from __future__ import annotations

from typing import List, Sequence, Sized, Tuple, TypeVar

from repro.timeseries.events import Item

__all__ = ["candidate_sort_key", "sort_candidates"]

SizedTs = TypeVar("SizedTs", bound=Sized)


def candidate_sort_key(item: Item, ts_list: Sized) -> Tuple[int, str]:
    """Sort key of one ``(item, point sequence)`` candidate pair.

    Works for any sized point-sequence representation (tuple, list,
    ``numpy`` array).

    Examples
    --------
    >>> candidate_sort_key("b", (1, 5, 9))
    (3, "'b'")
    """
    return (len(ts_list), repr(item))


def sort_candidates(
    candidates: List[Tuple[Item, SizedTs]]
) -> List[Tuple[Item, SizedTs]]:
    """Sort candidate pairs in place into the canonical order.

    Returns the same list for call-chaining convenience.

    Examples
    --------
    >>> sort_candidates([("a", (1, 2, 3)), ("b", (4, 9))])
    [('b', (4, 9)), ('a', (1, 2, 3))]
    """
    candidates.sort(key=lambda pair: candidate_sort_key(pair[0], pair[1]))
    return candidates
