"""The declarative description of one threshold-grid sweep.

A :class:`SweepPlan` is the cartesian grid of ``(per, min_ps,
min_rec)`` triples plus the execution knobs (engine, jobs, resilience,
reuse switches).  It validates eagerly — every cell's thresholds are
checked with the shared :mod:`repro._validation` messages before any
mining starts, exactly like the façade — and knows how the sweep
engine will iterate it: :meth:`cells` in deterministic grid order and
:meth:`columns` grouped by ``(per, min_ps)`` for the ``min_rec``
derivation layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._validation import Number
from repro.core.model import MiningParameters
from repro.core.options import ResilienceOptions
from repro.core.request import MiningRequest, resolve_jobs
from repro.exceptions import ParameterError

__all__ = ["GridKey", "SweepPlan"]

#: One grid cell: ``(per, min_ps, min_rec)``.
GridKey = Tuple[Number, Union[int, float], int]


@dataclass(frozen=True)
class SweepPlan:
    """A validated threshold grid plus how to execute it.

    Attributes
    ----------
    pers, min_ps_values, min_recs:
        The three grid axes; the sweep covers their cartesian product.
        Axes must be non-empty and duplicate-free (a duplicated value
        would silently double the work the sweep exists to avoid).
    engine:
        Engine-registry name mined for every cell (default
        ``"rp-growth"``).
    jobs:
        Worker processes per mined cell, exactly as on the façade
        (``None``/1 = serial; >1 requires the engine's
        ``supports_jobs`` capability).
    derive_min_rec:
        Apply the min_rec-derivation theorem (reuse layer 2): mine
        each ``(per, min_ps)`` column only at its loosest ``min_rec``
        and derive the tighter cells by recurrence filtering.  On by
        default; runtime benchmarks that need a *measured* wall-clock
        per cell switch it off.
    repeats:
        Mine each mined cell this many times and keep the fastest
        execution's timing (the result is identical across repeats).
        Only runtime sweeps care; default 1.
    resilience:
        The :class:`~repro.core.options.ResilienceOptions` forwarded
        to every parallel cell mine (per-cell timeout/retry/fallback).

    Examples
    --------
    >>> plan = SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2))
    >>> plan.cells()
    [(2, 3, 1), (2, 3, 2)]
    >>> plan.columns()
    {(2, 3): (1, 2)}
    """

    pers: Tuple[Number, ...]
    min_ps_values: Tuple[Union[int, float], ...]
    min_recs: Tuple[int, ...]
    engine: str = "rp-growth"
    jobs: Optional[int] = None
    derive_min_rec: bool = True
    repeats: int = 1
    resilience: ResilienceOptions = field(default_factory=ResilienceOptions)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pers", tuple(self.pers))
        object.__setattr__(
            self, "min_ps_values", tuple(self.min_ps_values)
        )
        object.__setattr__(self, "min_recs", tuple(self.min_recs))
        for axis_name, axis in (
            ("pers", self.pers),
            ("min_ps_values", self.min_ps_values),
            ("min_recs", self.min_recs),
        ):
            if not axis:
                raise ParameterError(
                    f"sweep axis {axis_name!r} must not be empty"
                )
            if len(set(axis)) != len(axis):
                raise ParameterError(
                    f"sweep axis {axis_name!r} contains duplicates: "
                    f"{axis!r}"
                )
        # Validate every cell's thresholds eagerly, with the façade's
        # shared messages: the most expensive way to learn about a bad
        # corner cell is after mining the 26 cells before it.
        for per in self.pers:
            for min_ps in self.min_ps_values:
                for min_rec in self.min_recs:
                    MiningParameters(
                        per=per, min_ps=min_ps, min_rec=min_rec
                    )
        object.__setattr__(self, "jobs", resolve_jobs(self.jobs, self.engine))
        if isinstance(self.repeats, bool) or not isinstance(
            self.repeats, int
        ) or self.repeats < 1:
            raise ParameterError(
                f"repeats must be a positive int, got {self.repeats!r}"
            )
        if not isinstance(self.resilience, ResilienceOptions):
            raise ParameterError(
                "resilience must be a ResilienceOptions, "
                f"got {type(self.resilience).__name__}"
            )

    # ------------------------------------------------------------------
    # Iteration orders
    # ------------------------------------------------------------------
    def cells(self) -> List[GridKey]:
        """Every grid cell in deterministic per → min_ps → min_rec order."""
        return [
            (per, min_ps, min_rec)
            for per in self.pers
            for min_ps in self.min_ps_values
            for min_rec in self.min_recs
        ]

    def columns(self) -> Dict[Tuple[Number, Union[int, float]], Tuple[int, ...]]:
        """The grid grouped for derivation: ``(per, min_ps)`` → min_recs.

        Within a column the thresholds that shape the periodic
        intervals are fixed, so all of its cells can be served by one
        mine at the loosest (smallest) ``min_rec``.
        """
        return {
            (per, min_ps): self.min_recs
            for per in self.pers
            for min_ps in self.min_ps_values
        }

    @property
    def cell_count(self) -> int:
        """Total number of grid cells."""
        return (
            len(self.pers) * len(self.min_ps_values) * len(self.min_recs)
        )

    # ------------------------------------------------------------------
    # MiningRequest view
    # ------------------------------------------------------------------
    def cell_request(self, key: GridKey) -> MiningRequest:
        """One cell as the unified :class:`~repro.core.request.MiningRequest`.

        The sweep engine executes mined cells through exactly this
        request (``repro.core.miner.run_request``), so a sweep cell and
        an independent façade call are the same code path — the basis
        of the byte-identity guarantee.

        Examples
        --------
        >>> plan = SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1,))
        >>> plan.cell_request((2, 3, 1)).cache_key("d1")
        ('d1', 'rp-growth', 2, 3, 1)
        """
        per, min_ps, min_rec = key
        return MiningRequest(
            per=per,
            min_ps=min_ps,
            min_rec=min_rec,
            engine=self.engine,
            jobs=self.jobs,
            resilience=self.resilience,
        )
