"""Reusable differential-testing and case-minimization library.

PR 3 introduced a randomized differential harness as a test file; this
module promotes its machinery — the seeded case generator, the
canonical pattern view, the oracle comparison and the greedy
case-minimizer — into an importable API so that other conformance
tooling (the metamorphic-relation checker, the ``repro qa`` gate, ad
hoc debugging sessions) can reuse it instead of keeping private copies.

The naive exhaustive miner is the oracle: it evaluates Definition 9
directly, itemset by itemset, with no pruning to get wrong.  Every
pruning engine — and the parallel layer — must agree with it on any
database.

A *case* is ``(rows, params)``: raw ``(timestamp, itemset)`` rows (fed
to :class:`~repro.timeseries.database.TransactionalDatabase` verbatim)
plus a :class:`CaseParams` threshold triple.  Keeping raw rows rather
than a built database lets the minimizer delete rows one at a time and
exercises the constructor's merge/drop behaviour on every trial.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.engines import engine_names, get_engine
from repro.core.miner import mine_recurring_patterns
from repro.core.naive import mine_recurring_patterns_naive
from repro.timeseries.database import TransactionalDatabase

__all__ = [
    "ALPHABET",
    "BASE_SEED",
    "CaseParams",
    "DifferentialFailure",
    "DifferentialResult",
    "Row",
    "Rows",
    "canonical",
    "check_case",
    "disagrees_with_oracle",
    "format_reproducer",
    "minimize_case",
    "mine_canonical",
    "oracle_canonical",
    "random_params",
    "random_rows",
    "run_differential",
]

#: Items the random generator draws from.
ALPHABET = "abcdefg"

#: Default base seed; case ``i`` uses ``BASE_SEED + i``, so any failure
#: names a single integer that reproduces it forever.
BASE_SEED = 20150323

#: One raw database row: a timestamp plus an iterable of items (a plain
#: string means its characters, as the database constructor documents).
Row = Tuple[float, Sequence]

Rows = Sequence[Row]


class CaseParams(NamedTuple):
    """The threshold triple of one differential case.

    Unpacks like the plain ``(per, min_ps, min_rec)`` tuple it replaces.
    """

    per: Union[int, float]
    min_ps: Union[int, float]
    min_rec: int


# ----------------------------------------------------------------------
# Seeded generation
# ----------------------------------------------------------------------
def random_rows(rng: random.Random) -> List[Tuple[int, str]]:
    """Raw (timestamp, itemset-string) rows, deliberately messy.

    ``dense`` gaps produce duplicate timestamps (the database merges
    them into one transaction) and zero-density draws produce empty
    itemsets (the database drops them) — both documented constructor
    behaviours the engines must agree on.
    """
    n_items = rng.randint(2, len(ALPHABET))
    alphabet = ALPHABET[:n_items]
    n_rows = rng.randint(0, 40)
    gap_style = rng.choice(("dense", "uniform", "bursty"))
    density = rng.uniform(0.2, 0.9)
    rows = []
    timestamp = 0
    for _ in range(n_rows):
        if gap_style == "dense":
            timestamp += rng.randint(0, 2)
        elif gap_style == "uniform":
            timestamp += rng.randint(1, 6)
        else:
            timestamp += 1 if rng.random() < 0.7 else rng.randint(5, 15)
        itemset = "".join(
            item for item in alphabet if rng.random() < density
        )
        rows.append((timestamp, itemset))
    return rows


def random_params(rng: random.Random) -> CaseParams:
    """A random threshold triple in the model's useful small range."""
    per = rng.randint(1, 6)
    if rng.random() < 0.25:  # fractional minPS takes the resolve path
        min_ps: Union[int, float] = round(rng.uniform(0.05, 0.5), 3)
    else:
        min_ps = rng.randint(1, 4)
    min_rec = rng.randint(1, 3)
    return CaseParams(per, min_ps, min_rec)


# ----------------------------------------------------------------------
# Canonical views and mining helpers
# ----------------------------------------------------------------------
def canonical(patterns) -> List[tuple]:
    """An order-independent, metadata-complete view of a pattern set.

    Each entry is ``(sorted item strings, support, recurrence, interval
    tuple)``; two engines mined the same model iff their canonical
    views are equal.
    """
    return sorted(
        (
            tuple(sorted(str(item) for item in pattern.items)),
            pattern.support,
            pattern.recurrence,
            tuple(pattern.intervals),
        )
        for pattern in patterns
    )


def mine_canonical(
    rows: Rows, params: CaseParams, engine: str, jobs: int = 1
) -> List[tuple]:
    """Build a database from raw rows, mine it, return the canonical view."""
    database = TransactionalDatabase(rows)
    per, min_ps, min_rec = params
    return canonical(
        mine_recurring_patterns(
            database, per, min_ps, min_rec, engine=engine, jobs=jobs
        )
    )


def oracle_canonical(rows: Rows, params: CaseParams) -> List[tuple]:
    """The naive exhaustive miner's canonical view of a case."""
    database = TransactionalDatabase(rows)
    per, min_ps, min_rec = params
    return canonical(
        mine_recurring_patterns_naive(database, per, min_ps, min_rec)
    )


def disagrees_with_oracle(
    rows: Rows, params: CaseParams, engine: str, jobs: int = 1
) -> bool:
    """True when ``engine`` disagrees with the naive oracle on the case.

    Empty databases never count as a disagreement (there is nothing to
    mine), which keeps the minimizer from shrinking into vacuity.
    """
    database = TransactionalDatabase(rows)
    if len(database) == 0:
        return False
    per, min_ps, min_rec = params
    oracle = canonical(
        mine_recurring_patterns_naive(database, per, min_ps, min_rec)
    )
    return mine_canonical(rows, params, engine, jobs) != oracle


# ----------------------------------------------------------------------
# Case minimization
# ----------------------------------------------------------------------
def minimize_case(
    rows: Rows, predicate: Callable[[List[Row]], bool]
) -> List[Row]:
    """Greedy one-row-at-a-time shrink preserving ``predicate(rows)``.

    ``predicate`` is any property of a row list — "engine X disagrees
    with the oracle", "relation R is violated" — that held on the input
    and should still hold on the returned sublist.  Rows are removed
    one at a time, restarting after every successful removal, until no
    single-row deletion preserves the property.  The result is
    1-minimal: deleting any one remaining row makes the failure vanish,
    which is what makes the printed reproducers small enough to read.

    The input rows are not modified.  If ``predicate`` does not hold on
    the input, the input is returned unchanged (there is nothing to
    preserve).
    """
    rows = list(rows)
    if not predicate(rows):
        return rows
    shrinking = True
    while shrinking:
        shrinking = False
        for index in range(len(rows)):
            trial = rows[:index] + rows[index + 1:]
            if predicate(trial):
                rows = trial
                shrinking = True
                break
    return rows


def format_reproducer(
    rows: Rows, params: CaseParams, engine: str, jobs: int
) -> str:
    """A paste-ready snippet that reruns a (minimized) failing case."""
    per, min_ps, min_rec = params
    return (
        f"rows = {list(rows)!r}\n"
        f"db = TransactionalDatabase(rows)\n"
        f"mine_recurring_patterns(db, per={per!r}, min_ps={min_ps!r}, "
        f"min_rec={min_rec!r}, engine={engine!r}, jobs={jobs!r})"
    )


# ----------------------------------------------------------------------
# The differential sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DifferentialFailure:
    """One engine/oracle disagreement, already minimized."""

    seed: int
    engine: str
    jobs: int
    params: CaseParams
    rows: Tuple[Row, ...]
    minimized_rows: Tuple[Row, ...]
    oracle: Tuple[tuple, ...]
    got: Tuple[tuple, ...]

    def reproducer(self) -> str:
        """The paste-ready snippet for the minimized case."""
        return format_reproducer(
            list(self.minimized_rows), self.params, self.engine, self.jobs
        )

    def describe(self) -> str:
        """The full failure report the tests print on disagreement."""
        return (
            f"engine {self.engine!r} (jobs={self.jobs}) disagrees with "
            f"the naive oracle.\nseed: {self.seed}\n"
            f"minimized reproducer:\n{self.reproducer()}\n"
            f"oracle: {list(self.oracle)!r}\ngot:    {list(self.got)!r}"
        )

    def as_dict(self) -> dict:
        """JSON-ready form for the ``repro-qa/v1`` report."""
        return {
            "seed": self.seed,
            "engine": self.engine,
            "jobs": self.jobs,
            "params": {
                "per": self.params.per,
                "min_ps": self.params.min_ps,
                "min_rec": self.params.min_rec,
            },
            "minimized_rows": [list(row) for row in self.minimized_rows],
            "reproducer": self.reproducer(),
        }


@dataclass
class DifferentialResult:
    """Outcome of one differential sweep."""

    cases: int = 0
    checks: int = 0
    skipped_empty: int = 0
    failures: List[DifferentialFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_case(
    seed: int,
    rows: Rows,
    params: CaseParams,
    engines: Optional[Sequence[str]] = None,
    jobs_values: Sequence[int] = (1,),
    minimize: bool = True,
) -> Tuple[int, List[DifferentialFailure]]:
    """Check one case against the oracle for every engine/jobs combo.

    ``engines`` defaults to every parallel-capable engine
    (``engine_names(supports_jobs=True)``).  Returns
    ``(checks_run, failures)``.  Each failure is minimized with
    :func:`minimize_case` when ``minimize`` is true (differential
    sweeps leave it on; callers in a hurry can skip the shrink).
    """
    database = TransactionalDatabase(rows)
    if len(database) == 0:
        return 0, []
    per, min_ps, min_rec = params
    oracle = canonical(
        mine_recurring_patterns_naive(database, per, min_ps, min_rec)
    )
    checks = 0
    failures: List[DifferentialFailure] = []
    if engines is None:
        engines = engine_names(supports_jobs=True)
    for engine in engines:
        for jobs in jobs_values:
            if jobs > 1 and not get_engine(engine).supports_jobs:
                continue
            checks += 1
            got = mine_canonical(rows, params, engine, jobs)
            if got == oracle:
                continue
            minimal = (
                minimize_case(
                    rows,
                    lambda trial: disagrees_with_oracle(
                        trial, params, engine, jobs
                    ),
                )
                if minimize
                else list(rows)
            )
            failures.append(
                DifferentialFailure(
                    seed=seed,
                    engine=engine,
                    jobs=jobs,
                    params=params,
                    rows=tuple(rows),
                    minimized_rows=tuple(minimal),
                    oracle=tuple(oracle),
                    got=tuple(got),
                )
            )
    return checks, failures


def run_differential(
    n_cases: int = 50,
    base_seed: int = BASE_SEED,
    engines: Optional[Sequence[str]] = None,
    jobs_values: Sequence[int] = (1,),
    deadline: Optional[float] = None,
    minimize: bool = True,
) -> DifferentialResult:
    """Run a seeded differential sweep of ``n_cases`` random cases.

    ``deadline`` is an absolute :func:`time.monotonic` instant; the
    sweep stops cleanly (cases run so far are reported) once it passes,
    which is how the ``repro qa`` gate fits the sweep into its time
    budget.  Failures do not stop the sweep — all disagreements across
    the requested matrix are collected and minimized.
    """
    result = DifferentialResult()
    for case in range(n_cases):
        if deadline is not None and time.monotonic() >= deadline:
            break
        seed = base_seed + case
        rng = random.Random(seed)
        rows = random_rows(rng)
        params = random_params(rng)
        if len(TransactionalDatabase(rows)) == 0:
            result.cases += 1
            result.skipped_empty += 1
            continue
        checks, failures = check_case(
            seed, rows, params,
            engines=engines, jobs_values=jobs_values, minimize=minimize,
        )
        result.cases += 1
        result.checks += checks
        result.failures.extend(failures)
    return result
