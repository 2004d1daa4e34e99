"""Golden (snapshot) corpus: frozen pattern sets for pinned inputs.

Metamorphic relations and differential sweeps catch *inconsistencies*;
they cannot catch a bug that changes every engine identically — a
mutation in :mod:`repro.core.intervals`, the single source of truth
for the interval mathematics, moves all engines (and the naive oracle)
in lockstep.  The golden corpus closes that hole: the exact mined
pattern set for the paper's running example and for the synthetic
generators at pinned seeds is frozen into version-controlled JSON
files, and every gate run re-mines the inputs and compares.

A golden file (schema ``repro-qa-golden/v1``) records the case name,
the thresholds, the engine that wrote it and the full canonical
pattern list.  Failures produce a diff-style report (missing /
unexpected / changed patterns) instead of a bare assertion, and
``repro qa --update-golden`` (or ``pytest tests/qa --update-golden``)
rewrites the snapshots after an *intentional* model change — see
``docs/testing.md`` for the refresh workflow.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engines import engine_names, get_engine
from repro.core.model import PeriodicInterval
from repro.exceptions import DataFormatError
from repro.qa.differential import CaseParams, canonical, mine_canonical
from repro.timeseries.database import TransactionalDatabase

__all__ = [
    "GOLDEN_SCHEMA",
    "GOLDEN_CASES",
    "GoldenCase",
    "GoldenCheck",
    "GoldenResult",
    "check_goldens",
    "default_golden_dir",
    "get_golden_case",
    "golden_diff",
    "golden_path",
    "read_golden",
    "run_goldens",
    "update_goldens",
    "write_golden",
]

#: Schema tag carried by every golden snapshot file.
GOLDEN_SCHEMA = "repro-qa-golden/v1"

#: Engines cheap enough to re-mine every golden case on every gate run:
#: every registered non-exhaustive engine (the exhaustive reference is
#: opted in per case, as the running example does below).
_PRUNING_ENGINES = tuple(
    name for name in engine_names() if not get_engine(name).exhaustive
)


@dataclass(frozen=True)
class GoldenCase:
    """One pinned input with a frozen expected pattern set."""

    name: str
    description: str
    factory: Callable[[], TransactionalDatabase]
    params: CaseParams
    #: Engines the snapshot is checked against on every gate run.  The
    #: naive reference only joins on inputs small enough to enumerate.
    engines: Tuple[str, ...] = _PRUNING_ENGINES


def _running_example() -> TransactionalDatabase:
    from repro.datasets import paper_running_example

    return paper_running_example()


def _planted() -> TransactionalDatabase:
    from repro.datasets import generate_planted_workload

    return generate_planted_workload(seed=42).database


def _quest_micro() -> TransactionalDatabase:
    from repro.bench.workloads import quest_workload

    return quest_workload(scale=0.001, seed=11)


def _clickstream_micro() -> TransactionalDatabase:
    from repro.bench.workloads import clickstream_workload

    return clickstream_workload(scale=0.05, seed=3)


GOLDEN_CASES: Tuple[GoldenCase, ...] = (
    GoldenCase(
        name="running-example",
        description="the paper's Table 1 database at the Table 2 thresholds",
        factory=_running_example,
        params=CaseParams(per=2, min_ps=3, min_rec=2),
        engines=_PRUNING_ENGINES + ("naive",),
    ),
    GoldenCase(
        name="planted",
        description="planted-pattern workload, seed 42, generator thresholds",
        factory=_planted,
        params=CaseParams(per=5, min_ps=4, min_rec=2),
    ),
    GoldenCase(
        name="quest-micro",
        description="Quest workload at scale 0.001, seed 11",
        factory=_quest_micro,
        params=CaseParams(per=2, min_ps=2, min_rec=2),
    ),
    GoldenCase(
        name="clickstream-micro",
        description="clickstream workload at scale 0.05, seed 3",
        factory=_clickstream_micro,
        params=CaseParams(per=3, min_ps=25, min_rec=2),
    ),
)


def get_golden_case(name: str) -> GoldenCase:
    """The golden case called ``name`` (KeyError if unknown)."""
    for case in GOLDEN_CASES:
        if case.name == name:
            return case
    raise KeyError(f"unknown golden case {name!r}")


def default_golden_dir() -> str:
    """``tests/qa/golden`` of the repository this package sits in.

    Resolved relative to this file (``src/repro/qa/golden.py`` →
    ``<repo>/tests/qa/golden``) so the CLI finds the corpus no matter
    what the working directory is.  When the package is installed
    without its test tree the directory simply does not exist and the
    golden suite reports itself as skipped.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(repo, "tests", "qa", "golden")


def golden_path(directory: str, name: str) -> str:
    """The snapshot file path for case ``name`` under ``directory``."""
    return os.path.join(directory, f"{name}.json")


# ----------------------------------------------------------------------
# Snapshot serialization
# ----------------------------------------------------------------------
def _canonical_to_json(patterns: Sequence[tuple]) -> List[dict]:
    return [
        {
            "items": list(items),
            "support": support,
            "intervals": [
                [iv.start, iv.end, iv.periodic_support] for iv in intervals
            ],
        }
        for items, support, _recurrence, intervals in patterns
    ]


def _canonical_from_json(records: Sequence[dict]) -> List[tuple]:
    return sorted(
        (
            tuple(record["items"]),
            record["support"],
            len(record["intervals"]),
            tuple(
                PeriodicInterval(start, end, ps)
                for start, end, ps in record["intervals"]
            ),
        )
        for record in records
    )


def write_golden(
    case: GoldenCase, directory: str, engine: str = "rp-growth"
) -> str:
    """Mine the case with ``engine`` and (re)write its snapshot file."""
    database = case.factory()
    per, min_ps, min_rec = case.params
    from repro.core.miner import mine_recurring_patterns

    patterns = canonical(
        mine_recurring_patterns(
            database, per, min_ps, min_rec, engine=engine
        )
    )
    os.makedirs(directory, exist_ok=True)
    path = golden_path(directory, case.name)
    document = {
        "schema": GOLDEN_SCHEMA,
        "name": case.name,
        "description": case.description,
        "engine": engine,
        "params": {"per": per, "min_ps": min_ps, "min_rec": min_rec},
        "patterns": _canonical_to_json(patterns),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def read_golden(name: str, directory: str) -> Tuple[dict, List[tuple]]:
    """Load a snapshot: the raw document and the canonical pattern list.

    Raises :class:`~repro.exceptions.DataFormatError` when the file is
    not a valid ``repro-qa-golden/v1`` document or its parameters no
    longer match the registered case (a stale snapshot is an error, not
    a silent pass).
    """
    path = golden_path(directory, name)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != GOLDEN_SCHEMA:
        raise DataFormatError(
            f"{path}: schema {document.get('schema')!r} != {GOLDEN_SCHEMA!r}"
        )
    for key in ("name", "params", "patterns"):
        if key not in document:
            raise DataFormatError(f"{path}: missing key {key!r}")
    case = get_golden_case(name)
    per, min_ps, min_rec = case.params
    recorded = document["params"]
    if recorded != {"per": per, "min_ps": min_ps, "min_rec": min_rec}:
        raise DataFormatError(
            f"{path}: snapshot was written at {recorded!r} but the "
            f"registered case uses {case.params!r}; refresh the golden "
            "corpus (repro qa --update-golden)"
        )
    return document, _canonical_from_json(document["patterns"])


def golden_diff(
    expected: Sequence[tuple], actual: Sequence[tuple]
) -> str:
    """A diff-style report between two canonical pattern lists.

    One line per difference: ``- missing`` (in the snapshot, not
    mined), ``+ unexpected`` (mined, not in the snapshot) and
    ``~ changed`` (same itemset, different metadata).  Empty string
    when the lists agree.
    """
    def by_items(patterns: Sequence[tuple]) -> Dict[tuple, tuple]:
        return {entry[0]: entry for entry in patterns}

    def render(entry: tuple) -> str:
        items, support, recurrence, intervals = entry
        body = ", ".join(str(iv) for iv in intervals)
        return (
            f"{' '.join(items)} [support={support}, "
            f"recurrence={recurrence}, {{{body}}}]"
        )

    want = by_items(expected)
    got = by_items(actual)
    lines: List[str] = []
    for items in sorted(set(want) - set(got)):
        lines.append(f"- missing:    {render(want[items])}")
    for items in sorted(set(got) - set(want)):
        lines.append(f"+ unexpected: {render(got[items])}")
    for items in sorted(set(want) & set(got)):
        if want[items] != got[items]:
            lines.append(f"~ changed:    expected {render(want[items])}")
            lines.append(f"              mined    {render(got[items])}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoldenCheck:
    """Outcome of re-mining one golden case with one engine."""

    name: str
    engine: str
    status: str  # "pass" | "fail" | "skip" | "error"
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-ready form for the ``repro-qa/v1`` report."""
        record = {
            "name": self.name,
            "engine": self.engine,
            "status": self.status,
        }
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class GoldenResult:
    """Outcome of a golden-corpus sweep."""

    checks: List[GoldenCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status in ("pass", "skip") for c in self.checks)

    @property
    def failures(self) -> List[GoldenCheck]:
        return [c for c in self.checks if c.status not in ("pass", "skip")]


def check_goldens(
    case: GoldenCase,
    directory: str,
    engines: Optional[Sequence[str]] = None,
) -> List[GoldenCheck]:
    """Re-mine one case with every engine and compare to its snapshot."""
    engines = tuple(engines) if engines is not None else case.engines
    path = golden_path(directory, case.name)
    if not os.path.exists(path):
        return [
            GoldenCheck(
                case.name, engine, "skip",
                f"no snapshot at {path}; run with --update-golden",
            )
            for engine in engines
        ]
    try:
        _, expected = read_golden(case.name, directory)
    except (OSError, ValueError) as error:
        return [
            GoldenCheck(case.name, engine, "error", str(error))
            for engine in engines
        ]
    database = case.factory()
    rows = tuple(
        (ts, tuple(sorted(items, key=repr))) for ts, items in database
    )
    checks = []
    for engine in engines:
        actual = mine_canonical(rows, case.params, engine, jobs=1)
        if actual == expected:
            checks.append(GoldenCheck(case.name, engine, "pass"))
        else:
            checks.append(
                GoldenCheck(
                    case.name, engine, "fail",
                    golden_diff(expected, actual),
                )
            )
    return checks


def run_goldens(
    directory: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
) -> GoldenResult:
    """Check every registered golden case (or the named subset)."""
    directory = directory if directory is not None else default_golden_dir()
    result = GoldenResult()
    for case in GOLDEN_CASES:
        if names is not None and case.name not in names:
            continue
        result.checks.extend(check_goldens(case, directory))
    return result


def update_goldens(
    directory: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    engine: str = "rp-growth",
) -> List[str]:
    """Rewrite the snapshot files; returns the paths written."""
    directory = directory if directory is not None else default_golden_dir()
    paths = []
    for case in GOLDEN_CASES:
        if names is not None and case.name not in names:
            continue
        paths.append(write_golden(case, directory, engine=engine))
    return paths
