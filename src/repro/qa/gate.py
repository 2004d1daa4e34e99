"""The conformance gate: relations + goldens + differential, budgeted.

:func:`run_qa` is what the ``repro qa`` CLI subcommand (and the CI
nightly job) executes.  It runs the three conformance suites in a
fixed order of decreasing priority —

1. **metamorphic relations** across the full engine × jobs matrix
   (every cell runs at least once regardless of budget; the budget
   only trims per-cell case counts),
2. the **golden corpus** (snapshot comparison, diff-style failures),
3. a **differential sweep** against the naive oracle with whatever
   time remains —

and packages the outcome as a :class:`QAReport` whose
:meth:`~QAReport.as_record` is the machine-readable ``repro-qa/v1``
document (validated by
:func:`repro.obs.report.validate_qa_record`, written through the same
:class:`~repro.obs.report.TraceWriter` sink as ``repro-run/v1``
records).  Every failure carries a seeded, greedily minimized
reproducer, so a red gate is a one-paste bug report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.engines import engine_names, get_engine
from repro.qa.differential import (
    BASE_SEED,
    DifferentialResult,
    run_differential,
)
from repro.qa.golden import GoldenResult, run_goldens, update_goldens
from repro.qa.relations import (
    RELATIONS,
    RelationsResult,
    default_case_corpus,
    engine_matrix,
    run_relations,
)

__all__ = ["QAConfig", "QAReport", "run_qa"]

#: Fraction of the budget reserved for the relations phase; goldens run
#: unbudgeted (they are a fixed, small amount of work) and the
#: differential sweep absorbs whatever is left.
_RELATIONS_BUDGET_SHARE = 0.6

_SECTIONS = ("relations", "golden", "differential")


@dataclass(frozen=True)
class QAConfig:
    """Knobs of one gate run."""

    #: Soft wall-clock budget in seconds.  The mandatory relation
    #: matrix always completes; optional work (extra relation cases,
    #: differential cases) stops once the budget is spent.
    budget: float = 120.0
    #: Base seed for every randomized suite; reports name it so any
    #: failure reproduces forever.
    seed: int = BASE_SEED
    #: Where the golden snapshots live (``None`` = repo default).
    golden_dir: Optional[str] = None
    #: Engines to exercise (default: every registered engine).
    engines: Sequence[str] = field(default_factory=engine_names)
    #: Worker counts for the relation matrix (``naive`` runs jobs=1
    #: only, by design).
    jobs_values: Sequence[int] = (1, 2)
    #: Random relation cases on top of the running example.
    relation_cases: int = 2
    #: Cap on differential cases (the budget usually binds first).
    differential_cases: int = 50
    #: Greedily shrink failing cases before reporting.
    minimize: bool = True
    #: Suites to skip entirely (subset of relations/golden/differential).
    skip: Tuple[str, ...] = ()
    #: Rewrite golden snapshots instead of checking them.
    update_golden: bool = False
    #: Optional callback invoked with one line at each suite boundary
    #: ("relations...", "relations done in 1.2s", ...) — the CLI's
    #: ``--progress`` wires a stderr printer here so a budgeted run is
    #: never silent for minutes.
    on_progress: Optional[Callable[[str], None]] = None

    def __post_init__(self) -> None:
        for section in self.skip:
            if section not in _SECTIONS:
                raise ValueError(
                    f"unknown qa section {section!r}; "
                    f"expected one of {_SECTIONS}"
                )


@dataclass
class QAReport:
    """Everything one gate run measured and found."""

    config: QAConfig
    seconds: float = 0.0
    relations: RelationsResult = field(default_factory=RelationsResult)
    golden: GoldenResult = field(default_factory=GoldenResult)
    differential: DifferentialResult = field(
        default_factory=DifferentialResult
    )
    skipped: Tuple[str, ...] = ()
    golden_written: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.relations.passed
            and self.golden.passed
            and self.differential.passed
        )

    def matrix_complete(self) -> bool:
        """True when every relation × engine × jobs cell ran ≥ 1 case."""
        if "relations" in self.skipped:
            return False
        expected = {
            (relation.name, engine, jobs)
            for relation in RELATIONS
            for engine, jobs in engine_matrix(
                self.config.engines, self.config.jobs_values
            )
        }
        ran = {
            (check.relation, check.engine, check.jobs)
            for check in self.relations.checks
            if check.cases >= 1
        }
        return expected <= ran

    # -- sinks ---------------------------------------------------------
    def as_record(self) -> dict:
        """The ``repro-qa/v1`` record (see docs/observability.md)."""
        from repro.obs.report import QA_SCHEMA

        return {
            "schema": QA_SCHEMA,
            "kind": "qa",
            "passed": self.passed,
            "seconds": self.seconds,
            "budget_seconds": float(self.config.budget),
            "seed": self.config.seed,
            "skipped": list(self.skipped),
            "relations": {
                "matrix_complete": self.matrix_complete(),
                "checks": [c.as_dict() for c in self.relations.checks],
                "violations": [
                    v.as_dict() for v in self.relations.violations
                ],
            },
            "golden": {
                "checks": [c.as_dict() for c in self.golden.checks],
            },
            "differential": {
                "cases": self.differential.cases,
                "checks": self.differential.checks,
                "skipped_empty": self.differential.skipped_empty,
                "failures": [
                    f.as_dict() for f in self.differential.failures
                ],
            },
        }

    def summary_table(self) -> str:
        """Human-readable gate summary (section totals + failures)."""
        from repro.bench.reporting import format_table

        rows = [
            [
                "relations",
                "skipped" if "relations" in self.skipped else (
                    f"{self.relations.cases_checked} checks, "
                    f"{len(self.relations.violations)} violations"
                ),
                _status("relations" in self.skipped,
                        self.relations.passed),
            ],
            [
                "golden",
                "skipped" if "golden" in self.skipped else (
                    f"{len(self.golden.checks)} checks, "
                    f"{len(self.golden.failures)} failures"
                ),
                _status("golden" in self.skipped, self.golden.passed),
            ],
            [
                "differential",
                "skipped" if "differential" in self.skipped else (
                    f"{self.differential.cases} cases, "
                    f"{len(self.differential.failures)} failures"
                ),
                _status("differential" in self.skipped,
                        self.differential.passed),
            ],
        ]
        verdict = "PASS" if self.passed else "FAIL"
        table = format_table(
            ["suite", "outcome", "status"],
            rows,
            title=(
                f"qa gate {verdict} in {self.seconds:.1f}s "
                f"(budget {self.config.budget:g}s, seed {self.config.seed})"
            ),
        )
        failures = self.failure_reports()
        if failures:
            table += "\n\n" + "\n\n".join(failures)
        return table

    def failure_reports(self) -> List[str]:
        """Full per-failure reports, reproducers included."""
        reports = [v.describe() for v in self.relations.violations]
        reports.extend(
            f"golden {check.name!r} mismatch under engine "
            f"{check.engine!r}:\n{check.detail}"
            for check in self.golden.failures
        )
        reports.extend(f.describe() for f in self.differential.failures)
        return reports


def _status(skipped: bool, passed: bool) -> str:
    if skipped:
        return "skip"
    return "ok" if passed else "FAIL"


def run_qa(config: Optional[QAConfig] = None) -> QAReport:
    """Run the conformance gate and return its report."""
    config = config if config is not None else QAConfig()
    started = time.monotonic()
    hard_deadline = started + config.budget
    report = QAReport(config=config)
    skipped: List[str] = list(config.skip)

    def _tell(text: str) -> None:
        if config.on_progress is not None:
            config.on_progress(text)

    if "relations" not in skipped:
        relations_deadline = started + config.budget * _RELATIONS_BUDGET_SHARE
        _tell(
            f"qa: relations (engines={','.join(config.engines)}, "
            f"jobs={list(config.jobs_values)})..."
        )
        suite_started = time.monotonic()
        report.relations = run_relations(
            cases=default_case_corpus(
                n_random=config.relation_cases, base_seed=config.seed
            ),
            engines=config.engines,
            jobs_values=config.jobs_values,
            minimize=config.minimize,
            deadline=relations_deadline,
        )
        _tell(
            f"qa: relations {'passed' if report.relations.passed else 'FAILED'} "
            f"in {time.monotonic() - suite_started:.1f}s"
        )

    if "golden" not in skipped:
        _tell("qa: golden corpus...")
        suite_started = time.monotonic()
        if config.update_golden:
            report.golden_written = tuple(
                update_goldens(config.golden_dir)
            )
        report.golden = run_goldens(config.golden_dir)
        _tell(
            f"qa: golden {'passed' if report.golden.passed else 'FAILED'} "
            f"in {time.monotonic() - suite_started:.1f}s"
        )

    if "differential" not in skipped:
        engines = [
            e for e in config.engines if get_engine(e).supports_jobs
        ]
        _tell(
            f"qa: differential sweep (<= {config.differential_cases} "
            f"cases, budget-bound)..."
        )
        suite_started = time.monotonic()
        report.differential = run_differential(
            n_cases=config.differential_cases,
            base_seed=config.seed,
            engines=engines,
            jobs_values=(1,),
            deadline=hard_deadline,
            minimize=config.minimize,
        )
        _tell(
            f"qa: differential "
            f"{'passed' if report.differential.passed else 'FAILED'} "
            f"in {time.monotonic() - suite_started:.1f}s"
        )

    report.skipped = tuple(skipped)
    report.seconds = time.monotonic() - started
    return report
