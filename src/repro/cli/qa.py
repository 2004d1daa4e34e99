"""The ``qa`` subcommand: the conformance gate."""

from __future__ import annotations

import argparse
import sys

from repro.core.engines import engine_names
from repro.cli._options import _add_logging_flag, _add_progress_flag


def configure(commands) -> None:
    """Register the qa subparser."""
    qa = commands.add_parser(
        "qa", help="run the conformance gate (see docs/testing.md)"
    )
    qa.add_argument(
        "--budget",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="soft wall-clock budget; the relation matrix always "
        "completes, extra cases stop once the budget is spent "
        "(default 120)",
    )
    qa.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed for the randomized suites (default: the "
        "library's pinned BASE_SEED)",
    )
    qa.add_argument(
        "--report",
        default="repro-qa-report.json",
        metavar="PATH",
        help="write the repro-qa/v1 JSON report here "
        "(default repro-qa-report.json; '-' disables)",
    )
    qa.add_argument(
        "--golden-dir",
        default=None,
        metavar="PATH",
        help="golden snapshot directory (default: tests/qa/golden)",
    )
    qa.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the golden snapshots before checking them "
        "(after an intentional model change)",
    )
    qa.add_argument(
        "--skip",
        action="append",
        choices=("relations", "golden", "differential"),
        default=None,
        metavar="SUITE",
        help="skip a suite (repeatable)",
    )
    qa.add_argument(
        "--engines",
        nargs="+",
        choices=engine_names(),
        default=None,
        help="engines to exercise (default: every registered engine)",
    )
    qa.add_argument(
        "--relation-cases",
        type=int,
        default=2,
        metavar="N",
        help="random relation cases on top of the running example "
        "(default 2)",
    )
    qa.add_argument(
        "--differential-cases",
        type=int,
        default=50,
        metavar="N",
        help="cap on differential cases (default 50; the budget "
        "usually binds first)",
    )
    qa.add_argument(
        "--no-minimize",
        action="store_true",
        help="report failures without greedily shrinking them (faster)",
    )
    qa.set_defaults(handler=_cmd_qa)

    _add_logging_flag(qa)
    _add_progress_flag(qa)


def _cmd_qa(args: argparse.Namespace) -> int:
    from repro.obs.report import TraceWriter, validate_qa_record
    from repro.qa import BASE_SEED, QAConfig, run_qa

    progress = args.progress
    if progress is None:
        try:
            progress = bool(sys.stderr.isatty())
        except (AttributeError, ValueError):
            progress = False
    config = QAConfig(
        budget=args.budget,
        seed=args.seed if args.seed is not None else BASE_SEED,
        golden_dir=args.golden_dir,
        engines=tuple(args.engines) if args.engines else engine_names(),
        relation_cases=args.relation_cases,
        differential_cases=args.differential_cases,
        minimize=not args.no_minimize,
        skip=tuple(args.skip or ()),
        update_golden=args.update_golden,
        on_progress=(
            (lambda text: print(text, file=sys.stderr, flush=True))
            if progress else None
        ),
    )
    report = run_qa(config)
    for path in report.golden_written:
        print(f"golden snapshot written to {path}", file=sys.stderr)
    record = report.as_record()
    validate_qa_record(record)
    if args.report and args.report != "-":
        with TraceWriter(args.report) as writer:
            writer.write_record(record)
        print(f"qa report written to {args.report}", file=sys.stderr)
    print(report.summary_table())
    return 0 if report.passed else 1
