"""The ``mine``, ``rules`` and ``baseline`` subcommands.

``mine`` is the front door: it builds one
:class:`~repro.core.request.MiningRequest` from the flags and executes
it through :func:`repro.core.miner.execute_request` — exactly the
object the sweep engine, the shard pipeline and the service daemon
execute, so every entry point shares one validation and dispatch path.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.core.engines import engine_names
from repro.cli._options import (
    _add_jobs_flag,
    _add_logging_flag,
    _add_profiling_flags,
    _add_progress_flag,
    _load,
    _observability,
    _print_pattern_table,
    _resilience_options,
    _threshold,
)


def configure(commands) -> None:
    """Register the mine-family subparsers."""
    mine = commands.add_parser("mine", help="mine recurring patterns")
    mine.add_argument("--input", required=True, help="input file path")
    mine.add_argument(
        "--format",
        choices=("transactions", "events"),
        default="transactions",
        help="input file format (default: transactions)",
    )
    mine.add_argument(
        "--per", type=float, required=True, help="period threshold"
    )
    mine.add_argument(
        "--min-ps",
        type=_threshold,
        required=True,
        help="minimum periodic-support (count, or fraction like 0.02)",
    )
    mine.add_argument(
        "--min-rec", type=int, default=1,
        help="minimum recurrence (default 1)",
    )
    mine.add_argument(
        "--engine", choices=engine_names(), default="rp-growth",
        help="mining engine",
    )
    mine.add_argument(
        "--top", type=int, default=0,
        help="print only the N highest-support patterns",
    )
    mine.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="mine through the time-sharded pipeline with N shards "
        "(byte-identical output; see the shard subcommand for the "
        "out-of-core file variant)",
    )
    mine.add_argument(
        "--max-faults",
        type=int,
        default=0,
        help="fault credits per interval (noise-tolerant mining; "
        "default 0)",
    )
    mine.add_argument(
        "--fault-per",
        type=float,
        default=None,
        help="forgiving gap threshold for faults (default 2*per)",
    )
    condensation = mine.add_mutually_exclusive_group()
    condensation.add_argument(
        "--closed", action="store_true", help="report closed patterns only"
    )
    condensation.add_argument(
        "--maximal", action="store_true",
        help="report maximal patterns only",
    )
    mine.add_argument(
        "--timeline",
        action="store_true",
        help="draw each pattern's intervals on a time axis",
    )
    mine.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write a markdown report of the run to PATH",
    )
    mine.add_argument(
        "--save-patterns",
        default=None,
        metavar="PATH",
        help="also write the mined pattern set (reloadable TSV) to PATH",
    )
    mine.set_defaults(handler=_cmd_mine)

    rules = commands.add_parser(
        "rules", help="derive recurring association rules"
    )
    rules.add_argument("--input", required=True)
    rules.add_argument(
        "--format",
        choices=("transactions", "events"),
        default="transactions",
    )
    rules.add_argument("--per", type=float, required=True)
    rules.add_argument("--min-ps", type=_threshold, required=True)
    rules.add_argument("--min-rec", type=int, default=1)
    rules.add_argument("--min-confidence", type=float, default=0.5)
    rules.add_argument("--top", type=int, default=20)
    rules.set_defaults(handler=_cmd_rules)

    baseline = commands.add_parser(
        "baseline", help="run one of the baseline miners"
    )
    baseline.add_argument("--input", required=True)
    baseline.add_argument(
        "--format",
        choices=("transactions", "events"),
        default="transactions",
    )
    baseline.add_argument(
        "--model",
        choices=(
            "frequent",
            "periodic-frequent",
            "p-pattern",
            "partial-periodic",
            "async-periodic",
        ),
        required=True,
    )
    baseline.add_argument("--per", type=float, default=1440)
    baseline.add_argument("--min-sup", type=_threshold, required=True)
    baseline.add_argument(
        "--window", type=float, default=0, help="p-pattern tolerance window"
    )
    baseline.add_argument(
        "--min-rep", type=int, default=2,
        help="async-periodic min repetitions",
    )
    baseline.add_argument(
        "--max-dis", type=int, default=10,
        help="async-periodic max disturbance",
    )
    baseline.add_argument("--top", type=int, default=20)
    baseline.set_defaults(handler=_cmd_baseline)

    for sub in (mine, rules, baseline):
        _add_logging_flag(sub)
    _add_profiling_flags(mine)
    _add_profiling_flags(baseline)
    _add_progress_flag(mine, metrics=True)
    _add_progress_flag(baseline)
    _add_jobs_flag(mine)
    _add_jobs_flag(baseline)


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.core.miner import execute_request
    from repro.core.request import MiningRequest

    database = _load(args.input, args.format)
    observability = _observability(args)
    if args.max_faults:
        if args.jobs > 1:
            print(
                "note: the noise-tolerant miner is serial; --jobs ignored",
                file=sys.stderr,
            )
        if args.shards:
            print(
                "note: the noise-tolerant miner does not shard; "
                "--shards ignored",
                file=sys.stderr,
            )
        from repro.core.noise import mine_noise_tolerant_patterns

        found, telemetry = _run_serial(
            "noise-tolerant",
            lambda: mine_noise_tolerant_patterns(
                database,
                per=args.per,
                min_ps=args.min_ps,
                min_rec=args.min_rec,
                fault_per=args.fault_per,
                max_faults=args.max_faults,
            ),
            observability,
            params={
                "per": args.per,
                "min_ps": args.min_ps,
                "min_rec": args.min_rec,
                "max_faults": args.max_faults,
            },
        )
    else:
        request = MiningRequest(
            per=args.per,
            min_ps=args.min_ps,
            min_rec=args.min_rec,
            engine=args.engine,
            jobs=args.jobs,
            shards=args.shards,
            resilience=_resilience_options(args),
            observability=observability,
        )
        if observability.collect_stats:
            found, telemetry = execute_request(request, database)
        else:
            found, telemetry = execute_request(request, database), None
    _report_telemetry(telemetry, args)
    if args.closed:
        from repro.core.condensed import closed_patterns

        found = closed_patterns(found)
    elif args.maximal:
        from repro.core.condensed import maximal_patterns

        found = maximal_patterns(found)
    patterns = found.top(args.top) if args.top else list(found)
    _print_pattern_table(
        patterns,
        f"{len(found)} recurring patterns "
        f"(per={args.per:g}, minPS={args.min_ps}, minRec={args.min_rec})",
    )
    if args.timeline and patterns and len(database):
        from repro.viz import render_timeline

        print()
        print(render_timeline(patterns, database.start, database.end))
    if args.report:
        from repro.report import write_mining_report

        write_mining_report(
            args.report, database, found,
            per=args.per, min_ps=args.min_ps, min_rec=args.min_rec,
            engine=args.engine,
            stats=telemetry.stats if telemetry is not None else None,
        )
        print(f"report written to {args.report}")
    if args.save_patterns:
        from repro.patterns_io import save_patterns

        save_patterns(found, args.save_patterns)
        print(f"patterns written to {args.save_patterns}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.core.miner import mine_recurring_patterns
    from repro.core.rules import derive_rules

    database = _load(args.input, args.format)
    found = mine_recurring_patterns(
        database, per=args.per, min_ps=args.min_ps, min_rec=args.min_rec
    )
    rules = derive_rules(
        found, database, min_confidence=args.min_confidence
    )
    print(
        f"{len(rules)} recurring association rules "
        f"(min confidence {args.min_confidence:g})"
    )
    for rule in rules[: args.top]:
        print(f"  {rule}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.baselines import (
        mine_async_periodic_patterns,
        mine_frequent_patterns,
        mine_p_patterns,
        mine_partial_periodic_patterns,
        mine_periodic_frequent_patterns,
    )

    database = _load(args.input, args.format)
    if args.jobs > 1:
        print(
            "note: baseline miners are serial; --jobs ignored "
            "(parallel mining is for the recurring-pattern engines)",
            file=sys.stderr,
        )

    def run_baseline():
        if args.model == "frequent":
            return list(mine_frequent_patterns(database, args.min_sup))
        if args.model == "periodic-frequent":
            return list(
                mine_periodic_frequent_patterns(
                    database, args.min_sup, args.per
                )
            )
        if args.model == "p-pattern":
            mode = "tolerance" if args.window else "threshold"
            return list(
                mine_p_patterns(
                    database, args.per, args.min_sup,
                    window=args.window, mode=mode,
                )
            )
        if args.model == "partial-periodic":
            return mine_partial_periodic_patterns(
                database, int(args.per), args.min_sup
            )
        return mine_async_periodic_patterns(
            database, int(args.per), args.min_rep, args.max_dis
        )

    results, telemetry = _run_serial(
        f"baseline/{args.model}",
        run_baseline,
        _observability(args),
        params={"per": args.per, "min_sup": args.min_sup},
    )
    _report_telemetry(telemetry, args)
    print(f"{len(results)} {args.model} patterns")
    for pattern in results[: args.top]:
        print(f"  {pattern}")
    return 0


def _run_serial(label: str, mine, observability, params: dict):
    """Run one serial miner outside ``execute_request`` as one ``run``.

    The noise-tolerant and baseline miners go through the same runner
    as ``execute_request`` (monitor, spans, telemetry, trace), mined as
    the single-unit ``label`` phase under one ``run`` span.  Returns
    ``(result, telemetry or None)``.
    """
    from repro.core.miner import mine_serial
    from repro.obs.report import profile_call
    from repro.obs.spans import span

    def run(monitor):
        with span("run"):
            return mine_serial(label, mine, monitor), None, None

    return profile_call(run, label, observability, params=params)


def _report_telemetry(telemetry, args: argparse.Namespace) -> None:
    """Log a run's telemetry at debug level; ``--profile`` prints it."""
    if telemetry is None:
        return
    telemetry.log(level=logging.DEBUG)
    if args.profile:
        print(telemetry.summary_table(), file=sys.stderr)
