"""The ``bench``, ``compare``, ``generate`` and ``stats`` subcommands."""

from __future__ import annotations

import argparse
import sys

from repro.bench.reporting import format_table
from repro.core.engines import engine_names
from repro.core.options import ObservabilityOptions
from repro.cli._options import (
    _WORKLOADS,
    _add_jobs_flag,
    _add_logging_flag,
    _add_profiling_flags,
    _add_progress_flag,
    _load,
    _resilience_options,
    _threshold,
)


def configure(commands) -> None:
    """Register the bench-family subparsers."""
    generate = commands.add_parser(
        "generate", help="generate a synthetic workload"
    )
    generate.add_argument(
        "--dataset", choices=sorted(_WORKLOADS), required=True
    )
    generate.add_argument("--output", required=True, help="output file path")
    generate.add_argument(
        "--scale", type=float, default=0.1, help="fraction of paper scale"
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    stats = commands.add_parser("stats", help="describe a database file")
    stats.add_argument("--input", required=True)
    stats.add_argument(
        "--format",
        choices=("transactions", "events"),
        default="transactions",
    )
    stats.set_defaults(handler=_cmd_stats)

    bench = commands.add_parser(
        "bench", help="parameter sweep (Tables 5 and 7)"
    )
    bench.add_argument(
        "--dataset", choices=sorted(_WORKLOADS), required=True
    )
    bench.add_argument("--scale", type=float, default=0.05)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--pers", type=float, nargs="+", default=[360, 720, 1440]
    )
    bench.add_argument(
        "--min-ps", type=_threshold, nargs="+", required=True,
        dest="min_ps_values",
    )
    bench.add_argument("--min-recs", type=int, nargs="+", default=[1, 2, 3])
    bench.add_argument(
        "--engine", choices=engine_names(), default="rp-growth"
    )
    bench.add_argument(
        "--runtime", action="store_true", help="also measure wall-clock"
    )
    bench.set_defaults(handler=_cmd_bench)

    compare = commands.add_parser(
        "compare", help="model comparison (Table 8)"
    )
    compare.add_argument(
        "--dataset", choices=sorted(_WORKLOADS), required=True
    )
    compare.add_argument("--scale", type=float, default=0.05)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--per", type=float, default=1440)
    compare.add_argument("--min-sup", type=_threshold, required=True)
    compare.add_argument("--min-ps", type=_threshold, required=True)
    compare.add_argument("--min-rec", type=int, default=1)
    compare.set_defaults(handler=_cmd_compare)

    for sub in (generate, stats, bench, compare):
        _add_logging_flag(sub)
    _add_profiling_flags(bench, memory=False)
    _add_progress_flag(bench, metrics=True)
    _add_jobs_flag(bench)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.timeseries.io import save_transactional_database

    database = _WORKLOADS[args.dataset](scale=args.scale, seed=args.seed)
    save_transactional_database(database, args.output)
    print(
        f"wrote {len(database)} transactions "
        f"({len(database.items())} items) to {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.timeseries.stats import describe_database

    database = _load(args.input, args.format)
    stats = describe_database(database)
    print(format_table(["statistic", "value"], stats.as_rows()))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import sweep_pattern_counts, sweep_runtime
    from repro.obs.progress import monitor_from_options

    database = _WORKLOADS[args.dataset](scale=args.scale, seed=args.seed)
    # One monitor covers both sweeps — two independently built monitors
    # would each reopen (and truncate) the same --metrics-out file.
    monitor = monitor_from_options(
        ObservabilityOptions(
            progress=args.progress, metrics=args.metrics_out
        )
    )
    live = (
        ObservabilityOptions(monitor=monitor)
        if monitor is not None else None
    )
    try:
        counts = sweep_pattern_counts(
            database,
            args.dataset,
            args.pers,
            args.min_ps_values,
            args.min_recs,
            engine=args.engine,
            jobs=args.jobs,
            resilience=_resilience_options(args),
            observability=live,
        )
        print(counts.as_table())
        # A trace or profile needs per-cell timings, so those imply the
        # runtime sweep.
        runtime = None
        if args.runtime or args.profile or args.trace_out:
            runtime = sweep_runtime(
                database,
                args.dataset,
                args.pers,
                args.min_ps_values,
                args.min_recs,
                engine=args.engine,
                jobs=args.jobs,
                resilience=_resilience_options(args),
                observability=live,
            )
            print()
            print(runtime.as_table())
    finally:
        if monitor is not None:
            monitor.close()
    if args.trace_out and runtime is not None:
        from repro.obs import RUN_SCHEMA, TraceWriter

        with TraceWriter(args.trace_out) as writer:
            for key in runtime.cells:
                per, min_ps, min_rec = key
                phases = runtime.phase_breakdown(per, min_ps, min_rec)
                writer.write_record({
                    "schema": RUN_SCHEMA,
                    "kind": "run",
                    "engine": args.engine,
                    "dataset": args.dataset,
                    "params": {
                        "per": per, "min_ps": min_ps, "min_rec": min_rec,
                    },
                    "patterns_found": int(counts.value(*key)),
                    "seconds": runtime.value(*key),
                    "counters": counts.stats[key].as_dict(),
                    "spans": [
                        {"name": name, "seconds": seconds}
                        for name, seconds in phases.items()
                    ],
                })
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.profile and runtime is not None:
        totals: dict = {}
        for key in runtime.cells:
            for name, seconds in runtime.phase_breakdown(*key).items():
                totals[name] = totals.get(name, 0.0) + seconds
        rows = [[name, f"{seconds:.6f}"] for name, seconds in totals.items()]
        rows.append(["total", f"{sum(totals.values()):.6f}"])
        print(
            format_table(
                ["phase", "seconds"], rows,
                title=f"{args.dataset}: phase totals over the grid",
            ),
            file=sys.stderr,
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.harness import compare_models

    database = _WORKLOADS[args.dataset](scale=args.scale, seed=args.seed)
    result = compare_models(
        database,
        args.dataset,
        per=args.per,
        min_sup=args.min_sup,
        min_ps=args.min_ps,
        min_rec=args.min_rec,
    )
    print(result.as_table())
    return 0
