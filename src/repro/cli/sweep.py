"""The ``sweep`` subcommand: shared-scan threshold-grid sweeps."""

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
    """Register the sweep subparser."""
    sweep = commands.add_parser(
        "sweep",
        help="shared-scan threshold-grid sweep (repro-sweep/v1)",
    )
    sweep.add_argument("--input", default=None, help="input file path")
    sweep.add_argument(
        "--format",
        choices=("transactions", "events"),
        default="transactions",
        help="input file format (default: transactions)",
    )
    sweep.add_argument(
        "--dataset", choices=sorted(_WORKLOADS), default=None,
        help="generate this synthetic workload instead of --input",
    )
    sweep.add_argument("--scale", type=float, default=0.05)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--pers", type=float, nargs="+", required=True
    )
    sweep.add_argument(
        "--min-ps", type=_threshold, nargs="+", required=True,
        dest="min_ps_values",
    )
    sweep.add_argument("--min-recs", type=int, nargs="+", default=[1])
    sweep.add_argument(
        "--engine", choices=engine_names(), default="rp-growth"
    )
    sweep.add_argument(
        "--no-derive",
        action="store_true",
        help="mine every cell instead of deriving tighter min_rec "
        "cells from their column's loosest mine (slower; identical "
        "results — useful for timing comparisons)",
    )
    sweep.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="mine each mined cell N times, keep the fastest timing",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    _add_logging_flag(sweep)
    _add_profiling_flags(sweep)
    _add_progress_flag(sweep, metrics=True)
    _add_jobs_flag(sweep)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepPlan, run_sweep

    if (args.input is None) == (args.dataset is None):
        print(
            "error: pass exactly one of --input or --dataset",
            file=sys.stderr,
        )
        return 2
    if args.input is not None:
        database = _load(args.input, args.format)
        dataset = args.input
    else:
        database = _WORKLOADS[args.dataset](
            scale=args.scale, seed=args.seed
        )
        dataset = args.dataset
    plan = SweepPlan(
        pers=tuple(args.pers),
        min_ps_values=tuple(args.min_ps_values),
        min_recs=tuple(args.min_recs),
        engine=args.engine,
        jobs=args.jobs,
        derive_min_rec=not args.no_derive,
        repeats=args.repeats,
        resilience=_resilience_options(args),
    )
    result = run_sweep(
        database,
        plan,
        dataset=dataset,
        observability=ObservabilityOptions(
            trace=args.trace_out,
            track_memory=args.track_memory,
            progress=args.progress,
            metrics=args.metrics_out,
        ),
    )
    rows = [
        (
            f"{per:g}",
            str(min_ps),
            str(min_rec),
            len(result.pattern_set(per, min_ps, min_rec)),
            "derived" if result.derived_from[(per, min_ps, min_rec)]
            else "mined",
            f"{result.seconds_by_cell[(per, min_ps, min_rec)]:.6f}",
        )
        for per, min_ps, min_rec in plan.cells()
    ]
    print(
        format_table(
            ["per", "minPS", "minRec", "patterns", "how", "seconds"],
            rows,
            title=f"{dataset}: sweep ({plan.engine})",
        )
    )
    print(result.summary_line(), file=sys.stderr)
    if args.trace_out:
        print(f"sweep trace written to {args.trace_out}", file=sys.stderr)
    if args.profile:
        totals: dict = {"transform": result.transform_seconds}
        for key in plan.cells():
            for name, seconds in result.phase_breakdown(*key).items():
                totals[name] = totals.get(name, 0.0) + seconds
        prows = [
            [name, f"{seconds:.6f}"] for name, seconds in totals.items()
        ]
        prows.append(["total", f"{result.seconds:.6f}"])
        print(
            format_table(
                ["phase", "seconds"], prows,
                title=f"{dataset}: phase totals over the grid",
            ),
            file=sys.stderr,
        )
    return 0
