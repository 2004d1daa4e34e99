"""The ``shard`` subcommand: out-of-core mining over a sorted file."""

from __future__ import annotations

import argparse
import sys

from repro.core.engines import engine_names
from repro.core.options import ObservabilityOptions
from repro.cli._options import (
    _add_jobs_flag,
    _add_logging_flag,
    _add_progress_flag,
    _print_pattern_table,
    _resilience_options,
    _threshold,
)


def configure(commands) -> None:
    """Register the shard subparser."""
    shard = commands.add_parser(
        "shard",
        help="out-of-core mining: stream a time-sorted transaction "
        "file in bounded-memory shards (byte-identical to mine)",
    )
    shard.add_argument(
        "--input",
        required=True,
        help="transaction file with non-decreasing timestamps",
    )
    shard.add_argument(
        "--per", type=float, required=True, help="period threshold"
    )
    shard.add_argument(
        "--min-ps",
        type=_threshold,
        required=True,
        help="minimum periodic-support (count, or fraction like 0.02)",
    )
    shard.add_argument(
        "--min-rec", type=int, default=1,
        help="minimum recurrence (default 1)",
    )
    shard.add_argument(
        "--engine", choices=engine_names(), default="rp-growth",
        help="mining engine",
    )
    shard.add_argument(
        "--top", type=int, default=0,
        help="print only the N highest-support patterns",
    )
    shard.add_argument(
        "--max-events",
        type=int,
        metavar="N",
        help="per-shard transaction bound — the peak-memory knob "
        "(default: repro.shard.DEFAULT_MAX_TRANSACTIONS)",
    )
    shard.set_defaults(handler=_cmd_shard)

    _add_logging_flag(shard)
    _add_progress_flag(shard, metrics=True)
    _add_jobs_flag(shard)


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.core.request import MiningRequest
    from repro.obs.report import profile_call
    from repro.shard import (
        DEFAULT_MAX_TRANSACTIONS,
        mine_sharded_file_request,
    )

    request = MiningRequest(
        per=args.per,
        min_ps=args.min_ps,
        min_rec=args.min_rec,
        engine=args.engine,
        jobs=args.jobs,
        max_events_in_memory=args.max_events,
        resilience=_resilience_options(args),
    )

    def run(monitor):
        mined = mine_sharded_file_request(
            args.input, request, monitor=monitor
        )
        return mined, mined[1], None

    (found, _, faults, report), _ = profile_call(
        run,
        args.engine,
        ObservabilityOptions(
            progress=args.progress, metrics=args.metrics_out
        ),
        count=lambda mined: len(mined[0]),
    )
    patterns = found.top(args.top) if args.top else list(found)
    _print_pattern_table(
        patterns,
        f"{len(found)} recurring patterns "
        f"(per={args.per:g}, minPS={args.min_ps}, "
        f"minRec={args.min_rec}, out-of-core)",
    )
    bound = args.max_events or DEFAULT_MAX_TRANSACTIONS
    print(
        f"shards: {report.shard_count} "
        f"(max {bound} transactions each), "
        f"candidates: {report.local_candidates} local + "
        f"{report.boundary_candidates} boundary, "
        f"stitched runs: {report.merge.stitched_runs}, "
        f"boundary patterns: {report.merge.boundary_patterns}"
    )
    if faults:
        print(
            f"note: {len(faults)} parallel fault(s) handled",
            file=sys.stderr,
        )
    return 0
