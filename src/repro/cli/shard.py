"""The ``shard`` subcommand: out-of-core mining over a sorted file."""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.reporting import format_table
from repro.core.engines import engine_names
from repro.core.options import ObservabilityOptions
from repro.cli._options import (
    _add_jobs_flag,
    _add_logging_flag,
    _add_progress_flag,
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
        default=100_000,
        metavar="N",
        help="per-shard transaction bound — the peak-memory knob "
        "(default 100000)",
    )
    shard.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the input instead of buffered reads",
    )
    shard.set_defaults(handler=_cmd_shard)

    _add_logging_flag(shard)
    _add_progress_flag(shard, metrics=True)
    _add_jobs_flag(shard)


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.core.request import MiningRequest
    from repro.obs.progress import monitor_from_options
    from repro.shard import mine_sharded_file_request

    request = MiningRequest(
        per=args.per,
        min_ps=args.min_ps,
        min_rec=args.min_rec,
        engine=args.engine,
        jobs=args.jobs,
        max_events_in_memory=args.max_events,
        resilience=_resilience_options(args),
    )
    monitor = monitor_from_options(
        ObservabilityOptions(
            progress=args.progress, metrics=args.metrics_out
        )
    )
    started = time.perf_counter()
    try:
        found, stats, faults, report = mine_sharded_file_request(
            args.input,
            request,
            monitor=monitor,
            use_mmap=args.mmap,
        )
        if monitor is not None:
            monitor.run_finished(
                engine=args.engine,
                stats=stats,
                seconds=time.perf_counter() - started,
                patterns_found=len(found),
            )
    finally:
        if monitor is not None:
            monitor.close()
    patterns = found.top(args.top) if args.top else list(found)
    rows = [
        (
            " ".join(str(item) for item in p.sorted_items()),
            p.support,
            p.recurrence,
            ", ".join(str(interval) for interval in p.intervals),
        )
        for p in patterns
    ]
    print(
        format_table(
            ["pattern", "sup", "rec", "interesting periodic-intervals"],
            rows,
            title=(
                f"{len(found)} recurring patterns "
                f"(per={args.per:g}, minPS={args.min_ps}, "
                f"minRec={args.min_rec}, out-of-core)"
            ),
        )
    )
    print(
        f"shards: {report.shard_count} "
        f"(max {args.max_events} transactions each), "
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
