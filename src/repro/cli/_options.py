"""Shared option groups and helpers for the ``repro-mine`` subcommands.

Every subcommand family module pulls its common flags from here so the
flag vocabulary stays identical across the CLI: ``--log-level``,
``--jobs``/``--chunk-timeout``/``--max-retries``,
``--progress``/``--no-progress`` (+ ``--metrics-out``), and
``--profile``/``--trace-out``/``--track-memory``.  It also holds the
two tables more than one subcommand prints: the pattern table and a
sweep's phase totals.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from repro.bench.reporting import format_table
from repro.bench.workloads import WORKLOADS
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import (
    load_event_sequence,
    load_transactional_database,
)

#: Named synthetic workloads selectable with ``--dataset``.
_WORKLOADS = WORKLOADS

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _add_logging_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=None,
        help="enable stdlib logging at this level (stderr)",
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the pruning engines "
        "(1 = serial, the default; see docs/performance.md)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk deadline for parallel runs; an expired chunk "
        "is retried and finally re-mined serially (default: no "
        "deadline; only meaningful with --jobs > 1)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per failed parallel chunk before the serial "
        "fallback kicks in (default 2; only meaningful with "
        "--jobs > 1)",
    )


def _add_progress_flag(
    parser: argparse.ArgumentParser, metrics: bool = False
) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--progress",
        action="store_true",
        dest="progress",
        default=None,
        help="live progress/ETA lines on stderr "
        "(default: on only when stderr is a TTY)",
    )
    group.add_argument(
        "--no-progress",
        action="store_false",
        dest="progress",
        help="disable live progress even on a TTY",
    )
    if metrics:
        parser.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write periodic repro-metrics/v1 snapshots (JSON "
            "lines: counters, gauges, histograms — see "
            "docs/observability.md)",
        )


def _add_profiling_flags(
    parser: argparse.ArgumentParser, memory: bool = True
) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a phase-timing and counter table to stderr",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a JSON-lines trace: one repro-run/v1 record, "
        "spans included",
    )
    if memory:
        parser.add_argument(
            "--track-memory",
            action="store_true",
            help="also sample peak memory per phase (tracemalloc; slower)",
        )


def _load(path: str, file_format: str) -> TransactionalDatabase:
    if file_format == "events":
        return TransactionalDatabase.from_events(load_event_sequence(path))
    return load_transactional_database(path)


def _observability(args: argparse.Namespace) -> ObservabilityOptions:
    """The profiling and live-output flags as ObservabilityOptions.

    ``--profile``, ``--trace-out`` and ``--track-memory`` each turn
    telemetry on; ``--progress`` and ``--metrics-out`` ask for a
    live monitor.
    """
    return ObservabilityOptions(
        collect_stats=bool(
            args.profile or args.trace_out or args.track_memory
        ),
        trace=args.trace_out,
        track_memory=args.track_memory,
        progress=args.progress,
        metrics=getattr(args, "metrics_out", None),
    )


def _print_pattern_table(patterns: Iterable, title: str) -> None:
    """Print one row per pattern: items, support, recurrence, intervals."""
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
            title=title,
        )
    )


def _print_phase_totals(sweep) -> None:
    """A sweep's ``--profile`` table on stderr: seconds per phase,
    summed over the grid, after the shared transform."""
    totals = {"transform": sweep.transform_seconds}
    for key in sweep.plan.cells():
        for name, seconds in sweep.phase_breakdown(*key).items():
            totals[name] = totals.get(name, 0.0) + seconds
    rows = [[name, f"{seconds:.6f}"] for name, seconds in totals.items()]
    rows.append(["total", f"{sweep.seconds:.6f}"])
    print(
        format_table(
            ["phase", "seconds"], rows,
            title=f"{sweep.dataset}: phase totals over the grid",
        ),
        file=sys.stderr,
    )


def _resilience_options(args: argparse.Namespace) -> ResilienceOptions:
    """The --chunk-timeout/--max-retries flags as a ResilienceOptions."""
    return ResilienceOptions(
        timeout=args.chunk_timeout, max_retries=args.max_retries
    )


def _threshold(text: str):
    """Parse a support-like threshold: '3' -> 3, '0.02' -> 0.02."""
    value = float(text)
    if value >= 1 and value == int(value):
        return int(value)
    return value
