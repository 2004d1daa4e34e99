"""The ``serve``, ``submit``, ``status`` and ``fetch`` subcommands.

``serve`` runs the mining service daemon (:mod:`repro.service`); the
other three are the thin client: build a
:class:`~repro.core.request.MiningRequest` from the same flags the
``mine`` subcommand takes, POST it, poll it, fetch the result.
"""

from __future__ import annotations

import argparse
import io
import sys

from repro.bench.reporting import format_table
from repro.core.engines import engine_names
from repro.cli._options import (
    _WORKLOADS,
    _add_logging_flag,
    _threshold,
)

_DEFAULT_HOST = "127.0.0.1"
_DEFAULT_PORT = 8765


def _add_server_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default=_DEFAULT_HOST,
        help=f"service host (default {_DEFAULT_HOST})",
    )
    parser.add_argument(
        "--port", type=int, default=_DEFAULT_PORT,
        help=f"service port (default {_DEFAULT_PORT})",
    )


def configure(commands) -> None:
    """Register the service subparsers."""
    serve = commands.add_parser(
        "serve",
        help="run the mining service daemon (see docs/service.md)",
    )
    _add_server_flags(serve)
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="bounded mining worker pool size (default 2)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=64, metavar="N",
        help="result-cache capacity in entries (default 64)",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="append a repro-run/v1 record per served job to PATH",
    )
    serve.set_defaults(handler=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit a mining job to a running service"
    )
    _add_server_flags(submit)
    source = submit.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input", default=None,
        help="transaction file path (readable by the server)",
    )
    source.add_argument(
        "--dataset", choices=sorted(_WORKLOADS), default=None,
        help="named synthetic workload instead of --input",
    )
    submit.add_argument("--scale", type=float, default=0.05)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--per", type=float, required=True, help="period threshold"
    )
    submit.add_argument(
        "--min-ps", type=_threshold, required=True,
        help="minimum periodic-support (count, or fraction like 0.02)",
    )
    submit.add_argument(
        "--min-rec", type=int, default=1,
        help="minimum recurrence (default 1)",
    )
    submit.add_argument(
        "--engine", choices=engine_names(), default="rp-growth",
        help="mining engine",
    )
    submit.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the mine itself",
    )
    submit.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="mine through the time-sharded pipeline with N shards",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print the result",
    )
    submit.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="--wait polling deadline (default 120)",
    )
    submit.add_argument(
        "--top", type=int, default=0,
        help="with --wait: print only the N highest-support patterns",
    )
    submit.set_defaults(handler=_cmd_submit)

    status = commands.add_parser(
        "status", help="poll a submitted job's state"
    )
    _add_server_flags(status)
    status.add_argument("--job", required=True, metavar="ID")
    status.set_defaults(handler=_cmd_status)

    fetch = commands.add_parser(
        "fetch", help="fetch a finished job's pattern set"
    )
    _add_server_flags(fetch)
    fetch.add_argument("--job", required=True, metavar="ID")
    fetch.add_argument(
        "--top", type=int, default=0,
        help="print only the N highest-support patterns",
    )
    fetch.add_argument(
        "--save-patterns", default=None, metavar="PATH",
        help="also write the pattern set (reloadable TSV) to PATH",
    )
    fetch.set_defaults(handler=_cmd_fetch)

    for sub in (serve, submit, status, fetch):
        _add_logging_flag(sub)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import run_server

    run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        trace=args.trace_out,
    )
    return 0


def _build_request(args: argparse.Namespace):
    from repro.core.request import DatasetRef, MiningRequest

    if args.input is not None:
        source = DatasetRef.file(args.input)
    else:
        source = DatasetRef.named_workload(
            args.dataset, scale=args.scale, seed=args.seed
        )
    return MiningRequest(
        per=args.per,
        min_ps=args.min_ps,
        min_rec=args.min_rec,
        engine=args.engine,
        jobs=args.jobs,
        shards=args.shards,
        source=source,
    )


def _print_patterns(result: dict, top: int) -> None:
    from repro.patterns_io import load_patterns

    found = load_patterns(io.StringIO(result["patterns_tsv"]))
    patterns = found.top(top) if top else list(found)
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
                f"(job {result['id']}, cache: {result['cache']})"
            ),
        )
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    job_id = client.submit(_build_request(args))
    if not args.wait:
        print(job_id)
        return 0
    status = client.wait(job_id, timeout=args.timeout)
    if status["status"] != "done":
        print(
            f"error: job {job_id} {status['status']}: "
            f"{status.get('error', 'timed out')}",
            file=sys.stderr,
        )
        return 1
    _print_patterns(client.result(job_id), args.top)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    status = ServiceClient(args.host, args.port).status(args.job)
    line = f"{status['id']}: {status['status']}"
    if status.get("cache"):
        line += f" (cache: {status['cache']})"
    if status.get("seconds") is not None:
        line += f" in {status['seconds']:.3f}s"
    if status.get("error"):
        line += f" — {status['error']}"
    print(line)
    return 0 if status["status"] != "failed" else 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    result = ServiceClient(args.host, args.port).result(args.job)
    _print_patterns(result, args.top)
    if args.save_patterns:
        with open(args.save_patterns, "w", encoding="utf-8") as handle:
            handle.write(result["patterns_tsv"])
        print(f"patterns written to {args.save_patterns}")
    return 0
