"""Traced replay of one workload's ops, in a fresh process.

Usage: ``python3 perfbench/replay.py`` with ``src/`` on ``PYTHONPATH``
and the job as the first line of standard input.  The job is either

* ``{"kind": "cli", "argv": [...], "output": PATH}``: one untraced
  warm-up, then a ``ready`` line; then, for each further input line, one
  traced call of the ``repro-mine`` handler (``cli/mine.py::_cmd_mine``)
  on ``argv``, answered with its result line.  The caller runs its
  untraced ops between these, so that both see the same machine; or
* ``{"kind": "service", "cache_size": C, "requests": [{"request":
  {...}, "traced": bool}, ...]}``: each request, in order, through
  ``MiningService._execute`` of a service that is never started.

The replay runs in its own interpreter so that its heap, like that of
the ``repro-mine`` process or daemon it stands for, holds only the
program's own objects.  At the end of its input it prints one JSON
object: the spans, the engine counters, the traced op ids and one result
per op, with a SHA-256 of the op's output for the caller to check.
"""

import contextlib
import io
import json
import sys
import time
from dataclasses import asdict

from tracing import Tracer, install_program_spans, sha256


def replay_cli(job: dict, tracer: Tracer) -> list:
    from repro.cli import build_parser

    def once() -> dict:
        args = build_parser().parse_args(job["argv"])
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = args.handler(args)
        seconds = time.perf_counter() - started
        with open(job["output"], encoding="utf-8") as handle:
            return {"seconds": seconds, "exit": code,
                    "sha256": sha256(handle.read())}

    once()  # warm-up: lazy imports and first-touch costs
    print(json.dumps({"ready": True}), flush=True)
    results = []
    for index, _ in enumerate(sys.stdin):
        with tracer.op(index):
            results.append(once())
        print(json.dumps(results[-1]), flush=True)
    return results


def replay_service(job: dict, tracer: Tracer) -> list:
    from repro.core.request import MiningRequest
    from repro.service import MiningService

    service = MiningService(port=0, cache_size=job["cache_size"])
    tracer.wrap(service.cache, "get", "service.cache_get_s")
    tracer.wrap(service.cache, "put", "service.cache_put_s")
    results = []
    for index, entry in enumerate(job["requests"]):
        served = service.jobs.create(MiningRequest.from_dict(entry["request"]))
        scope = tracer.op(index) if entry["traced"] else contextlib.nullcontext()
        started = time.perf_counter()
        with scope:
            service._execute(served)
        results.append({
            "seconds": time.perf_counter() - started,
            "status": served.status,
            "error": served.error,
            "cache": served.cache,
            "sha256": sha256(served.patterns_tsv or ""),
        })
    return results


def main() -> None:
    job = json.loads(sys.stdin.readline())
    tracer = Tracer()
    install_program_spans(tracer)
    try:
        replay = replay_cli if job["kind"] == "cli" else replay_service
        results = replay(job, tracer)
    finally:
        tracer.restore()
    print(json.dumps({
        "spans": [asdict(span) for span in tracer.spans],
        "counters": tracer.counters,
        "ops": tracer.ops,
        "results": results,
    }))


if __name__ == "__main__":
    main()
