"""The repository's end-to-end benchmark with a per-layer split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-mine --seed 1 --seconds 15 --trace 0

Workloads: ``cli-mine``, ``cli-mine-jobs2`` and ``service-mix`` (see
``perfbench/README.md``).  ``--trace 0`` times the workload untraced and
prints the end-to-end metrics; ``--trace 1`` runs a fixed traced replay
and prints the per-layer metrics.  Every metric is printed by name with
its unit; the last line is one JSON object with exactly the metrics
``BENCHMARK.json`` declares for the mode.  Every op's output is checked
against a reference answer, and any mismatch makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-mine", "cli-mine-jobs2", "service-mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=0.2,
        help="Quest scale: 0.2 is 20 000 transactions (default)",
    )
    return parser.parse_args(argv)


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {src}")


def declared_metrics(trace: int):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args: argparse.Namespace):
    import cliload
    import svcload
    from common import Context, nproc

    ctx = Context.create(ROOT, args.workload, args.seed, args.seconds,
                         args.scale)
    try:
        if args.workload == "service-mix":
            result = (svcload.traced if args.trace else svcload.timed)(ctx)
        else:
            jobs = 2 if args.workload == "cli-mine-jobs2" else 1
            run = cliload.traced if args.trace else cliload.timed
            result = run(ctx, jobs)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    result.facts.update(
        workload=args.workload, seed=args.seed, scale=args.scale,
        nproc=nproc(),
    )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    started = time.perf_counter()
    result = measure(args)
    declared = declared_metrics(args.trace)
    # A layer this workload's path never enters did no work: zero.
    for name, unit in declared.items():
        if name not in result.metrics:
            result.add(name, 0, unit, "not on this workload's path")
    error_ratio = result.failed / result.attempted if result.attempted else 1.0
    result.add("error_ratio", error_ratio, "ratio",
               f"{result.failed} of {result.attempted} ops failed")

    for key, value in result.facts.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name, "")
        print(f"{name:34s} {value:>14.6g} {unit:6s} {note}".rstrip())
    for error in sorted(set(result.errors))[:10]:
        print(f"# error: {error}", file=sys.stderr)

    record = {
        "facts": result.facts,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.metrics.items()},
        "wall_s": time.perf_counter() - started,
    }
    stem = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    Path(f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    if result.spans:
        # The traced run's spans, held in memory until now.
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in result.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    correct = result.failed == 0 and result.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0],
                   "unit": result.metrics[name][1]}
            for name in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
