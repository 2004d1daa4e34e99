"""The CLI workloads: ``repro-mine mine`` as a fresh subprocess per op.

``cli-mine`` runs the default rp-growth engine serially; ``cli-mine-jobs2``
runs the same op with ``--jobs 2``.  Both are closed loops with one
client: the next op starts when the previous one has exited.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import time
from pathlib import Path

import inputs
from common import BenchmarkError, Context, Op, Result, median, throughput
from tracing import Replay, report_layers, sha256

PER = 360
MIN_PS = 0.002
TOP = 20
#: The answer every op's patterns file is compared with comes from
#: another engine than the rp-growth engine under test.
REFERENCE_ENGINE = "rp-eclat-vec"
SETUPS = 3
#: The traced run's untraced and traced ops, each after one warm-up.
TRACE_OPS = 3
IMPORT_SAMPLES = 5
LAUNCHER = Path(__file__).with_name("launch.py")


class Prepared:
    def __init__(self, ctx: Context, jobs: int, setups: int):
        self.ctx = ctx
        self.jobs = jobs
        structure = inputs.Structure(ctx.root, ctx.scale, 0)
        self.seeded = inputs.Seeded(structure, ctx.seed, "cli")
        self.expected = inputs.patterns_tsv(self.seeded.rename(
            structure.answer(REFERENCE_ENGINE, PER, MIN_PS)
        ))
        self.input = ctx.work / "quest.tsv"
        self.output = ctx.work / "patterns.tsv"
        self.argv = [
            "mine", "--input", str(self.input), "--per", str(PER),
            "--min-ps", str(MIN_PS), "--top", str(TOP),
            "--save-patterns", str(self.output),
        ]
        if jobs > 1:
            self.argv += ["--jobs", str(jobs)]
        # Set-up: write the seeded input, then one untimed warm-up op
        # that must agree with the reference.  Repeated; the median is
        # setup_s.
        self.setup_seconds = []
        for _ in range(setups):
            started = time.perf_counter()
            self.seeded.write(self.input)
            warm, _ = self.run_op()
            self.setup_seconds.append(time.perf_counter() - started)
            if not warm.ok:
                raise BenchmarkError(f"warm-up op failed: {warm.error}")

    def facts(self) -> dict:
        return {
            **self.seeded.describe(self.input),
            "loop": "closed",
            "clients": 1,
            "request_mix": f"100% mine (rp-growth, jobs={self.jobs}, "
                           f"per={PER}, min_ps={MIN_PS}, top={TOP})",
        }

    def check_output(self) -> str:
        try:
            text = self.output.read_text(encoding="utf-8")
        except OSError as error:
            return f"no patterns file: {error}"
        if text != self.expected:
            return "patterns file differs from the reference"
        return None

    def run_op(self):
        """One subprocess op; returns ``(op, peak RSS in MiB)``."""
        with contextlib.suppress(FileNotFoundError):
            self.output.unlink()
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER),
             *self.ctx.repro_command(*self.argv)],
            env=self.ctx.env, cwd=self.ctx.work, capture_output=True,
        )
        ended = time.perf_counter()
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = {"exit": proc.returncode, "seconds": ended - started,
                      "peak_rss_kib": 0}
        if report["exit"] != 0:
            error = (f"exit {report['exit']}: "
                     f"{proc.stderr.decode(errors='replace')[-300:]}")
        else:
            error = self.check_output()
        op = Op(report["seconds"], error, started=started, ended=ended)
        return op, report["peak_rss_kib"] / 1024.0


def timed(ctx: Context, jobs: int) -> Result:
    prepared = Prepared(ctx, jobs, SETUPS)
    result = Result(facts=prepared.facts())
    ops, rss = [], []
    deadline = time.perf_counter() + ctx.seconds
    while True:
        op, peak = prepared.run_op()
        ops.append(op)
        rss.append(peak)
        if time.perf_counter() >= deadline:
            break
    result.count(ops)
    result.add("setup_s", median(prepared.setup_seconds), "s",
               f"median of {SETUPS} set-ups")
    result.add("ops_per_s", throughput(ops), "1/s")
    result.add_latencies("latency", [op.latency for op in ops if op.ok])
    result.add("peak_rss_mb", max(rss), "MiB",
               "largest op subprocess, pool workers included")
    return result


# -- the traced run ----------------------------------------------------
def time_import(ctx: Context) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=ctx.env,
        cwd=ctx.work, check=True,
    )
    return time.perf_counter() - started


def traced(ctx: Context, jobs: int) -> Result:
    prepared = Prepared(ctx, jobs, setups=1)
    result = Result(facts=prepared.facts())
    imports = [time_import(ctx) for _ in range(IMPORT_SAMPLES)]
    # Untraced and traced ops take turns, so that both see the same
    # machine however its speed drifts.
    replay = Replay(ctx, {
        "kind": "cli", "argv": prepared.argv,
        "output": str(prepared.output),
    })
    untraced = []
    try:
        replay.receive()  # its warm-up is done
        for _ in range(TRACE_OPS):
            untraced.append(prepared.run_op()[0])
            replay.step()
        tracer, results = replay.finish()
    finally:
        replay.close()
    result.count(untraced)
    expected = sha256(prepared.expected)
    result.count([
        Op(r["seconds"], None if r["exit"] == 0 and r["sha256"] == expected
           else f"traced op: exit {r['exit']} or patterns differ")
        for r in results
    ])

    latency = median(op.latency for op in untraced)
    result.add("latency_p50_s", latency, "s",
               f"untraced, median of {TRACE_OPS} subprocess ops")
    result.add("cli.import_s", median(imports), "s",
               f"fresh `python -c 'import repro.cli'`, median of "
               f"{IMPORT_SAMPLES}")
    layered = {"cli.import_s": median(imports)}
    for name in tracer.top_level():
        layered[name] = tracer.op_median(name)
    report_layers(result, tracer, layered, latency)
    return result
