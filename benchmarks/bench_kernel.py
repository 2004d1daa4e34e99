"""Columnar kernel: ``rp-eclat-vec`` vs ``rp-growth``.

Mines the ``BENCH_parallel.json`` quest grids (the E-A3 configuration:
per=360, minPS=0.2%, minRec=1, scales 0.05 and 0.2) with the batched
columnar engine and the paper's tree engine, asserts byte-identical
pattern sets, and records the wall-clock comparison to
``BENCH_kernel.json`` at the repository root in the ``repro-bench/v1``
envelope.

The acceptance gate is the kernel's reason to exist: on every grid,
``rp-eclat-vec`` must be at least :data:`MIN_SPEEDUP` times faster
than ``rp-growth`` (best-of-:data:`REPEATS` on both sides, so pool
noise and first-run cache effects cancel).
"""

import json
import os
import pathlib
import time

from repro.bench.workloads import quest_workload
from repro.core.engines import get_engine

SCALES = (0.05, 0.2)  # the BENCH_parallel quest grids
PARAMS = {"per": 360, "min_ps": 0.002, "min_rec": 1}
ENGINES = ("rp-growth", "rp-eclat-vec")
#: Best-of repetitions per engine.
REPEATS = 5
#: The gate: the columnar kernel must beat rp-growth by this factor on
#: every grid (ISSUE 7 acceptance criterion).
MIN_SPEEDUP = 5.0

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_kernel.json"


def _best_mine(engine_name, db):
    spec = get_engine(engine_name)
    best_seconds = float("inf")
    patterns = None
    for _ in range(REPEATS):
        miner = spec.factory(**PARAMS)
        started = time.perf_counter()
        found = miner.mine(db)
        seconds = time.perf_counter() - started
        if seconds < best_seconds:
            best_seconds = seconds
            patterns = found
    return best_seconds, patterns


def test_kernel_speedup(record_artifact):
    cells = []
    table_rows = []
    for scale in SCALES:
        db = quest_workload(scale)
        results = {}
        for engine in ENGINES:
            seconds, patterns = _best_mine(engine, db)
            results[engine] = (seconds, patterns)
        # The speedup only counts because the outputs are identical.
        reference = list(results["rp-growth"][1])
        for engine, (_, patterns) in results.items():
            assert list(patterns) == reference, (scale, engine)
        growth_seconds = results["rp-growth"][0]
        for engine, (seconds, patterns) in results.items():
            speedup = growth_seconds / seconds
            cells.append(
                {
                    "scale": scale,
                    "transactions": len(db),
                    "engine": engine,
                    "wall_seconds": seconds,
                    "speedup_vs_growth": speedup,
                    "patterns": len(patterns),
                    "repeats": REPEATS,
                }
            )
            table_rows.append(
                (scale, len(db), engine, f"{seconds:.4f}", f"{speedup:.2f}x")
            )

    from repro.bench.reporting import format_table

    record_artifact(
        "kernel",
        format_table(
            ["scale", "transactions", "engine", "seconds", "vs growth"],
            table_rows,
            title="Columnar kernel vs rp-growth, quest",
        ),
    )

    payload = {
        "schema": "repro-bench/v1",
        "benchmark": "kernel",
        "created_unix": time.time(),
        "params": PARAMS,
        "scales": list(SCALES),
        "min_speedup_gate": MIN_SPEEDUP,
        "hardware": {
            "cpu_count": os.cpu_count() or 1,
            "platform": os.uname().sysname if hasattr(os, "uname") else "?",
        },
        "cells": cells,
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    for cell in cells:
        if cell["engine"] == "rp-eclat-vec":
            assert cell["speedup_vs_growth"] >= MIN_SPEEDUP, cell
