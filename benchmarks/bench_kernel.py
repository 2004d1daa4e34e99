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

A second gate bounds the kernel's memory: after the timed repeats, one
untimed ``rp-eclat-vec`` mine per grid runs under ``tracemalloc``
(which traces NumPy buffers), and its peak above the start must stay
within :data:`MAX_PEAK_PER_ID` times the 8 bytes per transaction id
its levels kept (``tid_list_entries``).  A pair step that copies every
gathered sibling block reads about 11 here.
"""

import json
import os
import pathlib
import time
import tracemalloc

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
#: The memory gate: the vec mine's traced peak, over 8 bytes per kept
#: transaction id.
MAX_PEAK_PER_ID = 6.0

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


def _traced_vec_mine(db):
    """One untimed ``rp-eclat-vec`` mine under ``tracemalloc``: its
    traced peak above the start, in bytes, and the ids it kept.  The
    timed repeats already built the database's columnar view."""
    miner = get_engine("rp-eclat-vec").factory(**PARAMS)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        miner.mine(db)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, miner.last_stats.tid_list_entries


def test_kernel_speedup(record_artifact):
    cells = []
    table_rows = []
    for scale in SCALES:
        db = quest_workload(scale)
        results = {}
        for engine in ENGINES:
            seconds, patterns = _best_mine(engine, db)
            results[engine] = (seconds, patterns)
        peak, kept_ids = _traced_vec_mine(db)
        # The speedup only counts because the outputs are identical.
        reference = list(results["rp-growth"][1])
        for engine, (_, patterns) in results.items():
            assert list(patterns) == reference, (scale, engine)
        growth_seconds = results["rp-growth"][0]
        for engine, (seconds, patterns) in results.items():
            speedup = growth_seconds / seconds
            cell = {
                "scale": scale,
                "transactions": len(db),
                "engine": engine,
                "wall_seconds": seconds,
                "speedup_vs_growth": speedup,
                "patterns": len(patterns),
                "repeats": REPEATS,
            }
            peak_column = "-"
            if engine == "rp-eclat-vec":
                cell["tid_list_entries"] = kept_ids
                cell["traced_peak_bytes"] = peak
                cell["peak_per_id"] = peak / (8 * kept_ids)
                peak_column = (
                    f"{peak / 2**20:.1f} MiB ({cell['peak_per_id']:.2f}x)"
                )
            cells.append(cell)
            table_rows.append(
                (
                    scale, len(db), engine, f"{seconds:.4f}",
                    f"{speedup:.2f}x", peak_column,
                )
            )

    from repro.bench.reporting import format_table

    record_artifact(
        "kernel",
        format_table(
            [
                "scale", "transactions", "engine", "seconds", "vs growth",
                "traced peak (per id)",
            ],
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
        "max_peak_per_id_gate": MAX_PEAK_PER_ID,
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
            assert cell["peak_per_id"] <= MAX_PEAK_PER_ID, cell
