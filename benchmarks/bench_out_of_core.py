"""Out-of-core sharded mining: flat peak memory, bounded overhead.

Generates periodic transaction files at 1x and 10x scale (constant
pattern count, so only the raw data grows), mines them both in-memory
and through :func:`repro.shard.mine_sharded_file_request` at a fixed
``max_events_in_memory``, and records the comparison to
``BENCH_oocore.json`` at the repository root in the ``repro-bench/v1``
envelope.

Two gates (the ISSUE 9 acceptance criteria):

* **flat memory** — the sharded pipeline's peak tracked memory on the
  10x input must stay within :data:`MEMORY_GATE` times its 1x peak,
  while the in-memory peak demonstrably grows with the input;
* **bounded overhead** — the sharded wall clock must stay within
  :data:`OVERHEAD_GATE` times the in-memory mine on the same file
  (three streaming passes plus per-shard engine startup are paid for
  with a memory profile that no longer scales with the input).

Byte-identity of the two result sets is asserted, not recorded — a
fast wrong answer is not a benchmark result.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.miner import mine_recurring_patterns
from repro.core.request import MiningRequest
from repro.obs.memory import peak_memory
from repro.shard import mine_sharded_file_request
from repro.timeseries.io import load_transactional_database

#: Transactions at scale 1x; the big input is SCALE_FACTOR times this.
BASE_TRANSACTIONS = 3_000
SCALE_FACTOR = 10
#: Per-shard transaction bound for every sharded run.
SHARD_BOUND = 1_000
#: Best-of repetitions for wall-clock cells.
REPEATS = 3
#: Peak-memory gate: sharded peak at 10x vs sharded peak at 1x.
MEMORY_GATE = 1.5
#: Wall-clock gate: sharded vs in-memory on the same input.
OVERHEAD_GATE = 10.0

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_oocore.json"

#: Mining parameters: two interleaved periodic item pairs plus a burst
#: pattern, constant pattern count at any length.
PER = 2
MIN_PS = 4
MIN_REC = 2


#: Interesting intervals per pattern, at any input length.
BURSTS = 4


def _write_workload(path, transactions: int) -> None:
    """A periodic file whose mined *output* is length-independent.

    ``a b`` fires every ``PER`` ticks in exactly :data:`BURSTS` long
    runs separated by gaps, so every pattern always has ``BURSTS``
    interesting intervals — the bursts get longer as the file grows,
    the result does not.  Only then is a flat sharded peak meaningful:
    nothing but the raw data scales with the input.
    """
    per_burst, remainder = divmod(transactions, BURSTS)
    with open(path, "w", encoding="utf-8") as handle:
        ts = 0
        for burst in range(BURSTS):
            length = per_burst + (remainder if burst == BURSTS - 1 else 0)
            for _ in range(length):
                handle.write(f"{ts}\ta b\n")
                ts += PER
            ts += 3 * PER  # gap: closes the periodic run


def _best(callable_, repeats=REPEATS):
    best_seconds = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = callable_()
        seconds = time.perf_counter() - started
        if seconds < best_seconds:
            best_seconds = seconds
            value = result
    return best_seconds, value


def _measure(path):
    """In-memory and sharded peak/wall cells for one input file.

    Each peak is taken after the timed runs of the same pipeline, so
    it holds what the input costs, not what a first call in the
    process allocates once (imports, caches): about 0.95 MB, which at
    the 1x input outweighs the in-memory database itself.
    """
    in_memory_seconds, _ = _best(
        lambda: mine_recurring_patterns(
            load_transactional_database(path), PER, MIN_PS, MIN_REC
        )
    )
    with peak_memory() as in_memory_peak:
        database = load_transactional_database(path)
        in_memory_result = mine_recurring_patterns(
            database, PER, MIN_PS, MIN_REC
        )
    del database

    request = MiningRequest(
        PER, MIN_PS, MIN_REC, max_events_in_memory=SHARD_BOUND
    )
    sharded_seconds, _ = _best(
        lambda: mine_sharded_file_request(path, request)
    )
    with peak_memory() as sharded_peak:
        sharded_result, _, _, report = mine_sharded_file_request(
            path, request
        )
    assert sharded_result == in_memory_result  # identity before speed
    return {
        "transactions": report.as_dict()["sizes"]
        and sum(report.as_dict()["sizes"]),
        "shards": report.shard_count,
        "patterns": len(sharded_result),
        "stitched_runs": report.merge.stitched_runs,
        "in_memory_peak_bytes": in_memory_peak.bytes,
        "in_memory_seconds": in_memory_seconds,
        "sharded_peak_bytes": sharded_peak.bytes,
        "sharded_seconds": sharded_seconds,
    }


def test_out_of_core_scaling(record_artifact, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("oocore")
    cells = {}
    for label, transactions in (
        ("1x", BASE_TRANSACTIONS),
        (f"{SCALE_FACTOR}x", SCALE_FACTOR * BASE_TRANSACTIONS),
    ):
        path = workdir / f"periodic_{label}.tsv"
        _write_workload(path, transactions)
        cells[label] = _measure(path)

    small, big = cells["1x"], cells[f"{SCALE_FACTOR}x"]
    memory_ratio = big["sharded_peak_bytes"] / small["sharded_peak_bytes"]
    in_memory_ratio = (
        big["in_memory_peak_bytes"] / small["in_memory_peak_bytes"]
    )
    overhead = {
        label: cell["sharded_seconds"] / cell["in_memory_seconds"]
        for label, cell in cells.items()
    }

    from repro.bench.reporting import format_table

    record_artifact(
        "out_of_core",
        format_table(
            ["scale", "transactions", "shards", "peak in-mem",
             "peak sharded", "secs in-mem", "secs sharded"],
            [
                (
                    label,
                    cell["transactions"],
                    cell["shards"],
                    f"{cell['in_memory_peak_bytes']:,}",
                    f"{cell['sharded_peak_bytes']:,}",
                    f"{cell['in_memory_seconds']:.3f}",
                    f"{cell['sharded_seconds']:.3f}",
                )
                for label, cell in cells.items()
            ],
            title=(
                f"Out-of-core mining, {SCALE_FACTOR}x input growth "
                f"(shard bound {SHARD_BOUND})"
            ),
        ),
    )

    payload = {
        "schema": "repro-bench/v1",
        "benchmark": "out-of-core",
        "created_unix": time.time(),
        "params": {"per": PER, "min_ps": MIN_PS, "min_rec": MIN_REC},
        "shard_bound": SHARD_BOUND,
        "scale_factor": SCALE_FACTOR,
        "memory_gate": MEMORY_GATE,
        "overhead_gate": OVERHEAD_GATE,
        "hardware": {
            "cpu_count": os.cpu_count() or 1,
            "platform": os.uname().sysname if hasattr(os, "uname") else "?",
        },
        "cells": cells,
        "sharded_peak_ratio": memory_ratio,
        "in_memory_peak_ratio": in_memory_ratio,
        "overhead": overhead,
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    # The flat-memory gate, plus a sanity check that the workload could
    # have exposed growth (the in-memory peak must actually scale).
    assert memory_ratio <= MEMORY_GATE, payload
    assert in_memory_ratio >= SCALE_FACTOR / 2, payload
    for label, ratio in overhead.items():
        assert ratio <= OVERHEAD_GATE, (label, payload)
