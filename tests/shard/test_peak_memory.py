"""Peak memory of out-of-core mining stays flat as the input grows.

The workload is a long strictly-periodic file (``ts<TAB>a b`` every
tick): pattern count and candidate state are constant, so the only
thing that grows with the input is the data itself.  In-memory mining
must hold it all; ``mine_sharded_file_request`` at a fixed
``max_events_in_memory`` must not — its peak is bounded by one shard plus
output-sized state, whatever the file length.
"""

from __future__ import annotations

import pytest

from repro.core.miner import mine_recurring_patterns
from repro.core.request import MiningRequest
from repro.obs.memory import peak_memory
from repro.shard import mine_sharded_file_request
from repro.timeseries.io import load_transactional_database

#: Per-shard transaction bound used by every measurement.
SHARD_BOUND = 500

#: Absolute slack (bytes) masking allocator noise on tiny peaks.
SLACK = 256 * 1024


def _write_periodic(path, transactions: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ts in range(1, transactions + 1):
            handle.write(f"{ts}\ta b\n")


def _sharded_peak(path, transactions: int) -> int:
    with peak_memory() as measured:
        found, _, _, _ = mine_sharded_file_request(
            path,
            MiningRequest(
                1, transactions, 1, max_events_in_memory=SHARD_BOUND
            ),
        )
    # per=1, min_ps=n, min_rec=1: the single full-length run must
    # survive stitching across every shard boundary.
    assert {p.sorted_items() for p in found} == {
        ("a",), ("b",), ("a", "b")
    }
    return measured.bytes


def _run_scaling_check(small: int, big: int) -> None:
    import tempfile
    import os

    with tempfile.TemporaryDirectory() as workdir:
        small_path = os.path.join(workdir, "small.tsv")
        big_path = os.path.join(workdir, "big.tsv")
        _write_periodic(small_path, small)
        _write_periodic(big_path, big)
        peak_small = _sharded_peak(small_path, small)
        peak_big = _sharded_peak(big_path, big)
    ratio = big / small
    assert peak_big <= 1.5 * peak_small + SLACK, (
        f"out-of-core peak grew with input size: {peak_small} -> "
        f"{peak_big} bytes over a {ratio:g}x input"
    )


def test_peak_memory_flat_at_3x():
    _run_scaling_check(2_000, 6_000)


@pytest.mark.slow
def test_peak_memory_flat_at_10x():
    _run_scaling_check(3_000, 30_000)


@pytest.mark.slow
def test_in_memory_peak_grows_but_sharded_does_not(tmp_path):
    """The contrast measurement: same inputs, both pipelines.

    In-memory mining's peak must scale roughly with the input (sanity
    check that the workload *can* expose growth), while the sharded
    peak stays within the flat-profile gate.
    """
    sizes = (2_000, 20_000)
    in_memory, sharded = [], []
    for size in sizes:
        path = tmp_path / f"p{size}.tsv"
        _write_periodic(path, size)
        with peak_memory() as measured:
            database = load_transactional_database(path)
            mine_recurring_patterns(database, 1, size, 1)
        in_memory.append(measured.bytes)
        del database
        sharded.append(_sharded_peak(path, size))
    assert in_memory[1] >= 4 * in_memory[0], (
        "workload failed to stress memory; in-memory peaks: "
        f"{in_memory}"
    )
    assert sharded[1] <= 1.5 * sharded[0] + SLACK, (
        f"sharded peaks grew: {sharded}"
    )
