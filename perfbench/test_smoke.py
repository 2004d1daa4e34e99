"""Smoke test of the benchmark itself, on a tiny input.

Runs every workload of ``BENCHMARK.json`` in both modes at Quest scale
0.01 for about a second of ops, and checks that the run is correct, that
every metric is printed by name with its unit, that the JSON line holds
exactly the declared metrics, and that the layers on each workload's
path did measurable work.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Printed beyond the declared metrics, per workload and mode.
EXTRA = {
    ("service-mix", 0): ("hit_latency_p50_s", "miss_latency_p50_s",
                         "derived_latency_p50_s"),
}
#: Layers that must have done work on each workload's path.
ON_PATH = {
    "cli-mine": ("cli.import_s", "timeseries.load_s", "core.mine_s",
                 "core.tree_build_s", "core.grow_s", "patterns_io.save_s",
                 "core.erec_evaluations"),
    "cli-mine-jobs2": ("cli.import_s", "timeseries.load_s", "core.mine_s",
                       "parallel.partition_s", "parallel.mine_s",
                       "parallel.chunks", "parallel.chunks_s"),
    "service-mix": ("service.execute_s.hit", "service.execute_s.miss",
                    "service.execute_s.derived", "service.wait_s",
                    "service.load_s", "timeseries.digest_s",
                    "timeseries.columnar_s", "core.mine_s",
                    "service.cache_hit", "service.cache_miss",
                    "service.cache_derived"),
}


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared

    # The table: ``name value unit [note]``, one metric a line.
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()[:3]
            printed[name] = (float(value), unit)
    for name in [*declared, *EXTRA.get((workload, trace), ()),
                 "error_ratio"]:
        assert name in printed, f"{name} not printed"
        assert printed[name][1], f"{name} printed without a unit"
    assert printed["error_ratio"][0] == 0
    if trace:
        for name in ON_PATH[workload]:
            assert printed[name][0] > 0, f"{name} did no work"
