"""Worker heartbeats: beat files, monitor wiring, stale detection.

The acceptance scenario for the observability layer: an injected
``hang`` fault must surface as a stale-heartbeat report on the live
monitor *before* the chunk deadline kills and retries the chunk — the
operator sees "worker N silent for Xs", then the recovery note, and
the final pattern set still matches the serial run.
"""

import io
import os

import pytest

from repro.bench.workloads import quest_workload
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import (
    HEARTBEAT_GAUGE,
    MiningMonitor,
    ProgressReporter,
)
from repro.parallel import FaultPlan, FaultSpec
from repro.parallel.faults import (
    guarded_chunk,
    install_fault_plan,
    latest_beat,
    maybe_beat,
)


@pytest.fixture
def marker_dir(tmp_path):
    """Install a marker dir in-process, restore clean state after."""
    install_fault_plan(None, str(tmp_path))
    yield str(tmp_path)
    install_fault_plan(None, None)


class TestBeatFiles:
    def test_guarded_chunk_writes_initial_beat(self, marker_dir):
        guarded_chunk(lambda chunk, payload: payload, 3, "x", 1)
        beat = latest_beat(marker_dir, 3, 1)
        assert beat is not None
        mtime, pid = beat
        assert pid == os.getpid()

    def test_first_beat_is_the_start_marker(self, marker_dir):
        """One chunk execution leaves two files: its heartbeat, which
        also marks it started, and its done marker."""
        guarded_chunk(lambda chunk, payload: payload, 3, "x", 1)
        assert sorted(os.listdir(marker_dir)) == ["beat-3-1", "done-3-1"]

    def test_maybe_beat_inside_chunk_rate_limited(self, marker_dir):
        beats = []

        def chunk_fn(chunk, payload):
            beats.append(maybe_beat(min_interval=0.0))
            beats.append(maybe_beat(min_interval=3600.0))
            return payload

        guarded_chunk(chunk_fn, 0, "x", 1)
        assert beats == [True, False]

    def test_maybe_beat_outside_chunk_is_noop(self, marker_dir):
        assert maybe_beat(min_interval=0.0) is False
        assert latest_beat(marker_dir, 0, 1) is None

    def test_latest_beat_without_marker_dir(self):
        assert latest_beat(None, 0, 1) is None

    def test_executions_have_distinct_beat_files(self, marker_dir):
        guarded_chunk(lambda c, p: p, 0, "x", 1)
        assert latest_beat(marker_dir, 0, 1) is not None
        assert latest_beat(marker_dir, 0, 2) is None


@pytest.mark.slow
class TestHangSurfacesAsStaleHeartbeat:
    """ISSUE acceptance: stale report lands before the chunk deadline."""

    PARAMS = {"per": 50, "min_ps": 0.01, "min_rec": 1}

    def test_stale_report_precedes_retry(self):
        database = quest_workload(scale=0.005)
        serial = mine_recurring_patterns(database, **self.PARAMS)

        stream = io.StringIO()
        monitor = MiningMonitor(
            reporter=ProgressReporter(stream, min_interval=0.0),
            registry=MetricsRegistry(),
            stale_after=0.4,
        )
        plan = FaultPlan.of(
            FaultSpec(chunk=0, kind="hang", execution=1, seconds=3.0)
        )
        recovered = mine_recurring_patterns(
            database, **self.PARAMS, jobs=2,
            resilience=ResilienceOptions(timeout=2.0, fault_plan=plan),
            observability=ObservabilityOptions(monitor=monitor),
        )
        monitor.close()

        # The operator-visible ordering: silence noticed, then killed.
        out = stream.getvalue()
        assert "stale heartbeat: worker" in out
        assert "silent for" in out
        assert "chunk 0 retry" in out
        assert out.index("stale heartbeat") < out.index("chunk 0 retry")

        # Structured trail: one stale report for (chunk 0, execution 1),
        # the counter incremented, heartbeat-age gauges registered.
        assert [
            (r.chunk, r.execution) for r in monitor.stale_reports
        ] == [(0, 1)]
        assert monitor.stale_reports[0].age_seconds >= 0.4
        snapshot = monitor.registry.snapshot()
        stale = [
            entry for entry in snapshot["counters"]
            if entry["name"] == "repro_worker_stale_total"
        ]
        assert stale and stale[0]["value"] == 1.0
        assert any(
            entry["name"] == HEARTBEAT_GAUGE
            for entry in snapshot["gauges"]
        )

        # Recovery must not cost correctness.
        assert list(recovered) == list(serial)
