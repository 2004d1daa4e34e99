"""The ``jobs > 1`` path: validation, delegation, merged telemetry."""

import pytest

from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns, run_request
from repro.core.options import ObservabilityOptions
from repro.core.request import MiningRequest
from repro.core.rp_growth import RPGrowth
from repro.datasets import paper_running_example
from repro.exceptions import ParameterError
from repro.obs.counters import MiningStats
from repro.obs.report import MiningTelemetry, validate_run_record
from repro.obs.spans import SpanCollector, span
from repro.timeseries.database import TransactionalDatabase


def _request(**kwargs) -> MiningRequest:
    return MiningRequest(per=2, min_ps=3, min_rec=2, **kwargs)


class TestValidation:
    """The request validates once; the parallel path does not again."""

    def test_rejects_unknown_engine(self):
        with pytest.raises(ParameterError, match="does not support jobs"):
            _request(engine="naive", jobs=2)

    @pytest.mark.parametrize("jobs", [0, -1, 2.0, True])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ParameterError, match="jobs"):
            _request(jobs=jobs)

    def test_default_jobs_is_positive(self):
        """``jobs=None`` means one worker, the serial engine, on every
        surface."""
        assert _request().jobs == 1
        assert _request(jobs=None).jobs == 1

    def test_facade_rejects_naive_with_jobs(self):
        with pytest.raises(ParameterError, match="naive"):
            mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                engine="naive", jobs=2,
            )

    @pytest.mark.parametrize("jobs", [0, -3, True])
    def test_facade_rejects_bad_jobs(self, jobs):
        with pytest.raises(ParameterError, match="jobs"):
            mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                jobs=jobs,
            )


class TestDelegation:
    def test_jobs_one_matches_serial_engine_exactly(self):
        database = paper_running_example()
        serial = RPGrowth(per=2, min_ps=3, min_rec=2)
        expected = serial.mine(database)
        found, stats, faults = run_request(database, _request(jobs=1))
        assert found == expected
        assert stats.as_dict() == serial.last_stats.as_dict()
        assert faults == []

    @pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
    def test_empty_database_short_circuits(self, engine):
        found, stats, faults = run_request(
            TransactionalDatabase([]), _request(engine=engine, jobs=2)
        )
        assert len(found) == 0
        assert stats.as_dict() == MiningStats().as_dict()
        assert faults == []


class TestMergedTelemetry:
    def _mine_with_spans(self, engine):
        collector = SpanCollector()
        with collector, span("run"):
            found, _, _ = run_request(
                paper_running_example(), _request(engine=engine, jobs=2)
            )
        return found, collector.roots[0]

    @pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
    def test_worker_spans_fold_under_the_mine_span(self, engine):
        found, run = self._mine_with_spans(engine)
        assert len(found) == 8
        phases = {child.name: child for child in run.children}
        assert "mine" in phases
        chunk_spans = [
            child for child in phases["mine"].children
            if child.name.startswith("chunk[")
        ]
        assert chunk_spans, "no chunk spans under mine"
        # One leaf per chunk, timed in its worker.
        assert all(child.seconds > 0 for child in chunk_spans)
        assert all(child.children == [] for child in chunk_spans)

    @pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
    def test_span_shape_at_jobs_two(self, engine):
        """The serial phases stay top-level siblings; ``mine`` holds the
        partition and one span per chunk, for every engine alike."""
        _, run = self._mine_with_spans(engine)
        top = [child.name for child in run.children]
        serial_phases = ["first_scan", "mine"]
        if engine == "rp-growth":
            serial_phases.insert(1, "tree_build")
        assert top == serial_phases
        mine = run.children[-1]
        names = [child.name for child in mine.children]
        assert names[0] == "partition"
        assert names[1:] == [f"chunk[{i}]" for i in range(len(names) - 1)]
        assert len(names) > 1

    def test_untraced_workers_build_no_collector(self, monkeypatch):
        """Regression: every worker opened a span collector and pickled
        its span tree back, traced or not.  With collectors made to
        fail, an untraced ``jobs=2`` mine must still finish with the
        serial answer; forked workers inherit the patch."""
        database = paper_running_example()
        serial = mine_recurring_patterns(database, per=2, min_ps=3, min_rec=2)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a span collector was built")

        monkeypatch.setattr(SpanCollector, "__init__", refuse)
        found = mine_recurring_patterns(
            database, per=2, min_ps=3, min_rec=2, jobs=2
        )
        assert list(found) == list(serial)
        # Not rescued by the in-process fallback: no chunk failed.
        _, _, faults = run_request(database, _request(jobs=2))
        assert faults == []

    def test_trace_record_validates_with_jobs(self):
        _, telemetry = mine_recurring_patterns(
            paper_running_example(), per=2, min_ps=3, min_rec=2,
            jobs=2, observability=ObservabilityOptions(collect_stats=True),
        )
        assert isinstance(telemetry, MiningTelemetry)
        record = telemetry.as_run_record()
        validate_run_record(record)
        assert record["params"]["jobs"] == 2
        assert record["patterns_found"] == 8

    def test_serial_trace_record_has_no_jobs_key(self):
        _, telemetry = mine_recurring_patterns(
            paper_running_example(), per=2, min_ps=3, min_rec=2,
            observability=ObservabilityOptions(collect_stats=True),
        )
        assert "jobs" not in telemetry.as_run_record()["params"]
