"""ParallelMiner wrapper: validation, delegation, merged telemetry."""

import pytest

from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.core.rp_growth import RPGrowth
from repro.datasets import paper_running_example
from repro.exceptions import ParameterError
from repro.obs.report import MiningTelemetry, validate_run_record
from repro.obs.spans import SpanCollector, span
from repro.parallel import ParallelMiner, default_jobs
from repro.timeseries.database import TransactionalDatabase


class TestValidation:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ParameterError, match="not parallel-capable"):
            ParallelMiner(per=2, min_ps=3, min_rec=2, engine="naive")

    @pytest.mark.parametrize("jobs", [0, -1, 2.0, True])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ParameterError, match="jobs"):
            ParallelMiner(per=2, min_ps=3, min_rec=2, jobs=jobs)

    def test_rejects_bad_chunks_per_job(self):
        with pytest.raises(ParameterError, match="chunks_per_job"):
            ParallelMiner(per=2, min_ps=3, min_rec=2, jobs=2,
                          chunks_per_job=0)

    def test_default_jobs_is_positive(self):
        assert default_jobs() >= 1

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
        miner = ParallelMiner(per=2, min_ps=3, min_rec=2, jobs=1)
        assert miner.mine(database) == expected
        assert miner.last_stats is not None
        assert (
            miner.last_stats.as_dict() == serial.last_stats.as_dict()
        )

    @pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
    def test_empty_database_short_circuits(self, engine):
        miner = ParallelMiner(
            per=2, min_ps=3, min_rec=1, engine=engine, jobs=2
        )
        assert len(miner.mine(TransactionalDatabase([]))) == 0

    def test_explicit_mp_context_is_honoured(self):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        miner = ParallelMiner(
            per=2, min_ps=3, min_rec=2, jobs=2, mp_context=context
        )
        assert len(miner.mine(paper_running_example())) == 8

    def test_start_method_name_is_accepted(self):
        miner = ParallelMiner(
            per=2, min_ps=3, min_rec=2, jobs=2, mp_context="fork"
        )
        assert len(miner.mine(paper_running_example())) == 8


class TestMergedTelemetry:
    def _mine_with_spans(self, engine):
        miner = ParallelMiner(
            per=2, min_ps=3, min_rec=2, engine=engine, jobs=2
        )
        collector = SpanCollector()
        with collector, span("run"):
            found = miner.mine(paper_running_example())
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
        assert chunk_spans, "worker spans were not grafted back"
        assert all(child.seconds >= 0 for child in chunk_spans)

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
