"""SweepPlan validation and repro-sweep/v1 telemetry round-trips."""

import json
from dataclasses import replace

import pytest

from repro.core.miner import execute_request
from repro.exceptions import ParameterError
from repro.obs import read_trace, validate_sweep_record
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.datasets import paper_running_example
from repro.sweep import SweepPlan, run_sweep


class TestPlanValidation:
    def test_grid_order_is_deterministic(self):
        plan = SweepPlan(
            pers=(2, 1), min_ps_values=(3,), min_recs=(2, 1)
        )
        assert plan.cells() == [
            (2, 3, 2), (2, 3, 1), (1, 3, 2), (1, 3, 1)
        ]
        assert plan.cell_count == 4

    @pytest.mark.parametrize(
        "axes",
        [
            dict(pers=(), min_ps_values=(3,), min_recs=(1,)),
            dict(pers=(2,), min_ps_values=(), min_recs=(1,)),
            dict(pers=(2,), min_ps_values=(3,), min_recs=()),
        ],
    )
    def test_empty_axis_rejected(self, axes):
        with pytest.raises(ParameterError, match="must not be empty"):
            SweepPlan(**axes)

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ParameterError, match="contains duplicates"):
            SweepPlan(pers=(2, 2), min_ps_values=(3,), min_recs=(1,))

    def test_bad_cell_thresholds_fail_eagerly(self):
        with pytest.raises(ParameterError):
            SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(0,))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError, match="unknown engine 'bogus'"):
            SweepPlan(
                pers=(2,), min_ps_values=(3,), min_recs=(1,),
                engine="bogus",
            )

    def test_naive_rejects_parallel_jobs(self):
        with pytest.raises(
            ParameterError, match="'naive' does not support jobs > 1"
        ):
            SweepPlan(
                pers=(2,), min_ps_values=(3,), min_recs=(1,),
                engine="naive", jobs=2,
            )

    def test_bad_jobs_and_repeats_rejected(self):
        with pytest.raises(ParameterError, match="jobs must be"):
            SweepPlan(
                pers=(2,), min_ps_values=(3,), min_recs=(1,), jobs=0
            )
        with pytest.raises(ParameterError, match="repeats must be"):
            SweepPlan(
                pers=(2,), min_ps_values=(3,), min_recs=(1,), repeats=0
            )

    def test_resilience_must_be_options_object(self):
        with pytest.raises(ParameterError, match="ResilienceOptions"):
            SweepPlan(
                pers=(2,), min_ps_values=(3,), min_recs=(1,),
                resilience={"timeout": 1.0},
            )

    def test_plan_accepts_resilience_options(self):
        plan = SweepPlan(
            pers=(2,), min_ps_values=(3,), min_recs=(1,),
            resilience=ResilienceOptions(timeout=5.0, max_retries=1),
        )
        assert plan.resilience.timeout == 5.0


class TestSweepRecord:
    def test_record_round_trips_through_trace_writer(self, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        result = run_sweep(
            paper_running_example(),
            SweepPlan(pers=(1, 2), min_ps_values=(3,), min_recs=(1, 2)),
            dataset="toy",
            observability=ObservabilityOptions(trace=str(trace)),
        )
        records = read_trace(str(trace))
        sweep_records = [
            r for r in records if r.get("schema") == "repro-sweep/v1"
        ]
        assert len(sweep_records) == 1
        record = sweep_records[0]
        validate_sweep_record(record)
        assert record == result.as_record()
        assert record["dataset"] == "toy"
        assert record["counters"]["cells_total"] == 4
        assert record["counters"]["cells_derived"] == 2
        # JSON round-trip exactly (the file is line-oriented JSON).
        assert json.loads(json.dumps(record)) == record

    def test_derived_cells_carry_their_base(self):
        result = run_sweep(
            paper_running_example(),
            SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2)),
        )
        record = result.as_record()
        derived = [c for c in record["cells"] if c["derived"]]
        assert len(derived) == 1
        assert derived[0]["derived_from"] == {
            "per": 2, "min_ps": 3, "min_rec": 1,
        }
        assert derived[0]["params"]["min_rec"] == 2

    def test_validator_rejects_tampered_records(self):
        result = run_sweep(
            paper_running_example(),
            SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1,)),
        )
        record = result.as_record()
        validate_sweep_record(record)
        broken = dict(record, schema="bogus")
        with pytest.raises(ValueError, match="repro-sweep/v1"):
            validate_sweep_record(broken)
        short = dict(record, cells=[])
        with pytest.raises(ValueError, match="cells"):
            validate_sweep_record(short)

    def test_summary_line_reports_reuse(self):
        result = run_sweep(
            paper_running_example(),
            SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2)),
        )
        line = result.summary_line()
        assert "1 mined" in line and "1 derived" in line

    def test_repeats_keep_one_result_per_cell(self):
        result = run_sweep(
            paper_running_example(),
            SweepPlan(
                pers=(2,), min_ps_values=(3,), min_recs=(2,),
                derive_min_rec=False, repeats=3,
            ),
        )
        assert result.cells_total == 1
        assert result.seconds_by_cell[(2, 3, 2)] > 0


class TestCellCounters:
    """A cell's engine counters describe the work done for that cell."""

    def test_derived_cells_count_no_engine_work(self):
        result = run_sweep(
            paper_running_example(),
            SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2, 3)),
        )
        for key in ((2, 3, 2), (2, 3, 3)):
            assert result.derived_from[key] == (2, 3, 1)
            counters = result.stats[key].as_dict()
            assert counters.pop("patterns_found") == len(result.patterns[key])
            assert set(counters.values()) == {0}, key
        record = result.as_record()
        assert [c["counters"]["erec_evaluations"] for c in record["cells"]] \
            == [result.stats[(2, 3, 1)].erec_evaluations, 0, 0]

    @pytest.mark.parametrize("derive", [True, False])
    @pytest.mark.parametrize("engine", ["rp-growth", "rp-eclat-vec"])
    def test_mined_cells_match_a_direct_mine(self, engine, derive):
        database = paper_running_example()
        plan = SweepPlan(
            pers=(1, 2), min_ps_values=(2, 3), min_recs=(1, 2),
            engine=engine, derive_min_rec=derive,
        )
        result = run_sweep(database, plan)
        mined = [k for k in plan.cells() if result.derived_from[k] is None]
        assert len(mined) == result.cells_mined
        for key in mined:
            request = replace(
                plan.cell_request(key),
                observability=ObservabilityOptions(collect_stats=True),
            )
            _found, telemetry = execute_request(request, database)
            assert result.stats[key] == telemetry.stats, key
