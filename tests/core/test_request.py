"""The unified MiningRequest/DatasetRef object and its wire form."""

import pytest

from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.core.request import DatasetRef, MiningRequest, resolve_jobs
from repro.exceptions import DataFormatError, ParameterError
from repro.parallel.faults import FaultPlan


# ----------------------------------------------------------------------
# DatasetRef
# ----------------------------------------------------------------------
class TestDatasetRef:
    def test_inline_loads_the_rows(self):
        ref = DatasetRef.inline([(1, ["a", "b"]), (2, ["a"])])
        database = ref.load()
        assert len(database) == 2
        assert ref.label == "inline[2 rows]"

    def test_from_database_round_trips(self, running_example):
        ref = DatasetRef.from_database(running_example)
        assert ref.load().digest() == running_example.digest()

    def test_file_ref(self, tmp_path, running_example):
        from repro.timeseries.io import save_transactional_database

        path = tmp_path / "db.tsv"
        save_transactional_database(running_example, str(path))
        ref = DatasetRef.file(str(path))
        assert ref.label == str(path)
        assert ref.load().digest() == running_example.digest()

    def test_workload_ref(self):
        ref = DatasetRef.named_workload("quest", scale=0.02, seed=7)
        assert ref.label == "quest-0.02"
        assert len(ref.load()) > 0

    def test_unknown_workload_raises_on_load(self):
        ref = DatasetRef.named_workload("bogus")
        with pytest.raises(ParameterError, match="unknown workload"):
            ref.load()

    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            DatasetRef(kind="url", path="http://x")

    def test_inline_requires_rows(self):
        with pytest.raises(ParameterError, match="rows"):
            DatasetRef(kind="inline")

    def test_file_requires_path(self):
        with pytest.raises(ParameterError, match="path"):
            DatasetRef(kind="file")
        # open() would read an int or a bool as a file descriptor.
        for path in ("", 1, True, 3.5, ["x"]):
            with pytest.raises(ParameterError, match="path"):
                DatasetRef(kind="file", path=path)
            with pytest.raises(ParameterError, match="path"):
                DatasetRef.from_dict({"kind": "file", "path": path})

    @pytest.mark.parametrize(
        "ref",
        [
            DatasetRef.inline([(1, ["a"]), (2, ["a", "b"])]),
            DatasetRef.file("/data/events.tsv"),
            DatasetRef.named_workload("quest", scale=0.1, seed=3),
        ],
    )
    def test_wire_round_trip(self, ref):
        assert DatasetRef.from_dict(ref.to_dict()) == ref

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ParameterError, match="object"):
            DatasetRef.from_dict(["inline"])


class TestLoadFromData:
    """``load(data)`` parses a file's bytes exactly as ``load()`` reads
    its path."""

    @staticmethod
    def _file_ref(tmp_path, data: bytes) -> DatasetRef:
        path = tmp_path / "db.tsv"
        path.write_bytes(data)
        return DatasetRef.file(str(path))

    @pytest.mark.parametrize(
        "data",
        [
            b"1\ta b\n2\tb c\n4\ta c\n",
            b"1\ta b\r\n2\tb c\r\n4\ta c\r\n",
            b"1\ta b\r2\tb c\r4\ta c",
            b"# header\n\n1\ta b\n   \n  # indented\n2\tb c\n\n",
        ],
        ids=["lf", "crlf", "lone-cr", "comments-and-blanks"],
    )
    def test_same_database(self, tmp_path, data):
        ref = self._file_ref(tmp_path, data)
        from_data, from_path = ref.load(data), ref.load()
        assert len(from_path) > 0
        assert from_data == from_path
        assert from_data.digest() == from_path.digest()

    def test_parses_the_bytes_given_not_the_path(self, tmp_path):
        ref = DatasetRef.file(str(tmp_path / "absent.tsv"))
        database = ref.load(b"1\ta b\n2\tb\n")
        assert database.timestamps_of("b") == (1, 2)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_malformed_line_same_error(self, tmp_path, newline):
        data = newline.join([b"# c", b"1\ta", b"", b"2 b", b""])
        ref = self._file_ref(tmp_path, data)
        with pytest.raises(DataFormatError) as from_path:
            ref.load()
        with pytest.raises(DataFormatError) as from_data:
            ref.load(data)
        assert str(from_data.value) == str(from_path.value)
        assert str(from_path.value).startswith("line 4:")

    def test_invalid_utf8_same_exception_type(self, tmp_path):
        data = b"1\ta\n2\t\xff\xfe\n"
        ref = self._file_ref(tmp_path, data)
        with pytest.raises(UnicodeDecodeError) as from_path:
            ref.load()
        with pytest.raises(UnicodeDecodeError) as from_data:
            ref.load(data)
        assert type(from_data.value) is type(from_path.value)

    @pytest.mark.parametrize(
        "ref",
        [
            DatasetRef.inline([(1, ["a"])]),
            DatasetRef.named_workload("quest", scale=0.01),
        ],
        ids=["inline", "workload"],
    )
    def test_only_file_refs_take_data(self, ref):
        with pytest.raises(ParameterError, match="file"):
            ref.load(b"1\ta\n")


# ----------------------------------------------------------------------
# MiningRequest validation
# ----------------------------------------------------------------------
class TestMiningRequest:
    def test_defaults(self):
        request = MiningRequest(per=2, min_ps=3)
        assert request.min_rec == 1
        assert request.engine == "rp-growth"
        assert request.jobs == 1  # None normalises to 1
        assert not request.sharded

    def test_threshold_validation_is_eager(self):
        with pytest.raises(ParameterError):
            MiningRequest(per=-1, min_ps=3)
        with pytest.raises(ParameterError):
            MiningRequest(per=2, min_ps=0)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            MiningRequest(per=2, min_ps=3, engine="bogus")

    def test_jobs_validation_matches_facade(self):
        with pytest.raises(ParameterError, match="positive int"):
            MiningRequest(per=2, min_ps=3, jobs=0)
        with pytest.raises(ParameterError, match="supports_jobs"):
            MiningRequest(per=2, min_ps=3, engine="naive", jobs=2)

    def test_resolve_jobs_is_the_shared_validator(self):
        assert resolve_jobs(None, "rp-growth") == 1
        assert resolve_jobs(3, "rp-growth") == 3
        with pytest.raises(ParameterError, match="supports_jobs"):
            resolve_jobs(2, "naive")

    def test_shards_and_max_events_exclusive(self):
        with pytest.raises(ParameterError, match="mutually exclusive"):
            MiningRequest(
                per=2, min_ps=3, shards=2, max_events_in_memory=100
            )

    def test_sharded_property(self):
        assert MiningRequest(per=2, min_ps=3, shards=2).sharded
        assert MiningRequest(
            per=2, min_ps=3, max_events_in_memory=10
        ).sharded

    def test_options_must_be_options_objects(self):
        with pytest.raises(ParameterError, match="ResilienceOptions"):
            MiningRequest(per=2, min_ps=3, resilience={"timeout": 1})
        with pytest.raises(ParameterError, match="ObservabilityOptions"):
            MiningRequest(per=2, min_ps=3, observability={"trace": "x"})

    def test_with_thresholds_revalidates(self):
        request = MiningRequest(per=2, min_ps=3)
        tightened = request.with_thresholds(min_rec=4)
        assert tightened.min_rec == 4
        assert tightened.per == 2
        with pytest.raises(ParameterError):
            request.with_thresholds(per=-5)


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_cache_key_is_the_full_content_address(self):
        request = MiningRequest(per=2, min_ps=3, min_rec=2)
        assert request.cache_key("d1") == ("d1", "rp-growth", 2, 3, 2)

    def test_column_key_drops_min_rec(self):
        loose = MiningRequest(per=2, min_ps=3, min_rec=1)
        tight = MiningRequest(per=2, min_ps=3, min_rec=5)
        assert loose.column_key("d1") == tight.column_key("d1")
        assert loose.cache_key("d1") != tight.cache_key("d1")

    def test_keys_separate_engines_and_datasets(self):
        a = MiningRequest(per=2, min_ps=3, engine="rp-growth")
        b = MiningRequest(per=2, min_ps=3, engine="rp-eclat-vec")
        assert a.column_key("d1") != b.column_key("d1")
        assert a.column_key("d1") != a.column_key("d2")


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_round_trip_preserves_everything_serialisable(self):
        request = MiningRequest(
            per=2.5,
            min_ps=0.02,
            min_rec=3,
            engine="rp-eclat-vec",
            jobs=2,
            shards=4,
            resilience=ResilienceOptions(timeout=9.0, max_retries=1),
            observability=ObservabilityOptions(
                collect_stats=True, dataset="bench"
            ),
            source=DatasetRef.named_workload("quest"),
        )
        assert MiningRequest.from_dict(request.to_dict()) == request

    def test_wire_form_is_json_serialisable(self):
        import json

        request = MiningRequest(
            per=2, min_ps=3, source=DatasetRef.inline([(1, ["a"])])
        )
        restored = MiningRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert restored.source.load().digest() == \
            request.source.load().digest()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ParameterError, match="unknown field"):
            MiningRequest.from_dict({"per": 2, "min_ps": 3, "nope": 1})
        with pytest.raises(ParameterError, match="unknown field"):
            MiningRequest.from_dict(
                {"per": 2, "min_ps": 3, "resilience": {"fault_plan": {}}}
            )
        with pytest.raises(ParameterError, match="unknown field"):
            MiningRequest.from_dict(
                {"per": 2, "min_ps": 3, "observability": {"trace": "x"}}
            )

    def test_required_fields_enforced(self):
        with pytest.raises(ParameterError, match="'per'"):
            MiningRequest.from_dict({"min_ps": 3})
        with pytest.raises(ParameterError, match="'min_ps'"):
            MiningRequest.from_dict({"per": 2})

    def test_fault_plan_refuses_to_travel(self):
        request = MiningRequest(
            per=2,
            min_ps=3,
            resilience=ResilienceOptions(
                fault_plan=FaultPlan.single("poison", chunk=0)
            ),
        )
        with pytest.raises(ParameterError, match="fault_plan"):
            request.to_dict()

    def test_sinks_refuse_to_travel(self):
        request = MiningRequest(
            per=2,
            min_ps=3,
            observability=ObservabilityOptions(trace="/tmp/t.jsonl"),
        )
        with pytest.raises(ParameterError, match="trace"):
            request.to_dict()
