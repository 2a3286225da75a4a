"""Run manifests and the append-only run ledger."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.dse import MappingExplorer
from repro.errors import ModelError
from repro.telemetry.ledger import LEDGER_ENV


def _manifest(label="didactic", value=100.0, **overrides):
    build = dict(
        kind="dse",
        label=label,
        parameters={"items": 6, "seed": 0},
        config={"strategy": "random", "budget": 16},
        metrics={"candidates_per_s": value, "wall_time_s": 0.5},
        budget=16,
        wall_time_s=0.5,
    )
    build.update(overrides)
    return telemetry.RunManifest.build(**build)


class TestRunManifest:
    def test_build_stamps_provenance(self):
        manifest = _manifest()
        record = manifest.to_record()
        assert record["schema"] == telemetry.MANIFEST_SCHEMA
        assert record["package_version"]
        assert record["platform"]["python"]
        assert record["created_utc"].endswith("Z")
        assert len(manifest.run_id) == 16

    def test_round_trip_preserves_identity(self):
        manifest = _manifest()
        rebuilt = telemetry.RunManifest.from_record(manifest.to_record())
        assert rebuilt.run_id == manifest.run_id
        assert rebuilt.comparison_key == manifest.comparison_key
        assert rebuilt.metrics == manifest.metrics
        assert rebuilt.created_unix == manifest.created_unix

    def test_comparison_key_tracks_parameters_and_config(self):
        base = _manifest()
        same = _manifest()
        other_parameters = _manifest(parameters={"items": 12, "seed": 0})
        other_config = _manifest(config={"strategy": "nsga2", "budget": 16})
        assert base.comparison_key == same.comparison_key
        assert base.problem_digest != other_parameters.problem_digest
        assert base.config_digest != other_config.config_digest
        assert base.comparison_key != other_parameters.comparison_key
        assert base.comparison_key != other_config.comparison_key

    def test_metric_accessor_is_numbers_only(self):
        manifest = _manifest(metrics={"a": 1, "b": 2.5, "c": "fast", "d": True})
        assert manifest.metric("a") == 1.0
        assert manifest.metric("b") == 2.5
        assert manifest.metric("c") is None  # strings are not judged
        assert manifest.metric("d") is None  # bools are not numbers here
        assert manifest.metric("missing") is None

    def test_from_record_refuses_other_schemas(self):
        record = _manifest().to_record()
        record["schema"] = "repro.run-manifest/999"
        with pytest.raises(ModelError, match="schema"):
            telemetry.RunManifest.from_record(record)
        with pytest.raises(ModelError):
            telemetry.RunManifest.from_record({"no": "schema"})

    def test_build_rejects_json_unsafe_payloads(self):
        # Stamping the run id serialises the record, so a non-JSON-safe
        # manifest is refused at build time, before it can reach the ledger.
        with pytest.raises(ModelError, match="JSON-safe"):
            _manifest(metrics={"bad": object()})


class TestFoldSnapshot:
    def test_folds_counters_histograms_and_cache_rate(self):
        with telemetry.collect(enable=True) as scope:
            telemetry.count("dse.compile.cache_hits", 3)
            telemetry.count("dse.compile.cache_misses", 1)
            for _ in range(4):
                with telemetry.span("phase.work"):
                    pass
            snapshot = scope.snapshot()
        folded = telemetry.fold_snapshot(snapshot)
        assert folded["counters"]["dse.compile.cache_hits"] == 3
        assert folded["cache_hit_rate"] == 0.75
        summary = folded["histograms"]["phase.work"]
        assert summary["count"] == 4
        assert summary["total_ns"] >= summary["max_ns"] >= summary["p50_ns"] >= 0
        # The raw span events must NOT ride along -- a manifest is not a trace.
        assert "spans" not in folded

    def test_empty_snapshot_folds_to_empty(self):
        assert telemetry.fold_snapshot(None) == {}
        assert telemetry.fold_snapshot({}) == {}


class TestRunLedger:
    def test_append_and_load(self, tmp_path):
        ledger = telemetry.RunLedger(tmp_path / "ledger.jsonl")
        first = ledger.append(_manifest(value=100.0))
        second = ledger.append(_manifest(value=110.0))
        loaded = ledger.load()
        assert [manifest.run_id for manifest in loaded] == [first.run_id, second.run_id]
        assert ledger.skipped_lines == 0
        assert ledger.incompatible_lines == 0

    def test_missing_file_loads_empty(self, tmp_path):
        ledger = telemetry.RunLedger(tmp_path / "absent.jsonl")
        assert ledger.load() == []
        assert len(ledger) == 0

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "ledger.jsonl"
        ledger = telemetry.RunLedger(path)
        kept = ledger.append(_manifest())
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')  # a crashed append
            handle.write("not json at all\n")
        with caplog.at_level("WARNING", logger="repro.jsonl"):
            loaded = ledger.load()
        assert [manifest.run_id for manifest in loaded] == [kept.run_id]
        assert ledger.skipped_lines == 2
        assert "corrupt" in caplog.text

    def test_append_after_a_torn_tail_keeps_the_new_manifest(self, tmp_path):
        # A crash mid-append leaves the file without its final newline; the
        # next append must start a new line instead of extending the torn one.
        path = tmp_path / "ledger.jsonl"
        ledger = telemetry.RunLedger(path)
        first = ledger.append(_manifest(value=100.0))
        ledger.append(_manifest(value=110.0))
        with path.open("r+b") as handle:
            handle.truncate(path.stat().st_size - 40)
        third = ledger.append(_manifest(value=120.0))
        loaded = ledger.load()
        assert [manifest.run_id for manifest in loaded] == [first.run_id, third.run_id]
        assert ledger.skipped_lines == 1

    def test_incompatible_schema_lines_are_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "ledger.jsonl"
        ledger = telemetry.RunLedger(path)
        kept = ledger.append(_manifest())
        alien = _manifest().to_record()
        alien["schema"] = "repro.run-manifest/2"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(alien) + "\n")
        with caplog.at_level("WARNING", logger="repro.telemetry.ledger"):
            loaded = ledger.load()
        assert [manifest.run_id for manifest in loaded] == [kept.run_id]
        assert ledger.incompatible_lines == 1
        assert ledger.skipped_lines == 0
        assert "schema" in caplog.text

    def test_environment_override_moves_the_default(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere" / "ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(override))
        assert telemetry.default_ledger_path() == override
        ledger = telemetry.RunLedger()
        ledger.append(_manifest())
        assert override.exists()
        monkeypatch.delenv(LEDGER_ENV)
        assert telemetry.default_ledger_path() == telemetry.DEFAULT_LEDGER_PATH

    def test_runs_filters_by_kind_label_and_last(self, tmp_path):
        ledger = telemetry.RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(_manifest(kind="dse", label="didactic"))
        ledger.append(_manifest(kind="dse", label="chain"))
        ledger.append(_manifest(kind="campaign", label="table1-sweep"))
        ledger.append(_manifest(kind="dse", label="didactic", value=120.0))
        assert len(ledger.runs(kind="dse")) == 3
        assert len(ledger.runs(label="didactic")) == 2
        assert len(ledger.runs(kind="campaign")) == 1
        last = ledger.runs(kind="dse", label="didactic", last=1)
        assert len(last) == 1 and last[0].metric("candidates_per_s") == 120.0

    def test_group_by_key_groups_comparable_runs(self, tmp_path):
        ledger = telemetry.RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(_manifest())
        ledger.append(_manifest(value=105.0))
        ledger.append(_manifest(label="chain"))
        groups = telemetry.group_by_key(ledger.load())
        assert sorted(len(group) for group in groups.values()) == [1, 2]


class TestBenchmarkManifests:
    def test_each_sweep_backend_is_its_own_family(self, tmp_path, monkeypatch):
        """The batch-speedup benchmark runs once per sweep: entries that differ
        only in ``backend`` must never share a regression family."""
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("benchmark_conftest", path)
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ledger))
        cell = {"problem": "chain", "mode": "batch", "batch": 32, "items": 200}
        harness._append_run_manifests(
            [
                {**cell, "backend": "python", "candidates_per_second": 660.0},
                {**cell, "backend": "numpy", "candidates_per_second": 3180.0},
                {**cell, "backend": "python", "candidates_per_second": 680.0},
            ]
        )
        groups = telemetry.group_by_key(telemetry.RunLedger(ledger).load())
        rates = sorted(
            sorted(manifest.metric("candidates_per_s") for manifest in group)
            for group in groups.values()
        )
        assert rates == [[660.0, 680.0], [3180.0]]


class TestExplorerIntegration:
    def test_dse_run_appends_a_schema_valid_manifest(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        report = MappingExplorer(
            problem="didactic",
            strategy="random",
            budget=16,
            seed=3,
            parameters={"items": 6},
            ledger=ledger_path,
        ).run()
        assert report.manifest is not None
        assert report.wall_time_s > 0
        loaded = telemetry.RunLedger(ledger_path).load()
        assert len(loaded) == 1
        manifest = loaded[0]
        assert manifest.run_id == report.manifest.run_id
        assert manifest.kind == "dse"
        assert manifest.label == "didactic"
        assert manifest.config["strategy"] == "random"
        assert manifest.metric("candidates_per_s") > 0
        assert manifest.metric("wall_time_s") == pytest.approx(report.wall_time_s, abs=1e-6)
        assert manifest.metric("front_size") >= 1
        # The folded telemetry rode along even though telemetry is globally off.
        assert manifest.telemetry["counters"]["dse.evaluate.evaluations"] > 0
        assert not telemetry.enabled()

    def test_reruns_share_a_comparison_key(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        for _ in range(2):
            MappingExplorer(
                problem="didactic",
                strategy="random",
                budget=16,
                seed=3,
                parameters={"items": 6},
                ledger=ledger_path,
            ).run()
        first, second = telemetry.RunLedger(ledger_path).load()
        assert first.comparison_key == second.comparison_key
        different = MappingExplorer(
            problem="didactic",
            strategy="random",
            budget=32,  # a different budget is a different config
            seed=3,
            parameters={"items": 6},
            ledger=ledger_path,
        ).run()
        assert different.manifest.comparison_key != first.comparison_key

    def test_no_ledger_means_no_manifest(self):
        report = MappingExplorer(
            problem="didactic",
            strategy="random",
            budget=8,
            seed=3,
            parameters={"items": 4},
        ).run()
        assert report.manifest is None
        assert report.wall_time_s > 0
