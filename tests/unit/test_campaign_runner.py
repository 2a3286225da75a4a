"""Unit tests for the campaign runner (inline execution, caching, errors)."""

import os

import pytest

from repro.campaign import (
    CampaignRunner,
    JobResult,
    ResultStore,
    ScenarioSpec,
    run_job,
)
from repro.campaign import runner as runner_module
from repro.errors import CampaignError

SMALL_TABLE1 = {"items": 25, "seed": 2014, "stages": 1}


def small_spec(**kwargs) -> ScenarioSpec:
    parameters = dict(SMALL_TABLE1)
    parameters.update(kwargs.pop("parameters", {}))
    return ScenarioSpec("table1-sweep", parameters, **kwargs)


class TestRunJob:
    def test_successful_job_record(self):
        record = run_job(small_spec().job(0).payload())
        result = JobResult.from_record(record)
        assert result.ok
        assert result.outputs_identical
        assert result.iterations == 25
        assert result.seed == 2014
        assert result.label == "Example 1"
        assert result.instants_digest is not None
        assert result.output_instants is None  # record_instants defaults to False
        assert result.theoretical_ratio == pytest.approx(3.0)

    def test_record_instants_keeps_the_sequence(self):
        record = run_job(small_spec(record_instants=True).job(0).payload())
        result = JobResult.from_record(record)
        assert result.output_instants is not None
        assert len(result.output_instants) == 25
        assert all(isinstance(value, int) for value in result.output_instants)

    def test_failure_becomes_an_error_record(self):
        spec = ScenarioSpec(
            "fig5-sweep",
            {"items": 10, "x_size": 6, "seed": 7, "nodes": 2},  # graph larger than 2 nodes
        )
        result = JobResult.from_record(run_job(spec.job(0).payload()))
        assert not result.ok
        assert "ModelError" in result.error

    def test_malformed_payload_becomes_an_error_record(self):
        result = JobResult.from_record(run_job({"scenario": "table1-sweep"}))
        assert not result.ok
        assert "missing field" in result.error
        result = JobResult.from_record(run_job({}))
        assert not result.ok

    def test_unknown_scenario_becomes_an_error_record(self):
        result = JobResult.from_record(
            run_job(ScenarioSpec("missing", {}).job(0).payload())
        )
        assert not result.ok
        assert "unknown scenario" in result.error

    def test_error_rows_keep_the_full_column_set(self):
        record = run_job(
            ScenarioSpec("fig5-sweep",
                         {"items": 10, "x_size": 6, "seed": 7, "nodes": 2}).job(0).payload()
        )
        failed_row = JobResult.from_record(record).to_record()
        failed = JobResult.from_record(failed_row).as_row()
        succeeded = JobResult.from_record(
            run_job(small_spec().job(0).payload())
        ).as_row()
        assert set(succeeded) == set(failed)


class TestCustomRegistry:
    def test_runner_executes_scenarios_from_a_custom_registry(self):
        from repro.campaign import Scenario, ScenarioRegistry
        from repro.campaign.registry import _plan_table1

        registry = ScenarioRegistry()
        registry.register(
            Scenario(
                name="mine",
                description="custom family",
                planner=_plan_table1,
                defaults={"items": 20, "seed": 3, "stages": 1},
            )
        )
        # jobs > 1: custom registries still run (in-process, see _execute)
        report = CampaignRunner(registry=registry, jobs=4).run_scenario("mine")
        assert report.ok
        assert report.results[0].label == "Example 1"
        assert report.results[0].seed == 3


class TestRunnerInline:
    def test_requires_at_least_one_worker(self):
        with pytest.raises(CampaignError):
            CampaignRunner(jobs=0)

    def test_unknown_scenario_fails_before_execution(self):
        with pytest.raises(CampaignError):
            CampaignRunner().run([ScenarioSpec("missing", {})])

    def test_results_in_job_order(self):
        specs = [small_spec(), small_spec(parameters={"stages": 2})]
        report = CampaignRunner(jobs=1).run(specs)
        assert [result.label for result in report.results] == ["Example 1", "Example 2"]
        assert report.simulated == 2 and report.cache_hits == 0
        assert report.ok

    def test_stochastic_chain_stages_are_decorrelated(self):
        from repro.generator import stochastic_chain_workloads

        stage1 = stochastic_chain_workloads(2014, stage=1)
        stage2 = stochastic_chain_workloads(2014, stage=2)
        samples1 = [stage1["Ti1"].duration(k, None) for k in range(20)]
        samples2 = [stage2["Ti1"].duration(k, None) for k in range(20)]
        assert samples1 != samples2  # stages draw independent sequences
        # ... but the same (seed, stage) reproduces exactly (both models agree)
        again = stochastic_chain_workloads(2014, stage=1)
        assert samples1 == [again["Ti1"].duration(k, None) for k in range(20)]

    def test_replications_derive_distinct_seeds(self):
        report = CampaignRunner(jobs=1).run(
            [ScenarioSpec("stochastic-chain",
                          {"items": 20, "stages": 1, "low_us": 1.0, "high_us": 5.0,
                           "seed": 2014},
                          replications=3)]
        )
        assert report.ok
        seeds = [result.seed for result in report.results]
        assert seeds[0] == 2014
        assert len(set(seeds)) == 3
        digests = {result.instants_digest for result in report.results}
        assert len(digests) == 3  # different seeds, different trajectories


class TestRunnerCaching:
    def test_second_run_is_served_from_the_store(self):
        store = ResultStore.in_memory()
        spec = small_spec()
        first = CampaignRunner(store=store, jobs=1).run([spec])
        assert (first.simulated, first.cache_hits) == (1, 0)
        second = CampaignRunner(store=store, jobs=1).run([spec])
        assert (second.simulated, second.cache_hits) == (0, 1)
        assert second.results[0].cached
        assert second.results[0].instants_digest == first.results[0].instants_digest

    def test_changed_parameters_miss_the_cache(self):
        store = ResultStore.in_memory()
        CampaignRunner(store=store, jobs=1).run([small_spec()])
        report = CampaignRunner(store=store, jobs=1).run(
            [small_spec(parameters={"items": 26})]
        )
        assert (report.simulated, report.cache_hits) == (1, 0)

    def test_extra_replications_reuse_existing_ones(self):
        store = ResultStore.in_memory()
        CampaignRunner(store=store, jobs=1).run([small_spec(replications=2)])
        report = CampaignRunner(store=store, jobs=1).run([small_spec(replications=3)])
        assert (report.simulated, report.cache_hits) == (1, 2)

    def test_instantless_cache_entry_is_upgraded_when_instants_requested(self):
        store = ResultStore.in_memory()
        CampaignRunner(store=store, jobs=1).run([small_spec()])
        report = CampaignRunner(store=store, jobs=1).run(
            [small_spec(record_instants=True)]
        )
        assert (report.simulated, report.cache_hits) == (1, 0)
        assert report.results[0].output_instants is not None
        # ... and the upgraded entry now serves instant-recording runs
        again = CampaignRunner(store=store, jobs=1).run([small_spec(record_instants=True)])
        assert (again.simulated, again.cache_hits) == (0, 1)

    def test_one_fsync_per_run_with_fresh_results_and_none_when_all_cached(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real_fsync = os.fsync

        def fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / "results.jsonl"
        specs = [small_spec(replications=3), small_spec(parameters={"items": 26})]
        first = CampaignRunner(store=ResultStore(path), jobs=1).run(specs)
        assert (first.simulated, len(calls)) == (4, 1)
        second = CampaignRunner(store=ResultStore(path), jobs=1).run(specs)
        assert (second.cache_hits, len(calls)) == (4, 1)

    def test_error_results_are_not_cached(self):
        store = ResultStore.in_memory()
        spec = ScenarioSpec("fig5-sweep", {"items": 10, "x_size": 6, "seed": 7, "nodes": 2})
        CampaignRunner(store=store, jobs=1).run([spec])
        assert len(store) == 0
        report = CampaignRunner(store=store, jobs=1).run([spec])
        assert report.simulated == 1  # retried, not served from cache

    def test_accuracy_failures_surface_in_report(self, monkeypatch):
        original = runner_module.run_job

        def lossy(payload, registry=None):
            record = original(payload, registry)
            record["outputs_identical"] = False
            record["mismatching_outputs"] = 3
            return record

        monkeypatch.setattr(runner_module, "run_job", lossy)
        report = CampaignRunner(jobs=1).run([small_spec()])
        assert not report.ok
        assert report.results[0].mismatching_outputs == 3
