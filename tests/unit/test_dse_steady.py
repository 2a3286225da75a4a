"""Unit tests for the steady-state evaluator mode (``repro.dse.compile``).

The soundness story under test: steady mode is *bit-identical* to replay
on every problem (extrapolating only after the certificate holds and
falling back otherwise), the gate refuses exactly the structures where
the certificate cannot hold, and the evaluator mode stays execution
strategy -- out of scenario digests and explorer checkpoints, but
recorded per job for provenance.
"""

import copy
import dataclasses

import pytest

from repro import telemetry
from repro.campaign import JobResult, ScenarioSpec
from repro.dse import (
    EVALUATOR_MODES,
    CompiledProblem,
    MappingExplorer,
    evaluate_candidate,
    get_problem,
)
from repro.dse.compile import _CACHE
from repro.dse.engine import lower_template
from repro.errors import CampaignError, ModelError


@pytest.fixture(autouse=True)
def clear_compile_cache():
    _CACHE.clear()
    yield
    _CACHE.clear()


def assert_same_objectives(steady, replay):
    """Every objective field identical (wall clock and scoring path aside)."""
    for field in dataclasses.fields(steady):
        if field.name in ("wall_seconds", "evaluator", "backend"):
            continue
        assert getattr(steady, field.name) == getattr(replay, field.name), field.name


def candidates_of(name, params, limit=10):
    return list(get_problem(name).space(params).enumerate_candidates(limit=limit))


class TestSteadyBitIdentity:
    @pytest.mark.parametrize("name", ["didactic-periodic", "chain-periodic"])
    def test_steady_matches_replay_on_periodic_problems(self, name):
        params = {"items": 14}
        problem = get_problem(name)
        compiled = CompiledProblem(problem, params)
        extrapolated = 0
        for candidate in candidates_of(name, params, limit=10):
            steady = compiled.evaluate(candidate, evaluator="auto")
            replay = compiled.evaluate(candidate, evaluator="replay")
            if steady.feasible:
                extrapolated += steady.evaluator == "steady"
            assert_same_objectives(steady, replay)
        assert extrapolated > 0  # the mode actually engaged, not all fallback

    def test_steady_matches_the_from_scratch_build(self):
        params = {"items": 12}
        problem = get_problem("didactic-periodic")
        candidate = problem.space(params).default_candidate()
        steady = CompiledProblem(problem, params).evaluate(candidate, evaluator="auto")
        scratch = evaluate_candidate(problem, candidate, params, compiled=False)
        assert steady.evaluator == "steady"
        assert_same_objectives(steady, scratch)

    def test_auto_behaves_like_steady_where_certified(self):
        params = {"items": 12}
        problem = get_problem("didactic-periodic")
        compiled = CompiledProblem(problem, params)
        candidate = problem.space(params).default_candidate()
        evaluation = compiled.evaluate(candidate, evaluator="auto")
        # A steady-mode program is swept by the reference, and says so.
        assert (evaluation.evaluator, evaluation.backend) == ("steady", "python")

    def test_unknown_mode_is_rejected(self):
        problem = get_problem("didactic")
        candidate = problem.space({"items": 4}).default_candidate()
        with pytest.raises(ModelError, match="unknown evaluator mode"):
            CompiledProblem(problem, {"items": 4}).evaluate(candidate, evaluator="bogus")
        with pytest.raises(ModelError, match="unknown evaluator mode"):
            evaluate_candidate(problem, candidate, {"items": 4}, evaluator="bogus")
        assert "bogus" not in EVALUATOR_MODES

    def test_steady_is_a_record_value_not_a_mode(self):
        # "auto" is the one name of the steady path; a request for "steady"
        # is rejected wherever a mode is taken.
        assert EVALUATOR_MODES == ("replay", "auto")
        problem = get_problem("didactic-periodic")
        candidate = problem.space({"items": 4}).default_candidate()
        with pytest.raises(ModelError, match="unknown evaluator mode"):
            CompiledProblem(problem, {"items": 4}).evaluate(candidate, evaluator="steady")
        with pytest.raises(ModelError, match="unknown evaluator mode"):
            MappingExplorer(problem="didactic-periodic", evaluator="steady")
        with pytest.raises(CampaignError, match="unknown evaluator mode"):
            ScenarioSpec("dse", {}, evaluator="steady")


class TestFallbackTriggers:
    def test_data_dependent_durations_fall_back_to_replay(self):
        # The didactic problem's workload durations vary per iteration, so
        # no tabulated stream is provably constant: every candidate replays.
        params = {"items": 6}
        compiled = CompiledProblem(get_problem("didactic"), params)
        with telemetry.collect(enable=True) as scope:
            for candidate in candidates_of("didactic", params, limit=4):
                evaluation = compiled.evaluate(candidate, evaluator="auto")
                assert evaluation.feasible
                assert evaluation.evaluator == "replay"
            counters = scope.snapshot()["counters"]
        assert counters["dse.steady.fallbacks"] == 4
        assert counters["dse.steady.fallback.data_dependent"] == 4

    def test_aperiodic_stimulus_falls_back_to_replay(self, monkeypatch):
        params = {"items": 8}
        problem = get_problem("didactic-periodic")
        compiled = CompiledProblem(problem, params)
        candidate = problem.space(params).default_candidate()
        assert compiled.evaluate(candidate, evaluator="auto").evaluator == "steady"
        # Break the periodicity promise of one stimulus: once the template
        # is lowered again, every candidate must replay.
        relation = next(iter(compiled.stimuli))
        monkeypatch.setattr(
            compiled.stimuli[relation], "offer_period_ps", lambda: None
        )
        compiled._program = lower_template(compiled.template, compiled.stimuli)
        with telemetry.collect(enable=True) as scope:
            evaluation = compiled.evaluate(candidate, evaluator="auto")
            counters = scope.snapshot()["counters"]
        assert evaluation.evaluator == "replay"
        assert counters["dse.steady.fallback.aperiodic_stimulus"] == 1

    def test_short_horizon_exhausts_without_extrapolating(self):
        # Too few iterations to certify the drift: the steady path simply
        # replays to the end (still bit-identical, still mode "steady").
        params = {"items": 3}
        problem = get_problem("didactic-periodic")
        compiled = CompiledProblem(problem, params)
        candidate = problem.space(params).default_candidate()
        with telemetry.collect(enable=True) as scope:
            steady = compiled.evaluate(candidate, evaluator="auto")
            counters = scope.snapshot()["counters"]
        replay = compiled.evaluate(candidate, evaluator="replay")
        assert counters.get("dse.steady.exhausted", 0) == 1
        assert counters.get("dse.steady.extrapolations", 0) == 0
        assert_same_objectives(steady, replay)


class TestTemplatePatch:
    def test_candidates_patch_the_template_without_changing_it(self):
        params = {"items": 6}
        compiled = CompiledProblem(get_problem("didactic-periodic"), params)
        candidates = candidates_of("didactic-periodic", params, limit=6)
        template = copy.deepcopy(compiled._program)
        with telemetry.collect(enable=True) as scope:
            evaluations = [
                compiled.evaluate(candidate, evaluator="auto")
                for candidate in candidates
            ]
            counters = scope.snapshot()["counters"]
        assert all(evaluation.feasible for evaluation in evaluations)
        # Every candidate writes its own patch over the template lowered
        # once; the shared tables come out as they went in.
        assert counters["dse.compile.specializations"] == len(candidates)
        assert compiled._program == template

    def test_warm_problem_matches_a_fresh_one(self):
        params = {"items": 10}
        problem = get_problem("didactic-periodic")
        warm = CompiledProblem(problem, params)
        candidates = candidates_of("didactic-periodic", params, limit=6)
        for candidate in candidates:  # warm: patched after the previous ones
            warm_eval = warm.evaluate(candidate, evaluator="auto")
            cold_eval = CompiledProblem(problem, params).evaluate(
                candidate, evaluator="auto"
            )
            assert_same_objectives(warm_eval, cold_eval)


class TestEvaluatorModeIsExecutionStrategy:
    def test_scenario_digest_ignores_the_mode(self):
        base = ScenarioSpec("dse", {"problem": "didactic", "items": 4})
        steady = ScenarioSpec(
            "dse", {"problem": "didactic", "items": 4}, evaluator="auto"
        )
        assert steady.digest() == base.digest()
        assert "evaluator" not in steady.canonical()

    def test_scenario_spec_validates_the_mode(self):
        with pytest.raises(CampaignError, match="unknown evaluator mode"):
            ScenarioSpec("dse", {}, evaluator="warp")

    def test_job_payload_round_trips_the_mode(self):
        spec = ScenarioSpec("dse", {"problem": "didactic"}, evaluator="auto")
        payload = spec.job(0).payload()
        assert payload["evaluator"] == "auto"
        from repro.campaign.spec import JobSpec

        job = JobSpec.from_payload(payload)
        assert job.spec.evaluator == "auto"
        # Legacy payloads (no evaluator key) read as replay.
        del payload["evaluator"]
        assert JobSpec.from_payload(payload).spec.evaluator == "replay"

    def test_job_result_records_the_mode_as_provenance(self):
        result = JobResult(
            job_digest="d" * 64,
            scenario="dse",
            parameters={},
            replication=0,
            seed=0,
            evaluator="steady",
        )
        record = result.to_record()
        assert record["evaluator"] == "steady"
        assert JobResult.from_record(record).evaluator == "steady"
        # Legacy records (no evaluator key) read back as None.
        del record["evaluator"]
        assert JobResult.from_record(record).evaluator is None

    def test_explorer_validates_and_keeps_the_mode_out_of_checkpoints(self):
        with pytest.raises(ModelError, match="unknown evaluator mode"):
            MappingExplorer(problem="didactic", evaluator="warp")
        explorer = MappingExplorer(
            problem="didactic", evaluator="auto", parameters={"items": 4}
        )
        resolved = explorer.problem.parameters(explorer.parameters)
        assert "evaluator" not in explorer._config(resolved)
