"""Batched array evaluation: identity, provenance, and fallback properties.

The acceptance property: ``evaluate_batch(candidates)`` is
**bit-identical** to mapping ``evaluate_candidate`` over the same list --
every field, every backend, every problem, with and without the compiled
path -- the explorer's round records equal the ``dse-eval`` job executor's,
and the ``backend`` provenance field threads through records without
disturbing identity.
"""

import dataclasses
import itertools
import json
import warnings

import pytest

from repro.campaign import ResultStore
from repro.campaign.results import JobResult
from repro.campaign.registry import default_registry
from repro.campaign.runner import run_job
from repro.campaign.spec import ScenarioSpec
from repro.dse import MappingExplorer, compiled_problem, get_problem, problem_names
from repro.dse import compile as compile_module
from repro.dse.engine import numpy_available, resolve_backend
from repro.dse.evaluate import (
    CandidateEvaluation,
    evaluate_candidate,
    evaluate_candidates,
)
from repro.dse.scenario import DSE_SCENARIO, execute_dse_job
from repro.errors import CampaignError, ModelError

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: Small parameterisations keep the whole matrix under a few seconds.
PROBLEMS = {
    "didactic": {"items": 4},
    "fork": {"items": 4},
    "lte": {"items": 3, "subframes": 2},
}


def candidates_of(problem, parameters, count=8):
    """A deterministic slice of the problem's space (allocations + orders)."""
    space = problem.space(parameters)
    return list(itertools.islice(space.enumerate_candidates(), count))


def assert_identical(fast, slow, skip=("wall_seconds",)):
    for field in dataclasses.fields(CandidateEvaluation):
        if field.name in skip:
            continue
        assert getattr(fast, field.name) == getattr(slow, field.name), field.name


class TestBatchMatchesSingle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_batch_is_bit_identical_to_mapped_single(self, name, backend):
        problem = get_problem(name)
        parameters = PROBLEMS[name]
        candidates = candidates_of(problem, parameters)
        batched = evaluate_candidates(problem, candidates, parameters, backend=backend)
        singles = [
            evaluate_candidate(problem, candidate, parameters, backend=backend)
            for candidate in candidates
        ]
        assert len(batched) == len(candidates)
        for fast, slow in zip(batched, singles):
            assert_identical(fast, slow)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_the_uncompiled_path(self, backend, monkeypatch):
        """REPRO_DSE_COMPILE=0 interop: the array sweep equals the
        from-scratch build, field for field (backend provenance aside)."""
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        candidates = candidates_of(problem, parameters)
        batched = evaluate_candidates(problem, candidates, parameters, backend=backend)
        monkeypatch.setenv("REPRO_DSE_COMPILE", "0")
        explicit = [
            evaluate_candidate(problem, candidate, parameters)
            for candidate in candidates
        ]
        for fast, slow in zip(batched, explicit):
            assert_identical(fast, slow, skip=("wall_seconds", "backend"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infeasible_candidates_survive_batching(self, backend):
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        # A wide slice of the space is guaranteed to contain infeasible
        # points (resource-starved allocations); they must come back in
        # place, reason for reason, not be dropped from the batch.
        candidates = candidates_of(problem, parameters, count=40)
        batched = evaluate_candidates(problem, candidates, parameters, backend=backend)
        statuses = [evaluation.infeasible for evaluation in batched]
        assert any(status is not None for status in statuses)
        assert any(status is None for status in statuses)
        for fast, slow in zip(
            batched,
            [
                evaluate_candidate(problem, candidate, parameters, backend=backend)
                for candidate in candidates
            ],
        ):
            assert_identical(fast, slow)

    def test_backend_provenance_is_recorded(self):
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        candidates = candidates_of(problem, parameters, count=2)
        for backend in BACKENDS:
            scored = evaluate_candidates(
                problem, candidates, parameters, backend=backend
            )
            assert {evaluation.backend for evaluation in scored} == {backend}
            # Provenance, not an objective: metrics() must not leak it.
            assert "backend" not in scored[0].metrics()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_output_instants_keeps_provenance(self, backend, monkeypatch):
        """A sweep that emits no output instants is infeasible, but the
        record still names the backend and path that scored it (a numpy
        batch must not be stored as python and trip the mixed-backend
        warning)."""
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        candidates = candidates_of(problem, parameters, count=3)
        compiled = compiled_problem(problem, parameters)
        relation = compiled.application.external_outputs()[0].name

        def silent_sweep(programs, backend):
            return [({}, {relation: []}, {}) for _ in programs]

        monkeypatch.setattr(compile_module, "replay_batch", silent_sweep)
        scored = compiled.evaluate_batch(candidates, backend=backend)
        silent = [e for e in scored if e.infeasible and "no output" in e.infeasible]
        assert silent
        assert {(e.backend, e.evaluator) for e in silent} == {(backend, "replay")}

        steady = compiled._assemble(
            candidates[0], {}, {}, {relation: []}, 0.0,
            evaluator="steady", backend=backend,
        )
        assert steady.infeasible == "the model produced no output instants"
        assert (steady.backend, steady.evaluator) == (backend, "steady")


class TestResolveBackend:
    def test_explicit_request_wins(self):
        assert resolve_backend("python") == "python"

    def test_auto_detects(self):
        assert resolve_backend("auto") == ("numpy" if numpy_available() else "python")
        assert resolve_backend(None) == resolve_backend("auto")

    def test_environment_variable_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_BACKEND", "python")
        assert resolve_backend(None) == "python"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ModelError):
            resolve_backend("cuda")

    def test_explorer_rejects_bad_backend_up_front(self):
        with pytest.raises(ModelError):
            MappingExplorer("didactic", backend="fortran")


class TestCampaignPlumbing:
    def spec(self, **overrides):
        parameters = {"problem": "didactic", "items": 4, "seed": 0}
        problem = get_problem("didactic")
        candidate = candidates_of(problem, {"items": 4}, count=1)[0]
        parameters.update(candidate.to_parameters())
        return ScenarioSpec(scenario=DSE_SCENARIO, parameters=parameters, **overrides)

    def test_backend_is_excluded_from_the_digest(self):
        plain = self.spec()
        for backend in ("auto", "python", "numpy"):
            assert self.spec(backend=backend).digest() == plain.digest()
            assert self.spec(backend=backend).job(0).digest() == plain.job(0).digest()

    def test_unknown_backend_is_rejected_by_the_spec(self):
        with pytest.raises(CampaignError):
            self.spec(backend="cuda")

    def test_backend_round_trips_through_the_payload(self):
        from repro.campaign.spec import JobSpec

        job = self.spec(backend="python").job(0)
        assert JobSpec.from_payload(job.payload()) == job

    def _payloads(self, count=6, backend="python"):
        problem = get_problem("didactic")
        payloads = []
        for candidate in candidates_of(problem, {"items": 4}, count=count):
            parameters = {"problem": "didactic", "items": 4, "seed": 0}
            parameters.update(candidate.to_parameters())
            spec = ScenarioSpec(
                scenario=DSE_SCENARIO, parameters=parameters, backend=backend
            )
            payloads.append(spec.job(0).payload())
        return payloads


def executor_record(job):
    """The ``dse-eval`` executor's record of ``job``, called as ``run_job`` calls it."""
    parameters = dict(default_registry().get(DSE_SCENARIO).defaults)
    parameters.update(job.spec.parameters)
    parameters["seed"] = job.seed
    return execute_dse_job(job, parameters)


class TestExplorerRecords:
    """The explorer scores its own rounds; its records are the executor's."""

    @pytest.mark.parametrize("name", problem_names())
    def test_round_records_equal_the_job_executor_records(self, name):
        store = ResultStore.in_memory()
        report = MappingExplorer(
            name,
            strategy="random",
            budget=6,
            seed=1,
            parameters={"items": 4},
            store=store,
            record_instants=True,
            evaluator="auto",
        ).run()
        assert report.errors == 0 and report.evaluated == 6
        for result in report.results:
            job = ScenarioSpec(
                DSE_SCENARIO, result.parameters, record_instants=True, evaluator="auto"
            ).job(0)
            assert job.digest() == result.job_digest
            stored, reference = store.get(job.digest()), executor_record(job)
            assert set(stored) == set(reference)
            for key in reference:
                if key != "equivalent_wall_seconds":
                    assert stored[key] == reference[key], key

    @pytest.mark.skipif(
        not numpy_available(), reason="without numpy every request resolves to python"
    )
    def test_single_job_records_the_backend_the_explorer_would(self, monkeypatch):
        """With no backend requested, a single job is a batch of one: it must
        record the backend the explorer's round batches resolve to, or a
        store of one default-backend run mixes backends and ``dse front``
        warns."""
        monkeypatch.delenv("REPRO_DSE_BACKEND", raising=False)
        report = MappingExplorer(
            "didactic", budget=4, seed=1, parameters={"items": 4}
        ).run()
        assert report.evaluated == 4
        for result in report.results:
            job = ScenarioSpec(DSE_SCENARIO, result.parameters).job(0)
            assert job.spec.backend is None
            single = executor_record(job)
            assert single["backend"] == result.backend == resolve_backend(None)


class TestLegacyRecords:
    def test_pre_backend_rows_load_without_warnings(self, tmp_path):
        """A store written before the ``backend`` field existed (PR < 10)
        must load silently: no warnings, ``backend`` simply ``None``."""
        payloads = TestCampaignPlumbing()._payloads(count=1)
        record = run_job(payloads[0])
        legacy = {key: value for key, value in record.items() if key != "backend"}
        path = tmp_path / "legacy.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"digest": legacy["job_digest"], "record": legacy}) + "\n"
            )
        store = ResultStore(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = JobResult.from_record(store.get(legacy["job_digest"]))
        assert loaded.backend is None
        assert loaded.metrics == JobResult.from_record(record).metrics

    def test_explorer_reuses_legacy_rows(self, tmp_path):
        """Records cached without a backend serve a backend-pinned run:
        the field is provenance, never part of the cache key."""
        store_path = tmp_path / "store.jsonl"

        def explore(backend):
            return MappingExplorer(
                "didactic",
                budget=8,
                seed=3,
                parameters={"items": 4},
                store=ResultStore(store_path),
                backend=backend,
            ).run()

        first = explore(None)
        assert first.evaluated == 8
        # Strip the backend field from every stored row, as a pre-PR-10
        # store would look, then re-run pinned to a backend.
        rows = []
        with store_path.open(encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                row["record"].pop("backend", None)
                rows.append(row)
        with store_path.open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        second = explore("python")
        assert second.evaluated == 0  # every candidate served from the store
        assert second.front.digests() == first.front.digests()
