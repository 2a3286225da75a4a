"""Batched array evaluation: identity, provenance, and fallback properties.

The acceptance property: ``evaluate_batch(candidates)`` is
**bit-identical** to mapping ``evaluate_candidate`` over the same list --
every field, on either sweep, every problem, with and without the compiled
path -- the explorer's round records equal the ``dse-eval`` job executor's,
and the ``backend`` provenance field names the sweep that produced each
record without disturbing identity.  The ``backend`` fixture (repository
``conftest.py``) runs a case once on the reference sweep and once on the
compiled kernel.
"""

import dataclasses
import itertools
import json
import warnings

import pytest

from repro import telemetry
from repro.campaign import ResultStore
from repro.campaign.results import INSTANTS_DIGEST_PREFIX, JobResult, instants_digest
from repro.campaign.registry import default_registry
from repro.campaign.runner import run_job
from repro.campaign.spec import JobSpec, ScenarioSpec
from repro.dse import MappingExplorer, compiled_problem, get_problem, problem_names
from repro.dse import compile as compile_module
from repro.dse import engine
from repro.dse.engine import numpy_available, resolve_backend
from repro.dse.evaluate import (
    CandidateEvaluation,
    evaluate_candidate,
    evaluate_candidates,
)
from repro.dse.scenario import DSE_SCENARIO, evaluation_record, execute_dse_job
from repro.errors import CampaignError, ModelError

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
    @pytest.mark.parametrize("backend", ["python", "numpy"], indirect=True)
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_batch_is_bit_identical_to_mapped_single(self, name, backend):
        problem = get_problem(name)
        parameters = PROBLEMS[name]
        candidates = candidates_of(problem, parameters)
        batched = evaluate_candidates(problem, candidates, parameters)
        singles = [
            evaluate_candidate(problem, candidate, parameters) for candidate in candidates
        ]
        assert len(batched) == len(candidates)
        for fast, slow in zip(batched, singles):
            assert_identical(fast, slow)

    def test_batch_matches_the_uncompiled_path(self, backend):
        """The array sweep equals the from-scratch build (``compiled=False``),
        field for field (backend provenance aside)."""
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        candidates = candidates_of(problem, parameters)
        batched = evaluate_candidates(problem, candidates, parameters)
        explicit = evaluate_candidates(problem, candidates, parameters, compiled=False)
        for fast, slow in zip(batched, explicit):
            assert_identical(fast, slow, skip=("wall_seconds", "backend"))

    def test_infeasible_candidates_survive_batching(self, backend):
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        # A wide slice of the space is guaranteed to contain infeasible
        # points (resource-starved allocations); they must come back in
        # place, reason for reason, not be dropped from the batch.
        candidates = candidates_of(problem, parameters, count=40)
        batched = evaluate_candidates(problem, candidates, parameters)
        statuses = [evaluation.infeasible for evaluation in batched]
        assert any(status is not None for status in statuses)
        assert any(status is None for status in statuses)
        for fast, slow in zip(
            batched,
            [evaluate_candidate(problem, candidate, parameters) for candidate in candidates],
        ):
            assert_identical(fast, slow)

    def test_backend_provenance_is_recorded(self, request):
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        candidates = candidates_of(problem, parameters, 40)
        # Feasible records name the sweep; infeasible ones, never swept,
        # name the backend this process sweeps with -- the same one here.
        default = evaluate_candidates(problem, candidates, parameters)
        assert {evaluation.backend for evaluation in default} == {resolve_backend(None)}
        request.getfixturevalue("reference_sweep")
        reference = evaluate_candidates(problem, candidates, parameters)
        assert {evaluation.backend for evaluation in reference} == {"python"}
        # Provenance, not an objective: metrics() must not leak it.
        assert "backend" not in default[0].metrics()

    def test_no_output_instants_keeps_provenance(self, backend, monkeypatch):
        """A sweep that emits no output instants is infeasible, but the
        record still names the sweep and path that scored it."""
        problem = get_problem("didactic")
        parameters = PROBLEMS["didactic"]
        candidates = candidates_of(problem, parameters, count=3)
        compiled = compiled_problem(problem, parameters)
        relation = compiled.application.external_outputs()[0].name

        def silent_sweep(programs):
            silent = ({}, {relation: []}, {}, {relation: None})
            return [silent for _ in programs], [backend] * len(programs)

        monkeypatch.setattr(compile_module, "replay_batch", silent_sweep)
        scored = compiled.evaluate_batch(candidates)
        silent = [e for e in scored if e.infeasible and "no output" in e.infeasible]
        assert silent
        assert {(e.backend, e.evaluator) for e in silent} == {(backend, "replay")}

        steady = compiled._assemble(
            candidates[0], {}, {}, {relation: []}, {relation: None}, 0.0,
            evaluator="steady", backend=backend,
        )
        assert steady.infeasible == "the model produced no output instants"
        assert (steady.backend, steady.evaluator) == (backend, "steady")


class TestSweepProvenance:
    """A record's ``backend`` names the sweep that produced its instants,
    not a request: steady programs and int64-overflowing candidates are
    swept by the reference even when the kernel is loaded."""

    def test_steady_records_name_the_reference(self, kernel_sweep):
        report = MappingExplorer(
            "chain-periodic",
            strategy="nsga2",
            budget=24,
            seed=1,
            parameters={"items": 400},
            evaluator="auto",
        ).run()
        assert report.errors == 0 and report.evaluated == 24
        steady = [result for result in report.results if result.evaluator == "steady"]
        assert steady
        assert {result.backend for result in steady} == {"python"}
        for result in report.results:
            if result.evaluator == "replay":
                assert result.backend == "numpy"

    def test_overflowing_candidates_name_the_reference(self, kernel_sweep, monkeypatch):
        """A candidate the kernel leaves with status 2 (a sum or index beyond
        int64) is re-run by ``replay_program`` and says so; its objectives
        are the reference's."""
        problem = get_problem("chain")
        parameters = {"items": 20}
        candidates = candidates_of(problem, parameters, count=6)
        swept = evaluate_candidates(problem, candidates, parameters)
        third = compiled_problem(problem, parameters)._lower(candidates[2], "replay")
        in_bounds = engine._in_bounds
        # The kernel's bounds check is where a candidate enters with status 2.
        monkeypatch.setattr(
            engine, "_in_bounds", lambda program: program != third and in_bounds(program)
        )
        with telemetry.collect(enable=True) as scope:
            patched = evaluate_candidates(problem, candidates, parameters)
            counters = scope.snapshot()["counters"]
        assert counters["dse.engine.kernel_overflow_fallbacks"] == 1
        assert [e.backend for e in swept] == ["numpy"] * len(candidates)
        assert [e.backend for e in patched] == [
            "python" if position == 2 else "numpy" for position in range(len(candidates))
        ]
        for fast, slow in zip(patched, swept):
            assert_identical(fast, slow, skip=("wall_seconds", "backend"))

    def test_wall_seconds_add_up_to_at_most_the_wall_time(self):
        """Each swept candidate is charged its own lowering and assembly plus
        an equal share of the batch sweep, so the per-candidate histogram
        sums to at most the exploration's wall time."""
        with telemetry.collect(enable=True) as scope:
            report = MappingExplorer(
                "chain", strategy="nsga2", budget=96, seed=1, parameters={"items": 50}
            ).run()
            histogram = scope.snapshot()["histograms"]["dse.evaluate.candidate"]
        assert histogram["count"] == report.evaluated == 96
        assert histogram["total_ns"] / 1e9 <= report.wall_time_s
        charged = sum(result.equivalent_wall_seconds for result in report.results)
        assert charged <= report.wall_time_s


class TestDigestAcrossPaths:
    """Each sweep digests the instants where it has them -- the kernel from
    its int64 rows, the steady mode from its closed-form tail, the reference
    and the explicit path from the instant lists -- and every path gives the
    digest of the instants it returns, byte for byte."""

    @pytest.mark.parametrize("name, items", [("chain-periodic", 300), ("fork", 6), ("lte", 3)])
    def test_every_path_gives_the_same_digest(self, name, items, request):
        problem = get_problem(name)
        parameters = {"items": items}
        candidates = candidates_of(problem, parameters, count=6)
        paths = {
            "explicit": evaluate_candidates(problem, candidates, parameters, compiled=False),
            "steady": evaluate_candidates(problem, candidates, parameters, evaluator="auto"),
        }
        if numpy_available() and engine._sweep_kernel() is not None:
            paths["kernel"] = evaluate_candidates(problem, candidates, parameters)
        request.getfixturevalue("reference_sweep")
        paths["python"] = evaluate_candidates(problem, candidates, parameters)
        for position, reference in enumerate(paths["explicit"]):
            expected = instants_digest(reference.output_instants) if reference.feasible else None
            for path, evaluations in paths.items():
                assert evaluations[position].instants_digest == expected, (path, position)
        if name == "chain-periodic":
            assert {e.evaluator for e in paths["steady"]} == {"steady"}

    def test_records_carry_the_versioned_digest(self):
        problem = get_problem("didactic")
        candidates = candidates_of(problem, PROBLEMS["didactic"], count=4)
        spec = ScenarioSpec(DSE_SCENARIO, {"problem": "didactic", **PROBLEMS["didactic"]})
        for evaluation in evaluate_candidates(problem, candidates, PROBLEMS["didactic"]):
            record = evaluation_record(spec.job(0), evaluation)
            assert record["instants_digest"].startswith(INSTANTS_DIGEST_PREFIX)
            assert record["instants_digest"] == instants_digest(evaluation.output_instants)

    def test_a_record_beyond_int64_is_a_clear_error(self):
        problem = get_problem("didactic")
        (candidate,) = candidates_of(problem, PROBLEMS["didactic"], count=1)
        evaluation = dataclasses.replace(
            evaluate_candidate(problem, candidate, PROBLEMS["didactic"]),
            output_instants=(1, 2**63),
            instants_digest=None,
        )
        spec = ScenarioSpec(DSE_SCENARIO, {"problem": "didactic", **PROBLEMS["didactic"]})
        with pytest.raises(CampaignError, match="not an int64"):
            evaluation_record(spec.job(0), evaluation)


class TestResolveBackend:
    def test_auto_detects(self):
        """``resolve_backend(None)`` names the sweep of this process."""
        expected = "numpy" if numpy_available() and engine._kernel is not False else "python"
        assert resolve_backend(None) == resolve_backend() == expected

    def test_reference_sweep_resolves_to_python(self, reference_sweep):
        assert resolve_backend(None) == "python"

    def test_unknown_backend_is_rejected(self):
        # The backend is not selectable: every request is refused.
        for request_ in ("auto", "python", "numpy", "cuda"):
            with pytest.raises(ModelError):
                resolve_backend(request_)

    def test_explorer_rejects_bad_backend_up_front(self):
        with pytest.raises(TypeError):
            MappingExplorer("didactic", backend="python")

    def test_the_evaluate_functions_take_no_backend(self):
        problem = get_problem("didactic")
        candidate = candidates_of(problem, PROBLEMS["didactic"], count=1)[0]
        with pytest.raises(TypeError):
            evaluate_candidate(problem, candidate, PROBLEMS["didactic"], backend="python")
        with pytest.raises(TypeError):
            compiled_problem(problem, PROBLEMS["didactic"]).evaluate_batch(
                [candidate], backend="python"
            )


class TestCampaignPlumbing:
    def spec(self, **overrides):
        parameters = {"problem": "didactic", "items": 4, "seed": 0}
        problem = get_problem("didactic")
        candidate = candidates_of(problem, {"items": 4}, count=1)[0]
        parameters.update(candidate.to_parameters())
        return ScenarioSpec(scenario=DSE_SCENARIO, parameters=parameters, **overrides)

    def test_unknown_backend_is_rejected_by_the_spec(self):
        # The spec has no backend field at all.
        for backend in ("cuda", "python"):
            with pytest.raises(TypeError):
                self.spec(backend=backend)
        assert "backend" not in self.spec().job(0).payload()

    def test_backend_is_excluded_from_the_digest(self):
        # An old payload's backend key is ignored, digest included.
        job = self.spec().job(0)
        for backend in (None, "auto", "python", "numpy"):
            old = dict(job.payload(), backend=backend)
            assert JobSpec.from_payload(old) == job
            assert JobSpec.from_payload(old).digest() == job.digest()

    def test_payload_round_trips(self):
        job = self.spec(evaluator="auto").job(0)
        assert JobSpec.from_payload(job.payload()) == job

    def _payloads(self, count=6):
        problem = get_problem("didactic")
        payloads = []
        for candidate in candidates_of(problem, {"items": 4}, count=count):
            parameters = {"problem": "didactic", "items": 4, "seed": 0}
            parameters.update(candidate.to_parameters())
            spec = ScenarioSpec(scenario=DSE_SCENARIO, parameters=parameters)
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

    def test_single_job_records_the_backend_the_explorer_would(self):
        """A single job is a batch of one: it records the sweep the
        explorer's round batches use, so a store of one run does not mix
        backends and ``dse front`` does not warn."""
        report = MappingExplorer(
            "didactic", budget=4, seed=1, parameters={"items": 4}
        ).run()
        assert report.evaluated == 4
        for result in report.results:
            job = ScenarioSpec(DSE_SCENARIO, result.parameters).job(0)
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
        """Records cached without a backend serve a later run: the field
        is provenance, never part of the cache key."""
        store_path = tmp_path / "store.jsonl"

        def explore():
            return MappingExplorer(
                "didactic",
                budget=8,
                seed=3,
                parameters={"items": 4},
                store=ResultStore(store_path),
            ).run()

        first = explore()
        assert first.evaluated == 8
        # Strip the backend field from every stored row, as a store written
        # before the field existed would look, then re-run.
        rows = []
        with store_path.open(encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                row["record"].pop("backend", None)
                rows.append(row)
        with store_path.open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        second = explore()
        assert second.evaluated == 0  # every candidate served from the store
        assert second.front.digests() == first.front.digests()
