"""The explorer scores the problem object it was given, one round at a time.

A round's fresh candidates are scored together on ``explorer.problem``
itself -- not on a registered problem looked up by name -- so unregistered
problems and same-named variants explore correctly, and a candidate whose
scoring raises costs only its own result.
"""

import dataclasses

import pytest

from repro.campaign import ResultStore
from repro.dse import MappingExplorer, get_problem
from repro.dse.compile import CompiledProblem
from repro.dse.evaluate import evaluate_candidate
from repro.dse.space import MappingCandidate

PARAMETERS = {"items": 6}


def doubled_items(problem):
    """``problem`` with the same name, but stimuli of twice the items."""
    original = problem.stimuli_factory

    def stimuli(parameters):
        return original(dict(parameters, items=2 * parameters["items"]))

    return dataclasses.replace(problem, stimuli_factory=stimuli)


def unregistered(name="didactic-copy"):
    return dataclasses.replace(get_problem("didactic"), name=name)


class TestProblemObject:
    def test_unregistered_problem_scores_every_candidate(self):
        report = MappingExplorer(
            unregistered(), budget=8, seed=1, parameters=PARAMETERS
        ).run()
        assert report.explored == report.evaluated == 8
        assert report.errors == 0
        assert len(report.front) >= 1

    def test_same_named_variant_is_scored_as_itself(self):
        variant = doubled_items(get_problem("didactic"))
        assert variant.name == "didactic"
        report = MappingExplorer(variant, budget=8, seed=1, parameters=PARAMETERS).run()
        assert report.errors == 0
        resolved = variant.parameters(PARAMETERS)
        for result in report.results:
            candidate = MappingCandidate.from_parameters(result.parameters)
            expected = evaluate_candidate(variant, candidate, resolved)
            assert result.metrics == expected.metrics()
            assert result.iterations == expected.iterations == 2 * PARAMETERS["items"]


class TestErrorIsolation:
    def test_raising_candidate_is_one_error_and_its_round_mates_are_stored(
        self, tmp_path, monkeypatch
    ):
        problem = unregistered()

        def explore(store=None):
            return MappingExplorer(
                problem, budget=8, seed=1, parameters=PARAMETERS, store=store
            ).run()

        clean = explore()
        poisoned = MappingCandidate.from_parameters(clean.results[1].parameters).digest()
        original = CompiledProblem.evaluate_batch

        def evaluate_batch(self, candidates, *args, **kwargs):
            if any(candidate.digest() == poisoned for candidate in candidates):
                raise RuntimeError("poisoned candidate")
            return original(self, candidates, *args, **kwargs)

        monkeypatch.setattr(CompiledProblem, "evaluate_batch", evaluate_batch)
        path = tmp_path / "store.jsonl"
        report = explore(ResultStore(path))
        assert report.explored == clean.explored
        assert report.errors == 1
        (failed,) = [result for result in report.results if not result.ok]
        assert failed.error == "RuntimeError: poisoned candidate"
        assert failed is report.results[1]
        for result, reference in zip(report.results, clean.results):
            if result.ok:
                assert result.metrics == reference.metrics
        store = ResultStore(path)
        assert len(store.digests()) == clean.explored - 1
        assert store.get(failed.job_digest) is None

        # Errors are not stored, so the next run retries exactly that one.
        monkeypatch.setattr(CompiledProblem, "evaluate_batch", original)
        again = explore(ResultStore(path))
        assert again.errors == 0
        assert again.evaluated == 1
        assert again.cache_hits == clean.explored - 1

    def test_every_candidate_raising_explores_to_errors(self, monkeypatch):
        def broken(self, candidates, *args, **kwargs):
            raise RuntimeError("broken sweep")

        monkeypatch.setattr(CompiledProblem, "evaluate_batch", broken)
        report = MappingExplorer(
            unregistered(), budget=4, seed=1, parameters=PARAMETERS
        ).run()
        assert report.errors == report.explored == 4
        assert {result.error for result in report.results} == {
            "RuntimeError: broken sweep"
        }


@pytest.mark.parametrize("strategy", ["random", "nsga2"])
def test_registered_name_and_object_explore_identically(strategy):
    def explore(problem):
        report = MappingExplorer(
            problem, strategy=strategy, budget=12, seed=2, parameters=PARAMETERS
        ).run()
        return [(result.job_digest, result.metrics) for result in report.results]

    assert explore("chain") == explore(get_problem("chain"))
