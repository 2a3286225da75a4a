"""Heterogeneous-bank DSE: the ``lte`` problem end to end.

The ISSUE acceptance criteria: exploring the mixed processors/DSP/hardware
bank produces 100% eligibility-feasible random proposals, and the compiled
evaluator matches the from-scratch build instant for instant on the new
problem.  The explicit event-driven simulation of a chosen heterogeneous
mapping anchors the kind-scaled workloads' accuracy.
"""

import dataclasses
import itertools
import random

from repro.archmodel import ArchitectureModel
from repro.dse import (
    CompiledProblem,
    MappingExplorer,
    evaluate_candidate,
    get_problem,
)
from repro.explicit import ExplicitArchitectureModel
from repro.lte import INPUT_RELATION, OUTPUT_RELATION, lte_symbol_stimulus

PARAMS = {"items": 6}


class TestEligibleProposals:
    def test_random_proposals_are_100_percent_feasible(self):
        problem = get_problem("lte")
        space = problem.space(PARAMS)
        compiled = CompiledProblem(problem, PARAMS)
        rng = random.Random(17)
        for _ in range(40):
            candidate = space.random_candidate(rng)
            for function, resource in candidate.allocation:
                assert space.is_eligible(function, resource)
            evaluation = compiled.evaluate(candidate)
            assert evaluation.feasible, (
                f"{candidate.describe()}: {evaluation.infeasible}"
            )

    def test_exploration_spends_the_whole_budget_feasibly(self):
        report = MappingExplorer(
            problem="lte", strategy="nsga2", budget=24, seed=9, parameters=PARAMS
        ).run()
        assert report.errors == 0
        assert report.infeasible == 0
        assert report.explored == 24
        assert len(report.front) > 0
        # The explorer picked the problem's own objective tuple (3 axes,
        # including the per-kind DSP utilisation).
        assert [o.key for o in report.objectives] == [
            "latency_ps",
            "resources_used",
            "kind_utilization.dsp",
        ]
        for point in report.front.points():
            assert point.metrics["kind_utilization"]
            assert sum(point.metrics["resources_by_kind"].values()) == (
                point.metrics["resources_used"]
            )


class TestCompiledEquivalenceOnMixedBank:
    def test_compiled_matches_from_scratch_instant_for_instant(self, reference_sweep):
        problem = get_problem("lte")
        compiled = CompiledProblem(problem, PARAMS)
        space = problem.space(PARAMS)
        rng = random.Random(31)
        sample = list(itertools.islice(space.enumerate_candidates(), 40))
        sample += [space.random_candidate(rng) for _ in range(20)]
        checked = feasible = 0
        for candidate in sample:
            fast = compiled.evaluate(candidate)
            slow = evaluate_candidate(problem, candidate, PARAMS, compiled=False)
            for field in dataclasses.fields(fast):
                if field.name == "wall_seconds":
                    continue
                assert getattr(fast, field.name) == getattr(slow, field.name), (
                    f"{field.name} differs for {candidate.describe()}"
                )
            checked += 1
            feasible += fast.feasible
        assert checked == 60
        assert feasible > 0

    def test_duration_tables_are_shared_per_binding_class(self):
        problem = get_problem("lte")
        compiled = CompiledProblem(problem, PARAMS)
        space = problem.space(PARAMS)
        rng = random.Random(5)
        for _ in range(30):
            compiled.evaluate(space.random_candidate(rng))
        # Every execute slot is kind-scaled; tables exist per (slot, class)
        # actually visited, never per candidate.
        slots = len(compiled._resource_dependent)
        assert slots == 8  # the eight receiver functions' execute steps
        assert len(compiled._bound_tables) <= 3 * slots  # <= kinds per slot


class TestExplicitAccuracyAnchor:
    def test_explicit_simulation_matches_the_equivalent_model(self):
        # Kind-scaled workloads must time identically in the event-driven
        # reference model and in the computed equivalent model.
        problem = get_problem("lte")
        resolved = problem.parameters(PARAMS)
        space = problem.space(PARAMS)
        candidate = space.random_candidate(random.Random(2))
        evaluation = evaluate_candidate(problem, candidate, PARAMS)
        assert evaluation.feasible

        application = problem.application_factory(resolved)
        platform = problem.platform_factory(resolved)
        architecture = ArchitectureModel(
            "lte-explicit-anchor",
            application,
            platform,
            candidate.build_mapping("anchor"),
        )
        explicit = ExplicitArchitectureModel(
            architecture,
            {INPUT_RELATION: lte_symbol_stimulus(int(resolved["items"]),
                                                 seed=int(resolved["seed"]))},
        )
        explicit.run()
        explicit_instants = tuple(
            t.picoseconds for t in explicit.output_instants(OUTPUT_RELATION)
        )
        assert explicit_instants == evaluation.output_instants
