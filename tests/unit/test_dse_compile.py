"""Unit tests for TDG template compilation (repro.dse.compile + core.builder split)."""

import dataclasses

import pytest

from repro.archmodel import ArchitectureModel
from repro.archmodel.workload import ExecutionTimeModel
from repro.core.builder import build_equivalent_spec, build_template, specialize_template
from repro.core.spec import TemplateArc, TemplateNode
from repro.dse import (
    CandidateEvaluation,
    CompiledProblem,
    compiled_problem,
    evaluate_candidate,
    get_problem,
)
from repro.dse import compile as compile_module
from repro.dse.compile import _CACHE
from repro.dse.engine import lower_template
from repro.dse.space import MappingCandidate
from repro.errors import ComputationError, GraphError, ModelError
from repro.tdg.evaluator import TDGEvaluator
from repro.tdg.node import NodeKind


@pytest.fixture()
def problem():
    return get_problem("didactic")


@pytest.fixture(autouse=True)
def clear_compile_cache():
    _CACHE.clear()
    yield
    _CACHE.clear()


def assert_same_evaluation(fast, slow):
    """Every objective field identical (wall-clock aside)."""
    for field in dataclasses.fields(fast):
        if field.name == "wall_seconds":
            continue
        assert getattr(fast, field.name) == getattr(slow, field.name), field.name


class TestTemplateSpecialisation:
    def test_specialised_spec_matches_from_scratch_build(self, problem):
        parameters = problem.parameters({"items": 5})
        application = problem.application_factory(parameters)
        platform = problem.platform_factory(parameters)
        template = build_template(application)
        space = problem.space({"items": 5})
        candidate = space.default_candidate()
        architecture = ArchitectureModel(
            "spec-test", application, platform, candidate.build_mapping()
        )
        specialised = specialize_template(template, architecture)
        scratch = build_equivalent_spec(architecture)
        assert [n.name for n in specialised.graph.nodes] == [
            n.name for n in scratch.graph.nodes
        ]
        assert specialised.graph.arc_count == scratch.graph.arc_count
        assert specialised.relation_nodes == scratch.relation_nodes
        assert specialised.primary_input == scratch.primary_input
        assert [b.relation for b in specialised.boundary_inputs] == [
            b.relation for b in scratch.boundary_inputs
        ]
        assert [e.resource for e in specialised.execute_nodes] == [
            e.resource for e in scratch.execute_nodes
        ]
        # resource tags are bound during specialisation
        for entry in specialised.execute_nodes:
            assert specialised.graph.node(entry.start_node).tags["resource"] == entry.resource

    def test_template_is_allocation_independent(self, problem):
        parameters = problem.parameters({"items": 5})
        template = build_template(problem.application_factory(parameters))
        # no node or arc of the template mentions a platform resource
        for node in template.nodes:
            assert "resource" not in (node.tags or {})

    def test_template_rejects_foreign_application(self, problem):
        # Identity check: even a structurally *identical* application must be
        # rejected, because the template's arcs embed the original workload
        # model objects and would silently mis-time a lookalike.
        parameters = problem.parameters({"items": 5})
        template = build_template(problem.application_factory(parameters))
        lookalike = problem.application_factory(parameters)  # fresh, equal-looking
        platform = problem.platform_factory(parameters)
        candidate = problem.space({"items": 5}).default_candidate()
        architecture = ArchitectureModel(
            "lookalike", lookalike, platform, candidate.build_mapping()
        )
        with pytest.raises(ModelError, match="own application instance"):
            specialize_template(template, architecture)


class TestCompiledProblem:
    def test_compiled_matches_uncompiled_default_candidate(self, problem, reference_sweep):
        compiled = CompiledProblem(problem, {"items": 8})
        candidate = problem.space({"items": 8}).default_candidate()
        fast = compiled.evaluate(candidate)
        slow = evaluate_candidate(problem, candidate, {"items": 8}, compiled=False)
        assert fast.feasible
        assert_same_evaluation(fast, slow)

    def test_infeasible_reason_matches_uncompiled(self, problem):
        space = problem.space({"items": 4})
        base = space.canonical({"F1": "P1", "F2": "P1", "F3": "P1", "F4": "P1"})
        broken = MappingCandidate(
            allocation=base.allocation,
            orders=(("P1", tuple(reversed(base.orders[0][1]))),),
        )
        compiled = CompiledProblem(problem, {"items": 4})
        fast = compiled.evaluate(broken)
        slow = evaluate_candidate(problem, broken, {"items": 4}, compiled=False)
        assert not fast.feasible
        assert fast.infeasible == slow.infeasible
        assert "cycle" in fast.infeasible

    def test_cache_ignores_candidate_encoding_keys(self, problem):
        first = compiled_problem(problem, {"items": 8})
        # candidate encodings riding along in campaign job parameters must not
        # defeat the cache
        second = compiled_problem(
            problem, {"items": 8, "allocation": {"F1": "P1"}, "orders": {}}
        )
        third = compiled_problem(problem, {"items": 9})
        assert first is second
        assert first is not third

    def test_cache_keeps_undeclared_problem_parameters(self, problem):
        # a problem factory may read optional keys absent from its defaults;
        # the compiled path must see them exactly like the uncompiled one
        first = compiled_problem(problem, {"items": 8, "custom": 1})
        second = compiled_problem(problem, {"items": 8, "custom": 2})
        assert first is not second
        assert first.parameters["custom"] == 1

    def test_cache_distinguishes_same_named_problem_objects(self, problem):
        # an unregistered problem variant sharing a registered name must never
        # be served another problem's compilation
        variant = dataclasses.replace(problem, description="variant")
        first = compiled_problem(problem, {"items": 8})
        second = compiled_problem(variant, {"items": 8})
        assert first is not second
        assert second.problem is variant

    def test_evaluate_candidate_routes_through_compiled_cache(self, problem):
        candidate = problem.space({"items": 6}).default_candidate()
        evaluation = evaluate_candidate(problem, candidate, {"items": 6}, compiled=True)
        assert evaluation.feasible
        assert len(_CACHE) == 1

    def test_uncompiled_reference_skips_the_compile_cache(self, problem):
        candidate = problem.space({"items": 6}).default_candidate()
        evaluation = evaluate_candidate(problem, candidate, {"items": 6}, compiled=False)
        assert evaluation.feasible
        assert len(_CACHE) == 0  # never compiled

    def test_forced_fallback_replays_through_event_driven_harness(self, problem, monkeypatch):
        # When the closed-form sweep bails out (a None result), evaluate must
        # hand the candidate to the exact evaluate_mapping path with the
        # problem's own stimuli and still produce identical objectives.
        compiled = CompiledProblem(problem, {"items": 6})
        candidate = problem.space({"items": 6}).default_candidate()
        monkeypatch.setattr(
            compile_module,
            "replay_batch",
            lambda programs: ([None] * len(programs), ["numpy"] * len(programs)),
        )
        fast = compiled.evaluate(candidate)
        slow = evaluate_candidate(problem, candidate, {"items": 6}, compiled=False)
        assert fast.feasible
        assert_same_evaluation(fast, slow)

    def test_non_monotonic_outputs_trigger_the_fallback(self, problem, monkeypatch):
        # Boundary feedback detection: if a computed output regresses below an
        # already-emitted one, the kernel-free loop must abandon the closed
        # form (the event-driven harness would have applied a correction).
        compiled = CompiledProblem(problem, {"items": 4})
        candidate = problem.space({"items": 4}).default_candidate()
        original = compile_module.lower_spec

        def regressing(*args, **kwargs):
            program = original(*args, **kwargs)
            # The first output now reads the first exchange plus a weight
            # falling faster than the offers rise, so iteration 1's offer is
            # smaller than iteration 0's.
            offer, exchange = program.outputs[0][1], program.inputs[0][1]
            falling = [10**15 - 10**14 * k for k in range(program.iterations)]
            plan_arcs = list(program.plan_arcs)
            plan_arcs[program.plan_nodes.index(offer)] = ((exchange, 0, falling),)
            return program._replace(plan_arcs=plan_arcs)

        monkeypatch.setattr(compile_module, "lower_spec", regressing)
        sentinel = CandidateEvaluation(candidate=candidate, infeasible="fallback-sentinel")
        monkeypatch.setattr(compile_module, "evaluate_mapping", lambda *a, **k: sentinel)
        assert compiled.evaluate(candidate) is sentinel

    def test_compiled_matches_uncompiled_on_fork_problem(self, reference_sweep):
        fork = get_problem("fork")
        compiled = CompiledProblem(fork, {"items": 6})
        for candidate in list(fork.space({"items": 6}).enumerate_candidates(limit=12)):
            assert_same_evaluation(
                compiled.evaluate(candidate),
                evaluate_candidate(fork, candidate, {"items": 6}, compiled=False),
            )


class _FailsAtThree(ExecutionTimeModel):
    """A misbehaving workload: a negative duration from iteration 3 on."""

    def duration_ps(self, k, token):
        return 5_000 if k < 3 else -1


def _fork_variant(**factories):
    return dataclasses.replace(get_problem("fork"), name="fork-variant", **factories)


class TestInfeasibilityReports:
    def test_invalid_durations_are_reported_in_every_mode(self):
        # A workload subclass that breaks the duration contract must end in
        # an infeasibility report, never in an instant: the duration table
        # validates every entry when the candidate is lowered (and the steady
        # gate meets the same entry first when it runs).
        fork = get_problem("fork")

        def application(parameters):
            app = fork.application_factory(parameters)
            app.function("F3").steps[1].workload = _FailsAtThree()
            return app

        problem = _fork_variant(application_factory=application)
        compiled = CompiledProblem(problem, {"items": 6})
        candidate = problem.space({"items": 6}).default_candidate()
        expected = (
            "GraphError: workload _FailsAtThree returned an invalid duration "
            "for iteration 3: -1"
        )
        for evaluator in ("replay", "auto"):
            assert compiled.evaluate(candidate, evaluator=evaluator).infeasible == expected

    def test_missing_stimuli_match_the_from_scratch_report(self, reference_sweep):
        problem = _fork_variant(stimuli_factory=lambda parameters: {})
        candidate = problem.space({"items": 4}).default_candidate()
        fast = CompiledProblem(problem, {"items": 4}).evaluate(candidate)
        slow = evaluate_candidate(problem, candidate, {"items": 4}, compiled=False)
        assert fast.infeasible == "ModelError: missing stimuli for external inputs: ['M1']"
        assert_same_evaluation(fast, slow)

    def _with_template(self, compiled, **changes):
        """Swap ``compiled``'s template (and its lowering) for an edited copy."""
        compiled.template = dataclasses.replace(compiled.template, **changes)
        compiled._program = lower_template(compiled.template, compiled.stimuli)
        return compiled.template

    def test_a_node_without_incoming_arc_reports_the_graph_message(self, problem):
        # The patched tables run the graph's own structural check.
        compiled = CompiledProblem(problem, {"items": 4})
        candidate = problem.space({"items": 4}).default_candidate()
        orphan = TemplateNode("orphan", NodeKind.INTERNAL)
        self._with_template(compiled, nodes=compiled.template.nodes + (orphan,))
        with pytest.raises(GraphError, match="'orphan' has no incoming arc") as reference:
            compiled.specialize(candidate)
        assert compiled.evaluate(candidate).infeasible == f"GraphError: {reference.value}"

    def test_a_delay_0_ready_arc_reports_the_evaluator_message(self, problem):
        # The Reception peeks the ready node before the iteration runs, so
        # a same-iteration arc into it is refused exactly as the evaluator
        # refuses it.
        compiled = CompiledProblem(problem, {"items": 4})
        candidate = problem.space({"items": 4}).default_candidate()
        template = compiled.template
        ready = template.boundary_inputs[0].ready_node
        arc = TemplateArc(template.execute_slots[-1].end_node, ready, delay=0)
        self._with_template(compiled, arcs=template.arcs + (arc,))
        evaluator = TDGEvaluator(compiled.specialize(candidate).graph)
        with pytest.raises(ComputationError, match="delayed arcs only") as reference:
            evaluator.peek_delayed(ready)
        assert compiled.evaluate(candidate).infeasible == f"ComputationError: {reference.value}"
