"""Campaign integration: DSE evaluations as declarative scenario jobs.

A candidate evaluation is just a job: ``(scenario="dse-eval", parameters
= problem parameters + candidate encoding)``.  Its job digest is the
result-store key, so re-running an exploration against the same store
evaluates nothing that was already scored.  The explorer scores its own
rounds (:meth:`repro.dse.explore.MappingExplorer.run`) and packs each
evaluation with :func:`evaluation_record`; the registered scenario keeps
``dse-eval`` jobs runnable through the campaign runner (``campaign run``),
and its :func:`execute_dse_job` is the reference for what a stored record
holds.

The scenario uses the :data:`~repro.campaign.registry.Executor` hook
instead of a planner: the job body builds the *equivalent model only*
(:func:`repro.dse.evaluate.evaluate_candidate`), never the explicit one,
and packs the objectives into the result's ``metrics`` dict.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..campaign.registry import Scenario, ScenarioRegistry
from ..campaign.results import JobResult, instants_digest
from ..campaign.spec import JobSpec
from .evaluate import CandidateEvaluation, evaluate_candidate
from .problems import get_problem
from .space import MappingCandidate

__all__ = [
    "DSE_SCENARIO",
    "execute_dse_job",
    "evaluation_record",
    "register_dse_scenario",
]

#: Name under which DSE evaluations are registered in the campaign registry.
DSE_SCENARIO = "dse-eval"


def evaluation_record(job: JobSpec, evaluation: CandidateEvaluation) -> Dict[str, Any]:
    """Pack one candidate evaluation as a JSON-safe job-result record."""
    feasible = evaluation.feasible
    keep_instants = job.spec.record_instants and feasible
    digest = evaluation.instants_digest
    if feasible and digest is None:  # an instant beyond int64: instants_digest raises
        digest = instants_digest(evaluation.output_instants)
    result = JobResult(
        job_digest=job.digest(),
        scenario=job.spec.scenario,
        parameters=dict(job.spec.parameters),
        replication=job.replication,
        seed=job.seed,
        label=f"dse {evaluation.candidate.describe()}",
        iterations=evaluation.iterations,
        equivalent_wall_seconds=evaluation.wall_seconds,
        tdg_nodes=evaluation.tdg_nodes,
        # No explicit/equivalent comparison happens in the DSE inner loop;
        # accuracy is asserted once, on the chosen mapping (integration test).
        outputs_identical=True,
        instants_digest=digest,
        output_instants=evaluation.output_instants if keep_instants else None,
        metrics=evaluation.metrics(),
        evaluator=evaluation.evaluator,
        backend=evaluation.backend,
    )
    return result.to_record()


def execute_dse_job(job: JobSpec, parameters: Mapping[str, Any]) -> Dict[str, Any]:
    """Worker-side job body: rebuild problem + candidate, score, return record."""
    problem = get_problem(str(parameters["problem"]))
    candidate = MappingCandidate.from_parameters(parameters)
    evaluation = evaluate_candidate(problem, candidate, parameters, evaluator=job.spec.evaluator)
    return evaluation_record(job, evaluation)


def register_dse_scenario(registry: ScenarioRegistry) -> Scenario:
    """Register the ``dse-eval`` scenario family (called by the default registry)."""
    return registry.register(
        Scenario(
            name=DSE_SCENARIO,
            description="DSE candidate evaluation (equivalent model only, no explicit run)",
            executor=execute_dse_job,
            defaults={"problem": "didactic", "items": 40, "seed": 2014},
        )
    )
