"""Candidate evaluation with the equivalent model only.

This is the paper's value proposition turned into an inner loop: scoring
a candidate mapping builds the temporal dependency graph for that
mapping, *computes* the evolution instants, and never runs the explicit
event-driven model.  The objectives extracted per candidate are

* **latency** -- the last output evolution instant (how long the whole
  stimulus takes end to end) and the mean per-item latency
  ``y(k) - u(k)``;
* **resource usage** -- how many resources the candidate instantiates and
  each one's busy fraction over the makespan, measured through
  :func:`repro.observation.usage.busy_profile` on the reconstructed
  activity trace (Fig. 2b's observation-time reconstruction);
* **model complexity** -- the TDG node count.

A candidate whose static service order contradicts a same-iteration data
dependency produces a zero-delay cycle in the graph; the evaluation
reports it as *infeasible* (with the reason) instead of raising, so
search strategies can skip it and move on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..archmodel.application import ApplicationModel
from ..archmodel.architecture import ArchitectureModel
from ..archmodel.platform import PlatformModel
from ..core.builder import build_equivalent_spec
from ..core.model import EquivalentArchitectureModel
from ..environment.stimulus import Stimulus
from ..errors import ModelError, ReproError
from ..observation.usage import busy_profile
from .problems import DesignProblem
from .space import MappingCandidate

__all__ = [
    "CandidateEvaluation",
    "evaluate_mapping",
    "evaluate_candidate",
    "evaluate_candidates",
    "EVALUATOR_MODES",
]

#: Accepted ``evaluator`` modes of :func:`evaluate_candidate` (re-exported by
#: :mod:`repro.dse.compile`, which owns the implementation): ``replay``
#: computes every iteration, ``auto`` extrapolates the certified periodic
#: regime whenever the candidate qualifies (its record then says
#: ``"steady"``) and replays the others.
EVALUATOR_MODES = ("replay", "auto")


@dataclass(frozen=True)
class CandidateEvaluation:
    """Objectives of one candidate mapping (or the reason it is infeasible)."""

    candidate: MappingCandidate
    infeasible: Optional[str] = None
    iterations: int = 0
    latency_ps: int = 0
    mean_latency_ps: float = 0.0
    tdg_nodes: int = 0
    resources_used: int = 0
    utilization: Tuple[Tuple[str, float], ...] = ()
    mean_utilization: float = 0.0
    #: Per resource kind: number of instantiated resources of that kind and
    #: their mean busy fraction -- the cost/load axes of heterogeneous banks.
    resources_by_kind: Tuple[Tuple[str, int], ...] = ()
    utilization_by_kind: Tuple[Tuple[str, float], ...] = ()
    wall_seconds: float = 0.0
    #: Output evolution instants of the *primary* (first-declared) external
    #: output, in integer picoseconds (the accuracy anchor: an explicit
    #: simulation of the same mapping must reproduce them exactly).
    output_instants: Tuple[int, ...] = ()
    #: Per-relation output instants of every external output, in application
    #: declaration order.  ``latency_ps`` is the max last instant across them,
    #: so multi-output designs are not silently scored on one output only.
    per_output_instants: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    #: Scoring path that actually produced these objectives: ``"replay"``
    #: (every iteration computed) or ``"steady"`` (the steady mode of the
    #: sweep: periodic regime certified and extrapolated when it settles).
    #: Not an objective -- excluded from :meth:`metrics`; the campaign layer
    #: records it per job for provenance.
    evaluator: str = "replay"
    #: Sweep that actually produced these instants: ``"python"`` (the
    #: zero-dependency reference, also reported by the explicit path) or
    #: ``"numpy"`` (the compiled kernel, one call across a candidate batch).
    #: Like ``evaluator``, pure provenance -- excluded from :meth:`metrics`.
    backend: str = "python"

    @property
    def feasible(self) -> bool:
        return self.infeasible is None

    def metrics(self) -> Dict[str, Any]:
        """JSON-safe objective dict (what campaign records carry around)."""
        if not self.feasible:
            return {"feasible": False, "infeasible_reason": self.infeasible}
        return {
            "feasible": True,
            "latency_ps": self.latency_ps,
            "latency_us": self.latency_ps / 1e6,
            "mean_latency_ps": self.mean_latency_ps,
            "resources_used": self.resources_used,
            "utilization": dict(self.utilization),
            "mean_utilization": self.mean_utilization,
            "resources_by_kind": dict(self.resources_by_kind),
            "kind_utilization": dict(self.utilization_by_kind),
            "tdg_nodes": self.tdg_nodes,
            "allocation": self.candidate.describe(),
            "output_latency_ps": {
                relation: (instants[-1] if instants else None)
                for relation, instants in self.per_output_instants
            },
        }


def per_kind_summary(
    platform: PlatformModel,
    utilization: Mapping[str, float],
) -> Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[str, float], ...]]:
    """Per-kind resource counts and mean busy fractions of one evaluation.

    ``utilization`` maps the candidate's *used* resources to their busy
    fraction; the summary groups them by the platform's resource kinds.
    Shared by the from-scratch and the compiled evaluator so heterogeneous
    metrics agree bit for bit.
    """
    # Every kind the *platform* offers gets an entry, with 0 resources and
    # 0.0 utilisation when the candidate vacates the kind entirely -- a
    # dotted objective like ``kind_utilization.dsp`` must read the ideal
    # 0.0 there, not a missing key (which scores as +inf, the worst value).
    counts: Dict[str, int] = {kind: 0 for kind in platform.kind_counts()}
    sums: Dict[str, float] = {kind: 0.0 for kind in counts}
    for resource_name, busy in utilization.items():
        kind = platform.resource(resource_name).kind.value
        counts[kind] += 1
        sums[kind] += busy
    return (
        tuple(sorted(counts.items())),
        tuple(
            (kind, round(sums[kind] / counts[kind], 4) if counts[kind] else 0.0)
            for kind in sorted(counts)
        ),
    )


def _record_evaluation(evaluation: CandidateEvaluation) -> CandidateEvaluation:
    """Telemetry epilogue of one evaluation: counts plus a latency histogram."""
    telemetry.count("dse.evaluate.evaluations")
    if not evaluation.feasible:
        telemetry.count("dse.evaluate.infeasible")
    telemetry.observe_ns("dse.evaluate.candidate", int(evaluation.wall_seconds * 1e9))
    return evaluation


def evaluate_mapping(
    application: ApplicationModel,
    platform: PlatformModel,
    candidate: MappingCandidate,
    stimuli: Mapping[str, Stimulus],
    name: str = "dse-candidate",
) -> CandidateEvaluation:
    """Score one candidate mapping by building and running the equivalent model."""
    start = time.perf_counter()
    try:
        mapping = candidate.build_mapping(f"{name}-mapping")
        architecture = ArchitectureModel(name, application, platform, mapping)
        spec = build_equivalent_spec(architecture)
        model = EquivalentArchitectureModel(
            architecture,
            stimuli,
            spec=spec,
            observe_resources=True,
            record_activity=False,
        )
        model.run()
    except ReproError as error:
        return _record_evaluation(
            CandidateEvaluation(
                candidate=candidate,
                infeasible=f"{type(error).__name__}: {error}",
                wall_seconds=time.perf_counter() - start,
            )
        )

    outputs = architecture.external_outputs()
    if not outputs:
        raise ModelError("design-space evaluation needs an external output relation")
    per_output = tuple(
        (
            spec_rel.name,
            tuple(instant.picoseconds for instant in model.output_instants(spec_rel.name)),
        )
        for spec_rel in outputs
    )
    instants = per_output[0][1]
    if not instants:
        return _record_evaluation(
            CandidateEvaluation(
                candidate=candidate,
                infeasible="the model produced no output instants",
                wall_seconds=time.perf_counter() - start,
            )
        )

    inputs = architecture.external_inputs()
    offers = model.offer_instants(inputs[0].name) if inputs else []
    pairs = min(len(offers), len(instants))
    mean_latency = (
        sum(instants[k] - offers[k].picoseconds for k in range(pairs)) / pairs
        if pairs
        else 0.0
    )

    trace = model.reconstructed_usage()
    window = trace.span()
    utilization: Dict[str, float] = {}
    if window[1] > window[0]:
        for resource in candidate.resources_used():
            profile = busy_profile(trace, resource, window[1] - window[0], window=window)
            utilization[resource] = round(profile.mean(), 4)
    else:
        # Degenerate zero-width trace window (e.g. a single zero-duration
        # iteration): nothing was busy for a measurable time, so every
        # resource is 0% utilised instead of dividing by a zero makespan.
        utilization = {resource: 0.0 for resource in candidate.resources_used()}
    mean_utilization = (
        sum(utilization.values()) / len(utilization) if utilization else 0.0
    )
    resources_by_kind, utilization_by_kind = per_kind_summary(platform, utilization)

    return _record_evaluation(
        CandidateEvaluation(
            candidate=candidate,
            iterations=len(instants),
            latency_ps=max(seq[-1] for _, seq in per_output if seq),
            mean_latency_ps=mean_latency,
            tdg_nodes=spec.graph.node_count,
            resources_used=len(candidate.resources_used()),
            utilization=tuple(sorted(utilization.items())),
            mean_utilization=round(mean_utilization, 4),
            resources_by_kind=resources_by_kind,
            utilization_by_kind=utilization_by_kind,
            wall_seconds=time.perf_counter() - start,
            output_instants=instants,
            per_output_instants=per_output,
        )
    )


def evaluate_candidate(
    problem: DesignProblem,
    candidate: MappingCandidate,
    parameters: Optional[Mapping[str, Any]] = None,
    compiled: bool = True,
    evaluator: str = "replay",
) -> CandidateEvaluation:
    """Score one candidate of ``problem`` under resolved problem parameters.

    A batch of one: ``evaluate_candidates([candidate], ...)[0]``.  By
    default the evaluation goes through a cached
    :class:`~repro.dse.compile.CompiledProblem`: the allocation-independent
    TDG template of the problem is built once and only *specialised* per
    candidate, which is what makes exploration inner loops fast.  Pass
    ``compiled=False`` to force the original from-scratch
    :func:`evaluate_mapping` build (the reference); both paths produce
    identical objectives, instant for instant.

    ``evaluator`` selects the compiled scoring path (see
    :data:`EVALUATOR_MODES`); the from-scratch path always replays and
    silently ignores the mode.  Every combination produces bit-identical
    objectives.
    """
    return evaluate_candidates(problem, [candidate], parameters, compiled, evaluator)[0]


def evaluate_candidates(
    problem: DesignProblem,
    candidates: Sequence[MappingCandidate],
    parameters: Optional[Mapping[str, Any]] = None,
    compiled: bool = True,
    evaluator: str = "replay",
) -> List[CandidateEvaluation]:
    """Score a whole candidate batch; the batched form of :func:`evaluate_candidate`.

    On the compiled path (the default) the batch is swept in one go by
    :meth:`~repro.dse.compile.CompiledProblem.evaluate_batch`.  With
    ``compiled=False`` every candidate is scored by the from-scratch
    :func:`evaluate_mapping`, exactly as :func:`evaluate_candidate` would.
    Either way the returned list aligns with ``candidates`` and is
    bit-identical, instant for instant, to mapping
    :func:`evaluate_candidate` over the same list.
    """
    if evaluator not in EVALUATOR_MODES:
        raise ModelError(
            f"unknown evaluator mode {evaluator!r}; expected one of {EVALUATOR_MODES}"
        )
    candidates = list(candidates)
    if compiled:
        from .compile import compiled_problem

        return compiled_problem(problem, parameters).evaluate_batch(candidates, evaluator)
    resolved = problem.parameters(parameters)
    return [
        evaluate_mapping(
            problem.application_factory(resolved),
            problem.platform_factory(resolved),
            candidate,
            problem.stimuli_factory(resolved),
            name=f"dse-{problem.name}",
        )
        for candidate in candidates
    ]
