"""Compiled candidate evaluation: one lowered TDG template, one small patch per candidate.

The paper's value proposition is that evaluating one mapping is cheap;
a design-space exploration evaluates *thousands*.  The from-scratch
evaluator (:func:`repro.dse.evaluate.evaluate_mapping`) spends most of
its wall-clock on Python-level work that does not depend on the
candidate at all: re-deriving the relation topology and node vocabulary
of the temporal dependency graph, re-instantiating the event-driven
harness around the instant computer, and re-evaluating the same
data-dependent workload durations for the same stimulus tokens.

:class:`CompiledProblem` hoists all of that out of the inner loop:

* the application, platform, stimuli and the allocation-independent
  :class:`~repro.core.spec.EquivalentModelTemplate` are built **once**
  per ``(problem, parameters)``;
* the template is *lowered* once onto flat integer tables
  (:func:`repro.dse.engine.lower_template`): the node vocabulary, every
  allocation-independent arc, the stimulus offer schedules and the
  execute slots' nodes;
* data-dependent workload durations are tabulated per iteration and
  shared across every candidate (the stimulus, and hence the token
  sequence, is identical for all of them);
* per candidate, only what the mapping decides is written over those
  tables -- each resource's service-order and server-free arcs (through
  the builder's own :func:`~repro.core.builder.scheduled_resource_entries`
  and :func:`~repro.core.builder.resource_schedule_arcs`), the duration
  table bound to each execute slot, and each slot's resource -- and the
  same feasibility checks as the object-graph path run on the patched
  tables, with the same messages: the architecture's validation, resource
  isolation, the zero-delay order of
  :func:`~repro.tdg.graph.zero_delay_order`, duration validation and the
  delay-0 ready arcs;
* the patched program is replayed by the array sweep of
  :mod:`repro.dse.engine` -- the Reception/Emission protocol of the
  equivalent model as a plain computation loop, with no simulation
  kernel: with the always-ready observer of the paper's experiments the
  boundary exchanges have closed forms.  Whenever that closed form would
  diverge from the event-driven harness (an output offered out of order,
  i.e. a case needing boundary feedback), the evaluation transparently
  falls back to the exact from-scratch path.

**Steady-state evaluation** (``evaluator="auto"``) stacks on
top of the array sweep: on periodic stimuli with iteration-independent
durations the evolution instants enter a periodic regime ``x(k+1) = x(k)
+ c``.  When the steady gate of :func:`repro.dse.engine.lower_spec`
admits a candidate's duration tables, its program is lowered in steady
mode and the sweep stops as soon as the regime is *certified* (see
:func:`repro.dse.engine.replay_program`), then writes the remaining
iterations arithmetically.  Because the certificate implies the full
sweep would have produced exactly those instants, the objectives are
bit-identical to replay; aperiodic or data-dependent problems fall back
to the full sweep automatically.

:meth:`CompiledProblem.specialize` still binds a candidate into a full
:class:`~repro.core.spec.EquivalentModelSpec` object graph: the public
reference path, never taken when scoring.

The results are identical, instant for instant, to
:func:`~repro.dse.evaluate.evaluate_mapping` -- asserted candidate by
candidate over the whole ``didactic`` space in the test-suite.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..archmodel.architecture import ArchitectureModel
from ..archmodel.workload import (
    ConstantExecutionTime,
    ResourceDependentExecutionTime,
)
from ..campaign.spec import canonical_json
from ..core.builder import (
    _check_resource_isolation,
    build_template,
    resource_schedule_arcs,
    scheduled_resource_entries,
    specialize_template,
)
from ..core.spec import EquivalentModelSpec
from ..environment.stimulus import Stimulus
from ..errors import ModelError, ReproError
from .engine import (
    _TabulatedWeight,
    _TokenTable,
    ArrayProgram,
    Span,
    lower_spec,
    lower_template,
    replay_batch,
    resolve_backend,
)
from .evaluate import (
    EVALUATOR_MODES,
    CandidateEvaluation,
    _record_evaluation,
    evaluate_mapping,
    per_kind_summary,
)
from .problems import DesignProblem, get_problem
from .space import MappingCandidate

__all__ = ["CompiledProblem", "compiled_problem", "EVALUATOR_MODES"]


class CompiledProblem:
    """A design problem compiled for fast repeated candidate evaluation.

    Construction resolves the problem parameters and builds everything a
    candidate evaluation needs that does not depend on the candidate: the
    application and platform models, the stimuli, the allocation-independent
    TDG template lowered onto index tables, and the shared workload-duration
    tables.  :meth:`evaluate` and :meth:`evaluate_batch` score candidates with
    the same objectives as :func:`~repro.dse.evaluate.evaluate_mapping`;
    :meth:`specialize` binds one candidate's mapping into a full
    :class:`~repro.core.spec.EquivalentModelSpec` (the reference path).
    """

    def __init__(
        self,
        problem: DesignProblem,
        parameters: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.problem = get_problem(problem) if isinstance(problem, str) else problem
        self.parameters: Dict[str, Any] = self.problem.parameters(parameters)
        self.application = self.problem.application_factory(self.parameters)
        self.platform = self.problem.platform_factory(self.parameters)
        self.stimuli: Dict[str, Stimulus] = dict(
            self.problem.stimuli_factory(self.parameters)
        )
        self._name = f"dse-{self.problem.name}"
        with telemetry.span(
            "dse.compile.template", category="dse", args={"problem": self.problem.name}
        ):
            self.template = build_template(self.application, name=f"{self._name}-tdg")
        primary = self.template.primary_input
        self._tokens = _TokenTable(self.stimuli.get(primary) if primary else None)
        #: (function, step_index) -> tabulated weight for data-dependent
        #: workloads whose durations do not depend on the serving resource
        #: (one table shared by every candidate).
        self._shared_overrides: Dict[Tuple[str, int], _TabulatedWeight] = {}
        #: (function, step_index) -> resource-dependent workload; bound (and
        #: tabulated) lazily per binding key at specialisation time.
        self._resource_dependent: Dict[Tuple[str, int], ResourceDependentExecutionTime] = (
            dict(self.template.resource_dependent_slots)
        )
        for slot in self.template.execute_slots:
            key = (slot.function, slot.step_index)
            if key in self._resource_dependent:
                continue
            if not isinstance(slot.workload, ConstantExecutionTime):
                self._shared_overrides[key] = _TabulatedWeight(slot.workload, self._tokens)
        #: ((function, step_index), binding key) -> tabulated bound weight.
        #: Heterogeneous banks key duration tables by the resource *class*
        #: the function landed on -- candidates agreeing on the class share
        #: the table, so mixed banks keep the tabulation benefit.
        self._bound_tables: Dict[Tuple[Tuple[str, int], Hashable], _TabulatedWeight] = {}
        self._program = lower_template(self.template, self.stimuli)

    # ------------------------------------------------------------------
    def _candidate_overrides(
        self, candidate: MappingCandidate
    ) -> Dict[Tuple[str, int], _TabulatedWeight]:
        """The weight overrides of one candidate: shared + kind-bound tables."""
        if not self._resource_dependent:
            return self._shared_overrides
        overrides = dict(self._shared_overrides)
        for key, workload in self._resource_dependent.items():
            resource = self.platform.resource(candidate.resource_of(key[0]))
            bound_key = (key, workload.binding_key(resource))
            table = self._bound_tables.get(bound_key)
            if table is None:
                table = _TabulatedWeight(workload.bind(resource), self._tokens)
                self._bound_tables[bound_key] = table
            overrides[key] = table
        return overrides

    def specialize(self, candidate: MappingCandidate) -> EquivalentModelSpec:
        """Bind one candidate mapping into a full equivalent-model spec.

        Raises a :class:`~repro.errors.ReproError` subclass when the candidate
        is infeasible (e.g. its static service orders create a zero-delay
        cycle), exactly like the from-scratch builder.
        """
        telemetry.count("dse.compile.specializations")
        with telemetry.span("dse.compile.specialize", category="dse"):
            mapping = candidate.build_mapping(f"{self._name}-mapping")
            architecture = ArchitectureModel(
                self._name, self.application, self.platform, mapping
            )
            return specialize_template(
                self.template,
                architecture,
                weight_overrides=self._candidate_overrides(candidate),
            )

    # ------------------------------------------------------------------
    def evaluate(
        self, candidate: MappingCandidate, evaluator: str = "replay"
    ) -> CandidateEvaluation:
        """Score one candidate (same objectives as ``evaluate_mapping``).

        A batch of one: ``evaluate_batch([candidate], evaluator)[0]``.
        ``evaluator`` selects the scoring path: ``"replay"`` sweeps every
        iteration, ``"auto"`` stops at the certified periodic regime when
        the problem admits it (and sweeps every iteration when it does not).
        Both modes produce bit-identical objectives.
        """
        return self.evaluate_batch([candidate], evaluator)[0]

    def _lower(self, candidate: MappingCandidate, evaluator: str) -> ArrayProgram:
        """Write what ``candidate``'s mapping decides over the lowered template.

        Raises the :class:`~repro.errors.ReproError` the object-graph path
        (:meth:`specialize`, then the evaluator) raises for an infeasible
        candidate, in the same order: the architecture's validation,
        resource isolation and workload binding here, the graph and
        evaluator checks in :func:`~repro.dse.engine.lower_spec`.
        """
        telemetry.count("dse.compile.specializations")
        with telemetry.span("dse.compile.specialize", category="dse"):
            mapping = candidate.build_mapping(f"{self._name}-mapping")
            architecture = ArchitectureModel(
                self._name, self.application, self.platform, mapping
            )
            architecture.validate()
            _check_resource_isolation(architecture, set(self.template.abstracted_functions))
            tables = self._candidate_overrides(candidate)
            entries = scheduled_resource_entries(self.template, architecture).values()
            schedule_arcs = [
                arc
                for concurrency, slots in entries
                for arc in resource_schedule_arcs(slots, concurrency)
            ]
            resources = [
                mapping.resource_of(slot.function) for slot in self.template.execute_slots
            ]
        return lower_spec(
            self._program, schedule_arcs, tables, resources, steady=evaluator == "auto"
        )

    # ------------------------------------------------------------------
    # batched array evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        candidates: Sequence[MappingCandidate],
        evaluator: str = "replay",
    ) -> List[CandidateEvaluation]:
        """Score a whole generation of candidates with one batched array sweep.

        Per candidate, the candidate's mapping is written over the problem's
        lowered template and the result *lowered* onto flat integer tables
        (:func:`repro.dse.engine.lower_spec`); the programs are replayed
        together by :func:`repro.dse.engine.replay_batch`, which picks the
        sweep of each program.  Nothing carries over from one candidate to
        the next: results are bit-identical, instant for instant and field
        for field (wall-clock and ``backend`` aside), whatever the sweep,
        the batch and its order:

        * infeasible candidates produce the same infeasibility reports;
        * ``"auto"`` candidates whose gate holds are lowered in steady mode
          and stop at their certificate;
        * candidates whose outputs need boundary feedback fall back to
          explicit simulation.

        Each record's ``backend`` names the sweep that produced it;
        infeasible candidates are never swept and name
        :func:`repro.dse.engine.resolve_backend`.  A swept candidate's
        ``wall_seconds`` is its own lowering and assembly plus an equal
        share of the batch sweep, so the batch's records add up to at most
        its wall time; it is provenance, not an objective.
        """
        if evaluator not in EVALUATOR_MODES:
            raise ModelError(
                f"unknown evaluator mode {evaluator!r}; expected one of {EVALUATOR_MODES}"
            )
        candidates = list(candidates)
        results: List[Optional[CandidateEvaluation]] = [None] * len(candidates)
        pending: List[Tuple[int, MappingCandidate, float]] = []
        programs: List[ArrayProgram] = []

        for position, candidate in enumerate(candidates):
            start = time.perf_counter()
            try:
                program = self._lower(candidate, evaluator)
            except ReproError as error:
                # Patching and lowering surface the infeasibility facts
                # (zero-delay cycles, invalid workload durations, delay-0
                # ready arcs) before any sweep.
                results[position] = _infeasible(candidate, error, start)
                continue
            pending.append((position, candidate, time.perf_counter() - start))
            programs.append(program)

        if programs:
            start = time.perf_counter()
            with telemetry.span(
                "dse.compile.replay", category="dse", args={"size": len(programs)}
            ):
                runs, backends = replay_batch(programs)
            share = (time.perf_counter() - start) / len(programs)
            telemetry.count(
                "dse.compile.replay_steps",
                sum(program.iterations for program in programs if program.periods is None),
            )
            for (position, candidate, lowered), program, run, backend in zip(
                pending, programs, runs, backends
            ):
                if run is None:
                    # An output would be accepted later than computed
                    # (boundary feedback): exact explicit simulation.
                    telemetry.count("dse.compile.explicit_fallbacks")
                    telemetry.count("dse.engine.replay_fallbacks")
                    results[position] = self._explicit_fallback(candidate)
                    continue
                offers, actual, spans = run
                results[position] = _record_evaluation(
                    self._assemble(
                        candidate,
                        spans,
                        offers,
                        actual,
                        # the clock of _assemble starts its own time plus
                        # this candidate's lowering and share of the sweep
                        time.perf_counter() - lowered - share,
                        evaluator="replay" if program.periods is None else "steady",
                        backend=backend,
                    )
                )
        return list(results)

    def _explicit_fallback(self, candidate: MappingCandidate) -> CandidateEvaluation:
        """Exact event-driven scoring (records its own evaluation telemetry)."""
        return evaluate_mapping(
            self.application,
            self.platform,
            candidate,
            self.problem.stimuli_factory(self.parameters),
            name=self._name,
        )

    # ------------------------------------------------------------------
    def _assemble(
        self,
        candidate: MappingCandidate,
        spans: Mapping[str, Span],
        offers: Mapping[str, List[int]],
        actual: Mapping[str, List[int]],
        start: float,
        evaluator: str = "replay",
        backend: str = "python",
    ) -> CandidateEvaluation:
        """Extract the objectives (mirror of ``evaluate_mapping``'s epilogue).

        ``spans`` maps each busy resource to its ``(busy, lo, hi)`` as the
        sweep returned them; ``offers`` and ``actual`` span the whole horizon.
        """
        outputs = self.application.external_outputs()
        if not outputs:
            raise ModelError("design-space evaluation needs an external output relation")
        per_output = tuple(
            (spec_rel.name, tuple(actual[spec_rel.name])) for spec_rel in outputs
        )
        instants = per_output[0][1]
        if not instants:
            return CandidateEvaluation(
                candidate=candidate,
                infeasible="the model produced no output instants",
                wall_seconds=time.perf_counter() - start,
                evaluator=evaluator,
                backend=backend,
            )

        inputs = self.application.external_inputs()
        offer_list = offers.get(inputs[0].name, []) if inputs else []
        pairs = min(len(offer_list), len(instants))
        # Exact integer sums (C-speed) instead of a per-item generator; the
        # quotient is the same float because the subtraction is exact.
        mean_latency = (
            (sum(instants[:pairs]) - sum(offer_list[:pairs])) / pairs if pairs else 0.0
        )

        utilization = _utilization(candidate.resources_used(), spans)
        mean_utilization = (
            sum(utilization.values()) / len(utilization) if utilization else 0.0
        )
        resources_by_kind, utilization_by_kind = per_kind_summary(
            self.platform, utilization
        )

        return CandidateEvaluation(
            candidate=candidate,
            iterations=len(instants),
            latency_ps=max(seq[-1] for _, seq in per_output if seq),
            mean_latency_ps=mean_latency,
            tdg_nodes=self.template.node_count,
            resources_used=len(candidate.resources_used()),
            utilization=tuple(sorted(utilization.items())),
            mean_utilization=round(mean_utilization, 4),
            resources_by_kind=resources_by_kind,
            utilization_by_kind=utilization_by_kind,
            wall_seconds=time.perf_counter() - start,
            output_instants=instants,
            per_output_instants=per_output,
            evaluator=evaluator,
            backend=backend,
        )

    def __repr__(self) -> str:
        return (
            f"CompiledProblem({self.problem.name!r}, "
            f"nodes={self.template.node_count})"
        )


def _infeasible(
    candidate: MappingCandidate, error: ReproError, start: float
) -> CandidateEvaluation:
    """Record ``error`` as the infeasibility fact of ``candidate`` (never swept)."""
    return _record_evaluation(
        CandidateEvaluation(
            candidate=candidate,
            infeasible=f"{type(error).__name__}: {error}",
            wall_seconds=time.perf_counter() - start,
            backend=resolve_backend(None),
        )
    )


def _utilization(resources: Sequence[str], spans: Mapping[str, Span]) -> Dict[str, float]:
    """Busy fraction of each of ``resources``, rounded to four places.

    The one window/rounding epilogue of every scoring path.  Equivalent to
    reconstructing the activity trace and running ``busy_profile`` over one
    whole-window bin: the window runs from the earliest ``lo`` to the latest
    ``hi`` of any resource's span, and a resource is busy for its span's
    ``busy`` (the union length of its slots' intervals).
    """
    window_lo = min((lo for _, lo, _ in spans.values()), default=0)
    window_hi = max((hi for _, _, hi in spans.values()), default=0)
    if window_hi <= window_lo:
        return {resource: 0.0 for resource in resources}
    width = window_hi - window_lo
    return {
        resource: round(spans[resource][0] / width, 4) if resource in spans else 0.0
        for resource in resources
    }


# ----------------------------------------------------------------------
# per-process compilation cache
# ----------------------------------------------------------------------
_CACHE: "OrderedDict[Tuple[int, str, str], CompiledProblem]" = OrderedDict()
_CACHE_LIMIT = 4

#: Campaign-job bookkeeping keys that never parameterise the problem itself:
#: the candidate encoding and the problem selector.  Everything else is kept,
#: so problems reading optional parameters absent from ``defaults`` still see
#: them on the compiled path.
_NON_PROBLEM_KEYS = frozenset(("problem", "allocation", "orders"))


def compiled_problem(
    problem: DesignProblem, parameters: Optional[Mapping[str, Any]] = None
) -> CompiledProblem:
    """The (cached) compiled form of ``problem`` under resolved parameters.

    The cache key strips the candidate encoding riding along in a campaign
    job's parameter dict (``allocation``/``orders``/``problem``) so proposals
    do not defeat the cache, and includes the problem object's identity so a
    same-named unregistered problem variant never reuses another problem's
    compilation.  Each process keeps its own small cache; templates are
    compiled at most once per ``(problem, parameters)`` per process.
    """
    resolved = problem.parameters(parameters)
    relevant = {
        key: value for key, value in resolved.items() if key not in _NON_PROBLEM_KEYS
    }
    # id() is stable here: the cached CompiledProblem keeps ``problem`` alive,
    # so its id cannot be reused while the entry exists.
    key = (id(problem), problem.name, canonical_json(relevant))
    compiled = _CACHE.get(key)
    if compiled is None:
        telemetry.count("dse.compile.cache_misses")
        compiled = CompiledProblem(problem, relevant)
        _CACHE[key] = compiled
        while len(_CACHE) > _CACHE_LIMIT:
            _CACHE.popitem(last=False)
    else:
        telemetry.count("dse.compile.cache_hits")
        _CACHE.move_to_end(key)
    return compiled
