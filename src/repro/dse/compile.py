"""Compiled candidate evaluation: one TDG template, many cheap specialisations.

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
* per candidate, the template is *specialised* -- resource bindings and
  service-order arcs only -- via
  :func:`~repro.core.builder.specialize_template`;
* data-dependent workload durations are tabulated per iteration and
  shared across every candidate (the stimulus, and hence the token
  sequence, is identical for all of them);
* each specialisation is lowered onto flat integer tables and replayed
  by the array sweep of :mod:`repro.dse.engine` -- the Reception/Emission
  protocol of the equivalent model as a plain computation loop, with no
  simulation kernel: with the always-ready observer of the paper's
  experiments the boundary exchanges have closed forms.  Whenever that
  closed form would diverge from the event-driven harness (an output
  offered out of order, i.e. a case needing boundary feedback), or a
  weight cannot be tabulated, the evaluation transparently falls back to
  the exact from-scratch path.

Two further accelerations stack on top of the array sweep:

* **Incremental delta-specialisation**: inside :meth:`CompiledProblem.
  evaluate_batch` the previous candidate's specialised graph is kept and
  only the *difference* to the next candidate is applied -- schedule arcs
  of resources whose static service order changed are removed and
  rebuilt, and resource-dependent duration weights are swapped in place.
  The untouched cone of the graph (every data-dependency arc and every
  schedule whose resource kept its order) is reused verbatim, which the
  ``dse.compile.delta_arcs_reused`` counter makes visible.
* **Steady-state evaluation** (``evaluator="steady"``/``"auto"``): on
  periodic stimuli with iteration-independent durations the evolution
  instants enter a periodic regime ``x(k+1) = x(k) + c``.  When
  :meth:`CompiledProblem._steady_gate` admits a candidate, its program is
  lowered in steady mode and the sweep stops as soon as the regime is
  *certified* (see :func:`repro.dse.engine.replay_program`), then writes
  the remaining iterations arithmetically.  Because the certificate
  implies the full sweep would have produced exactly those instants, the
  objectives are bit-identical to replay; aperiodic or data-dependent
  problems fall back to the full sweep automatically.

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
    add_resource_schedule_arcs,
    build_template,
    scheduled_resource_entries,
    specialize_template,
)
from ..core.spec import EquivalentModelSpec, ExecuteNodes
from ..tdg.arc import DependencyArc
from ..environment.stimulus import Stimulus
from ..errors import ModelError, ReproError
from .engine import (
    _TabulatedWeight,
    _TokenTable,
    LoweringUnsupported,
    Span,
    lower_spec,
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


class _DeltaCache:
    """The previous candidate's specialisation, indexed for incremental reuse.

    ``spec`` owns the live graph that delta-specialisation mutates; the other
    fields describe *how* the previous candidate shaped it -- which resource
    ran each function, each scheduled resource's service order and the arcs it
    contributed, and which duration table each resource-dependent execute slot
    was bound to -- so the next candidate only touches what actually differs.
    The cache is private to :meth:`CompiledProblem.evaluate_batch`; the public
    :meth:`CompiledProblem.specialize` always builds a fresh graph.
    """

    __slots__ = ("spec", "resource_of", "schedules", "schedule_arcs", "slot_arcs", "overrides")

    def __init__(
        self,
        spec: EquivalentModelSpec,
        resource_of: Dict[str, str],
        schedules: Dict[str, Tuple[int, Tuple[Tuple[str, int], ...]]],
        schedule_arcs: Dict[str, List[DependencyArc]],
        slot_arcs: Dict[Tuple[str, int], DependencyArc],
        overrides: Mapping[Tuple[str, int], _TabulatedWeight],
    ) -> None:
        self.spec = spec
        self.resource_of = resource_of
        self.schedules = schedules
        self.schedule_arcs = schedule_arcs
        self.slot_arcs = slot_arcs
        self.overrides = overrides


class CompiledProblem:
    """A design problem compiled for fast repeated candidate evaluation.

    Construction resolves the problem parameters and builds everything a
    candidate evaluation needs that does not depend on the candidate: the
    application and platform models, the stimuli, the allocation-independent
    TDG template and the shared workload-duration tables.
    :meth:`specialize` binds one candidate's mapping into a full
    :class:`~repro.core.spec.EquivalentModelSpec`; :meth:`evaluate` scores it
    with the same objectives as :func:`~repro.dse.evaluate.evaluate_mapping`.
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
        #: previous specialisation kept for incremental re-specialisation
        #: (private to :meth:`evaluate_batch`; cleared whenever it goes stale).
        self._delta: Optional[_DeltaCache] = None
        #: (function, step_index) -> (source, target, delay, label) of the
        #: weight arc of each *resource-dependent* execute slot -- the only
        #: template arcs whose weight can change between candidates.
        self._rd_arc_shapes: Dict[Tuple[str, int], Tuple[str, str, int, str]] = {
            arc.slot: (arc.source, arc.target, arc.delay, arc.label)
            for arc in self.template.arcs
            if arc.slot is not None and arc.slot in self._resource_dependent
        }
        #: lazily computed: do all boundary-input stimuli promise a period?
        self._periodic_inputs: Optional[bool] = None
        #: lowering's constant streams and offer schedules, shared by every
        #: batch (``self.stimuli`` keeps the stimulus ``id()`` keys alive).
        self._stream_cache: Dict[Any, List[int]] = {}

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
    # incremental delta-specialisation (private to evaluate_batch())
    # ------------------------------------------------------------------
    def _specialize_for_evaluation(self, candidate: MappingCandidate) -> EquivalentModelSpec:
        """Specialise ``candidate``, reusing the previous candidate's graph.

        The first call (and the first call after any failure) builds a fresh
        specialisation and indexes it; subsequent calls apply only the delta.
        A :class:`~repro.errors.ReproError` from the delta path clears the
        cache before propagating, because the shared graph may have been left
        half-mutated.
        """
        delta = self._delta
        if delta is not None:
            try:
                return self._delta_specialize(candidate, delta)
            except ReproError:
                self._delta = None
                raise
        spec = self.specialize(candidate)
        self._delta = self._capture_delta(candidate, spec)
        return spec

    def _capture_delta(
        self, candidate: MappingCandidate, spec: EquivalentModelSpec
    ) -> _DeltaCache:
        """Index a freshly built specialisation for incremental reuse."""
        graph = spec.graph
        schedule_arcs: Dict[str, List[DependencyArc]] = {}
        for arc in graph.arcs:
            if arc.label in ("service order", "server free"):
                # Schedule arcs always target an execute start node, which
                # specialisation tagged with its serving resource.
                resource = graph.node(arc.target).tags["resource"]
                schedule_arcs.setdefault(resource, []).append(arc)
        slot_arcs: Dict[Tuple[str, int], DependencyArc] = {}
        for slot, (source, target, delay, label) in self._rd_arc_shapes.items():
            for arc in graph.arcs_from(source):
                if arc.target.name == target and arc.delay == delay and arc.label == label:
                    slot_arcs[slot] = arc
                    break
        entry_map = scheduled_resource_entries(self.template, spec.architecture)
        schedules = {
            name: (concurrency, tuple((e.function, e.step_index) for e in entries))
            for name, (concurrency, entries) in entry_map.items()
        }
        resource_of = {
            function: spec.architecture.mapping.resource_of(function)
            for function in self.template.abstracted_functions
        }
        return _DeltaCache(
            spec=spec,
            resource_of=resource_of,
            schedules=schedules,
            schedule_arcs=schedule_arcs,
            slot_arcs=slot_arcs,
            overrides=self._candidate_overrides(candidate),
        )

    def _delta_specialize(
        self, candidate: MappingCandidate, delta: _DeltaCache
    ) -> EquivalentModelSpec:
        """Respecialise the cached graph by applying only the candidate diff.

        Equivalent, instant for instant, to a fresh :meth:`specialize`: the
        graph differs from a fresh build only in arc ordering, which the
        (max, +) evaluation is insensitive to.
        """
        telemetry.count("dse.compile.specializations")
        telemetry.count("dse.compile.delta_specializations")
        with telemetry.span("dse.compile.specialize", category="dse", args={"mode": "delta"}):
            # Validations first: nothing is mutated until the candidate's
            # mapping is known to be structurally sound.
            mapping = candidate.build_mapping(f"{self._name}-mapping")
            architecture = ArchitectureModel(
                self._name, self.application, self.platform, mapping
            )
            architecture.validate()
            _check_resource_isolation(architecture, set(self.template.abstracted_functions))
            overrides = self._candidate_overrides(candidate)
            entry_map = scheduled_resource_entries(self.template, architecture)
            new_schedules = {
                name: (concurrency, tuple((e.function, e.step_index) for e in entries))
                for name, (concurrency, entries) in entry_map.items()
            }

            graph = delta.spec.graph
            arcs_before = graph.arc_count

            # 1. Swap the duration weights of re-bound resource-dependent
            #    slots in place (tables are shared per binding key, so an
            #    unchanged binding is an identity hit).
            swapped = 0
            for slot, arc in delta.slot_arcs.items():
                table = overrides[slot]
                if table is not delta.overrides[slot]:
                    arc.set_weight(table)
                    swapped += 1

            # 2. Rebuild the schedule arcs of resources whose static service
            #    order changed; everything else keeps its arcs verbatim.
            schedule_arcs = dict(delta.schedule_arcs)
            removed = 0
            added = 0
            for name in set(delta.schedules) | set(new_schedules):
                if delta.schedules.get(name) == new_schedules.get(name):
                    continue
                stale = schedule_arcs.pop(name, [])
                if stale:
                    removed += graph.remove_arcs(stale)
                if name in entry_map:
                    concurrency, entries = entry_map[name]
                    fresh = add_resource_schedule_arcs(graph, entries, concurrency)
                    schedule_arcs[name] = fresh
                    added += len(fresh)

            # 3. Re-tag the execute nodes of functions that moved resource.
            resource_of = {
                function: mapping.resource_of(function)
                for function in self.template.abstracted_functions
            }
            for slot in self.template.execute_slots:
                resource = resource_of[slot.function]
                if delta.resource_of[slot.function] != resource:
                    graph.node(slot.start_node).tags["resource"] = resource
                    graph.node(slot.end_node).tags["resource"] = resource

            # An infeasible service order (zero-delay cycle) raises here, and
            # the caller drops the cache: the graph mutations above are then
            # discarded with it.
            graph.validate()

            telemetry.count(
                "dse.compile.delta_arcs_reused", arcs_before - removed - swapped
            )
            telemetry.count("dse.compile.delta_arcs_rebuilt", removed + added + swapped)

            execute_nodes = [
                ExecuteNodes(
                    function=slot.function,
                    step_index=slot.step_index,
                    label=slot.label,
                    resource=resource_of[slot.function],
                    start_node=slot.start_node,
                    end_node=slot.end_node,
                    workload=slot.workload,
                )
                for slot in self.template.execute_slots
            ]
            spec = EquivalentModelSpec(
                architecture=architecture,
                graph=graph,
                abstracted_functions=self.template.abstracted_functions,
                boundary_inputs=list(self.template.boundary_inputs),
                boundary_outputs=list(self.template.boundary_outputs),
                execute_nodes=execute_nodes,
                relation_nodes=dict(self.template.relation_nodes),
                primary_input=self.template.primary_input,
            )
            delta.spec = spec
            delta.resource_of = resource_of
            delta.schedules = new_schedules
            delta.schedule_arcs = schedule_arcs
            delta.overrides = overrides
            return spec

    # ------------------------------------------------------------------
    def evaluate(
        self, candidate: MappingCandidate, evaluator: str = "replay"
    ) -> CandidateEvaluation:
        """Score one candidate (same objectives as ``evaluate_mapping``).

        The pure-Python reference: a batch of one swept on the ``python``
        backend, so the record carries ``backend="python"``.  ``evaluator``
        selects the scoring path: ``"replay"`` sweeps every iteration,
        ``"steady"`` and ``"auto"`` stop at the certified periodic regime
        when the problem admits it (and sweep every iteration when it does
        not).  All modes produce bit-identical objectives.
        """
        return self.evaluate_batch([candidate], evaluator, backend="python")[0]

    def _prepare(self, candidate: MappingCandidate) -> EquivalentModelSpec:
        """Specialise ``candidate`` and check every boundary input has a stimulus."""
        spec = self._specialize_for_evaluation(candidate)
        missing = {b.relation for b in spec.boundary_inputs} - set(self.stimuli)
        if missing:
            raise ModelError(f"missing stimuli for external inputs: {sorted(missing)}")
        return spec

    def _use_steady(self, spec: EquivalentModelSpec, evaluator: str) -> bool:
        """Whether ``evaluator`` asks for, and ``spec`` admits, the steady mode."""
        if evaluator == "replay":
            return False
        reason = self._steady_gate(spec)
        if reason is None:
            return True
        # The steady certificate cannot hold (aperiodic inputs or
        # iteration-dependent durations): sweep every iteration.
        telemetry.count("dse.steady.fallbacks")
        telemetry.count(f"dse.steady.fallback.{reason}")
        return False

    # ------------------------------------------------------------------
    # batched array evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        candidates: Sequence[MappingCandidate],
        evaluator: str = "replay",
        backend: Optional[str] = None,
    ) -> List[CandidateEvaluation]:
        """Score a whole generation of candidates with one batched array sweep.

        Per candidate, the template is delta-specialised, then *lowered* onto
        flat integer tables (:func:`repro.dse.engine.lower_spec`); the
        programs are replayed together on the selected backend -- pure-Python
        list arithmetic or one numpy sweep vectorised across candidates.
        Results are bit-identical, instant for instant and field for field
        (wall-clock and ``backend`` aside), whatever the backend and the
        batch:

        * infeasible candidates produce the same infeasibility reports;
        * ``"steady"``/``"auto"`` candidates whose gate holds are lowered in
          steady mode and stop at their certificate;
        * candidates whose spec refuses to lower (context-dependent
          weights) and candidates whose outputs need boundary feedback fall
          back to explicit simulation.

        ``backend`` is ``"python"``/``"numpy"``/``"auto"``/``None``
        (see :func:`repro.dse.engine.resolve_backend`).  Reported
        ``wall_seconds`` of batch-swept candidates spans from their
        specialisation through the shared sweep; it is provenance, not an
        objective.
        """
        if evaluator not in EVALUATOR_MODES:
            raise ModelError(
                f"unknown evaluator mode {evaluator!r}; expected one of {EVALUATOR_MODES}"
            )
        backend = resolve_backend(backend)
        candidates = list(candidates)
        results: List[Optional[CandidateEvaluation]] = [None] * len(candidates)
        pending: List[Tuple[int, MappingCandidate, EquivalentModelSpec, float, bool]] = []
        programs: List[Any] = []

        for position, candidate in enumerate(candidates):
            start = time.perf_counter()
            try:
                spec = self._prepare(candidate)
                steady = self._use_steady(spec, evaluator)
                iterations = min(len(self.stimuli[b.relation]) for b in spec.boundary_inputs)
                program = lower_spec(
                    spec,
                    self.stimuli,
                    iterations,
                    stream_cache=self._stream_cache,
                    steady=steady,
                )
            except LoweringUnsupported as gate:
                # Context-dependent weights the tables cannot hold: score
                # this candidate by explicit simulation (same instants).
                telemetry.count("dse.engine.lower_fallbacks")
                telemetry.count(f"dse.engine.lower_fallback.{gate.reason}")
                telemetry.count("dse.compile.explicit_fallbacks")
                results[position] = self._explicit_fallback(candidate)
                continue
            except ReproError as error:
                # Specialisation and lowering surface the infeasibility facts
                # (zero-delay cycles, invalid workload durations, delay-0
                # ready arcs) before any sweep.  The record still carries the
                # batch's backend: it was scored under that backend request,
                # and a mixed-backend store should only be reported when
                # sweeps actually mixed.
                results[position] = _infeasible(candidate, error, start, backend)
                continue
            pending.append((position, candidate, spec, start, steady))
            programs.append(program)

        if programs:
            with telemetry.span(
                "dse.compile.replay",
                category="dse",
                args={"backend": backend, "size": len(programs)},
            ):
                runs = replay_batch(programs, backend)
            telemetry.count(
                "dse.compile.replay_steps",
                sum(program.iterations for program in programs if program.periods is None),
            )
            for (position, candidate, spec, start, steady), run in zip(pending, runs):
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
                        spec,
                        spans,
                        offers,
                        actual,
                        start,
                        evaluator="steady" if steady else "replay",
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
    # steady-state evaluation
    # ------------------------------------------------------------------
    def _steady_gate(self, spec: EquivalentModelSpec) -> Optional[str]:
        """Why ``spec`` cannot be steady-evaluated, or ``None`` when it can.

        The gate is what makes extrapolation *sound*: every boundary-input
        stimulus must promise a constant offer period, and every
        data-dependent arc weight must be a tabulated stream whose durations
        are provably identical over the whole horizon.  Only then does an
        observed uniform drift certify the future.
        """
        if self._periodic_inputs is None:
            self._periodic_inputs = all(
                self.stimuli[b.relation].offer_period_ps() is not None
                for b in self.template.boundary_inputs
            )
        if not self._periodic_inputs:
            return "aperiodic_stimulus"
        horizon = min(len(self.stimuli[b.relation]) for b in spec.boundary_inputs)
        for arc in spec.graph.arcs:
            if arc.is_constant:
                continue
            table = arc.weight_callable
            if not isinstance(table, _TabulatedWeight):
                return "dynamic_weight"
            if table.constant_stream_ps(horizon) is None:
                return "data_dependent"
        return None

    # ------------------------------------------------------------------
    def _assemble(
        self,
        candidate: MappingCandidate,
        spec: EquivalentModelSpec,
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
            tdg_nodes=spec.graph.node_count,
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
    candidate: MappingCandidate, error: ReproError, start: float, backend: str = "python"
) -> CandidateEvaluation:
    """Record ``error`` as the infeasibility fact of ``candidate``."""
    return _record_evaluation(
        CandidateEvaluation(
            candidate=candidate,
            infeasible=f"{type(error).__name__}: {error}",
            wall_seconds=time.perf_counter() - start,
            backend=backend,
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
    compilation.  Worker processes each keep their own small cache; templates
    are compiled at most once per ``(problem, parameters)`` per process.
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
