"""Automatic construction of the temporal dependency graph.

The paper obtains its formal model "directly from the architecture
description and not from a prior execution" (Section II).  This module
is that construction: given an :class:`~repro.archmodel.architecture
.ArchitectureModel` and the subset of functions to abstract, it derives
the evolution-instant equations of the timing semantics documented in
:mod:`repro.archmodel` and materialises them as a
:class:`~repro.tdg.graph.TemporalDependencyGraph`, together with the
boundary bookkeeping collected in an
:class:`~repro.core.spec.EquivalentModelSpec`.

The construction runs in two phases:

* :func:`build_template` -- the *allocation-independent* phase.  From
  the application alone it classifies relations against the abstracted
  group, creates the node vocabulary, lays every data-dependency arc
  and collects the boundary bookkeeping into an
  :class:`~repro.core.spec.EquivalentModelTemplate`.  Nothing here
  depends on which resource runs which function.
* :func:`specialize_template` -- the *per-mapping* phase.  It replays
  the template into a fresh graph, binds each execute step to its
  allocated resource and adds the service-order / server-availability
  arcs implied by the mapping's static schedules.

:func:`build_equivalent_spec` composes the two and remains the one-shot
public entry point.  The mapping-dependent rule is itself split in two:
:func:`scheduled_resource_entries` (each scheduled resource's execute
slots in service order) and :func:`resource_schedule_arcs` (the arcs
those slots imply).  Design-space exploration
(:class:`repro.dse.compile.CompiledProblem`) lowers one template per
problem onto index tables and writes each candidate's schedule arcs into
them through these two functions, without building a graph.

Node vocabulary
---------------
========================  =====================================================
``x[M]``                  exchange instant of relation ``M`` (rendezvous), or
                          the boundary-exchange instant of a boundary relation
``w[M]`` / ``r[M]``       write / read completion instants of a FIFO relation
``ready[M]``              readiness of the abstracted consumer of boundary
                          input ``M`` (peeked before accepting the next item)
``offer[M]``              instant at which the abstracted producer offers data
                          on boundary output ``M`` (the computed ``y(k)``)
``start[F#i:L]``          start of execute step ``i`` (label ``L``) of
                          function ``F`` on its resource
``end[F#i:L]``            completion of that execution
``delay[F#i]``            completion of a resource-free delay step
========================  =====================================================

Supported groupings
-------------------
* The abstracted functions must not share a processing resource with a
  function left outside the group (the graph could not know when the
  outside function occupies the resource).
* Each boundary-input relation must be read as the *first* step of its
  abstracted consumer, so that the consumer's readiness only depends on
  previous-iteration instants (this is what lets the Reception process
  evaluate it before accepting the next item).
* When the group has several boundary inputs they are accepted in a
  fixed order per iteration (application declaration order); this
  matches the statically-scheduled dataflow assumption of the paper.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..archmodel.application import ApplicationModel, RelationKind, RelationSpec
from ..archmodel.architecture import ArchitectureModel
from ..archmodel.primitives import DelayStep, ExecuteStep, ReadStep, WriteStep
from ..archmodel.workload import (
    ConstantExecutionTime,
    ExecutionTimeModel,
    ResourceDependentExecutionTime,
)
from ..errors import ModelError
from ..kernel.simtime import Duration
from ..tdg.arc import WorkloadWeight
from ..tdg.graph import TemporalDependencyGraph
from ..tdg.node import NodeKind
from .spec import (
    BoundaryInput,
    BoundaryOutput,
    EquivalentModelSpec,
    EquivalentModelTemplate,
    ExecuteNodes,
    TemplateArc,
    TemplateExecute,
    TemplateNode,
)

__all__ = [
    "build_equivalent_spec",
    "build_template",
    "specialize_template",
    "scheduled_resource_entries",
    "resource_schedule_arcs",
]


def workload_weight(workload: ExecutionTimeModel):
    """Arc weight for an execute step's workload.

    Constant workloads become constant :class:`Duration` weights (keeping the
    graph exportable to the linear matrix form of equations (7)-(10)); every
    other model becomes a per-iteration callable.
    """
    if isinstance(workload, ConstantExecutionTime):
        return Duration(workload.duration_ps(0, None))
    return WorkloadWeight(workload)


def build_template(
    application: ApplicationModel,
    abstract_functions: Optional[Iterable[str]] = None,
    name: Optional[str] = None,
) -> EquivalentModelTemplate:
    """Compile the allocation-independent part of an equivalent model.

    Parameters
    ----------
    application:
        The application whose functions are being abstracted.  The template
        depends on the application only, never on platform or mapping, so one
        template serves every candidate mapping of a design-space search.
    abstract_functions:
        Names of the functions to group into the equivalent model.  By default
        every application function is abstracted (the whole architecture
        becomes a single equivalent model, as in the paper's experiments).
    name:
        Optional name for graphs specialised from this template.
    """
    application.validate()
    abstracted = _resolve_abstracted(application, abstract_functions)
    abstracted_set: Set[str] = set(abstracted)

    relations = application.relations()

    # ------------------------------------------------------------------
    # classify relations with respect to the abstracted group
    # ------------------------------------------------------------------
    internal_relations: List[RelationSpec] = []
    input_relations: List[RelationSpec] = []
    output_relations: List[RelationSpec] = []
    for spec in relations.values():
        producer_in = spec.producer in abstracted_set if spec.producer else False
        consumer_in = spec.consumer in abstracted_set if spec.consumer else False
        if producer_in and consumer_in:
            internal_relations.append(spec)
        elif consumer_in:
            input_relations.append(spec)
        elif producer_in:
            output_relations.append(spec)

    if not input_relations:
        raise ModelError(
            "the abstracted group has no boundary input relation; nothing would ever "
            "trigger the equivalent model"
        )
    _check_no_intra_iteration_feedback(
        application, abstracted_set, input_relations, output_relations
    )

    # ------------------------------------------------------------------
    # pass 1: create node definitions, remember each step's completion node
    # ------------------------------------------------------------------
    nodes: List[TemplateNode] = []
    relation_nodes: Dict[str, str] = {}
    fifo_read_nodes: Dict[str, str] = {}
    boundary_inputs: List[BoundaryInput] = []
    boundary_outputs: List[BoundaryOutput] = []
    execute_slots: List[TemplateExecute] = []
    # (function, step_index) -> completion node name
    completion: Dict[Tuple[str, int], str] = {}

    for spec in internal_relations:
        if spec.kind is RelationKind.FIFO:
            write_node = f"w[{spec.name}]"
            read_node = f"r[{spec.name}]"
            nodes.append(
                TemplateNode(write_node, NodeKind.INTERNAL,
                             {"kind": "fifo_write", "relation": spec.name})
            )
            nodes.append(
                TemplateNode(read_node, NodeKind.INTERNAL,
                             {"kind": "fifo_read", "relation": spec.name})
            )
            relation_nodes[spec.name] = write_node
            fifo_read_nodes[spec.name] = read_node
        else:
            node = f"x[{spec.name}]"
            nodes.append(
                TemplateNode(node, NodeKind.INTERNAL,
                             {"kind": "exchange", "relation": spec.name})
            )
            relation_nodes[spec.name] = node

    for spec in input_relations:
        exchange = f"x[{spec.name}]"
        ready = f"ready[{spec.name}]"
        nodes.append(
            TemplateNode(exchange, NodeKind.INPUT,
                         {"kind": "boundary_input", "relation": spec.name})
        )
        nodes.append(
            TemplateNode(ready, NodeKind.INTERNAL,
                         {"kind": "input_ready", "relation": spec.name})
        )
        relation_nodes[spec.name] = exchange
        boundary_inputs.append(
            BoundaryInput(
                relation=spec.name,
                exchange_node=exchange,
                ready_node=ready,
                consumer=spec.consumer,
            )
        )

    for spec in output_relations:
        offer = f"offer[{spec.name}]"
        exchange = f"x[{spec.name}]"
        nodes.append(
            TemplateNode(offer, NodeKind.OUTPUT,
                         {"kind": "boundary_offer", "relation": spec.name})
        )
        nodes.append(
            TemplateNode(exchange, NodeKind.INTERNAL,
                         {"kind": "boundary_output", "relation": spec.name})
        )
        relation_nodes[spec.name] = exchange
        boundary_outputs.append(
            BoundaryOutput(
                relation=spec.name,
                offer_node=offer,
                exchange_node=exchange,
                producer=spec.producer,
            )
        )

    input_relation_names = {spec.name for spec in input_relations}
    output_relation_names = {spec.name for spec in output_relations}

    for function_name in abstracted:
        function = application.function(function_name)
        for step_index, step in enumerate(function.steps):
            if isinstance(step, ReadStep):
                relation = step.relation
                if relation in fifo_read_nodes:
                    completion[(function_name, step_index)] = fifo_read_nodes[relation]
                else:
                    completion[(function_name, step_index)] = relation_nodes[relation]
            elif isinstance(step, WriteStep):
                completion[(function_name, step_index)] = relation_nodes[step.relation]
            elif isinstance(step, ExecuteStep):
                start = f"start[{function_name}#{step_index}:{step.label}]"
                end = f"end[{function_name}#{step_index}:{step.label}]"
                tags = {
                    "function": function_name,
                    "label": step.label,
                    "step_index": step_index,
                }
                nodes.append(
                    TemplateNode(start, NodeKind.INTERNAL, dict(tags, kind="execute_start"))
                )
                nodes.append(TemplateNode(end, NodeKind.INTERNAL, dict(tags, kind="execute_end")))
                completion[(function_name, step_index)] = end
                execute_slots.append(
                    TemplateExecute(
                        function=function_name,
                        step_index=step_index,
                        label=step.label,
                        start_node=start,
                        end_node=end,
                        workload=step.workload,
                    )
                )
            elif isinstance(step, DelayStep):
                node = f"delay[{function_name}#{step_index}]"
                nodes.append(
                    TemplateNode(
                        node, NodeKind.INTERNAL,
                        {"kind": "delay", "function": function_name, "step_index": step_index},
                    )
                )
                completion[(function_name, step_index)] = node
            else:  # pragma: no cover - new primitives must be handled explicitly
                raise ModelError(f"unsupported behaviour step kind {step.kind!r}")

    # ------------------------------------------------------------------
    # pass 2: allocation-independent arcs (resource arcs are bound later)
    # ------------------------------------------------------------------
    arcs: List[TemplateArc] = []

    def previous_completion(function_name: str, step_index: int) -> Tuple[str, int]:
        """Completion node and iteration delay of the step preceding ``step_index``."""
        function = application.function(function_name)
        if step_index > 0:
            return completion[(function_name, step_index - 1)], 0
        last_index = function.step_count - 1
        return completion[(function_name, last_index)], 1

    for function_name in abstracted:
        function = application.function(function_name)
        for step_index, step in enumerate(function.steps):
            prev_node, prev_delay = previous_completion(function_name, step_index)
            if isinstance(step, ReadStep):
                relation = step.relation
                spec = relations[relation]
                if relation in input_relation_names:
                    ready = f"ready[{relation}]"
                    if prev_delay == 0:
                        raise ModelError(
                            f"boundary input {relation!r} is read as step {step_index} of "
                            f"{function_name!r}; the dynamic computation method requires "
                            "boundary inputs to be read as the first step of their consumer"
                        )
                    arcs.append(
                        TemplateArc(prev_node, ready, delay=prev_delay, label="consumer ready")
                    )
                elif spec.kind is RelationKind.FIFO:
                    read_node = fifo_read_nodes[relation]
                    arcs.append(
                        TemplateArc(prev_node, read_node, delay=prev_delay, label="consumer ready")
                    )
                    arcs.append(
                        TemplateArc(relation_nodes[relation], read_node, delay=0,
                                    label="data available")
                    )
                else:
                    arcs.append(
                        TemplateArc(prev_node, relation_nodes[relation], delay=prev_delay,
                                    label="consumer ready")
                    )
            elif isinstance(step, WriteStep):
                relation = step.relation
                spec = relations[relation]
                if relation in output_relation_names:
                    offer = f"offer[{relation}]"
                    arcs.append(
                        TemplateArc(prev_node, offer, delay=prev_delay, label="producer ready")
                    )
                    arcs.append(
                        TemplateArc(offer, relation_nodes[relation], delay=0, label="exchange")
                    )
                elif spec.kind is RelationKind.FIFO:
                    write_node = relation_nodes[relation]
                    arcs.append(
                        TemplateArc(
                            prev_node, write_node, delay=prev_delay, label="producer ready"
                        )
                    )
                    if spec.capacity is not None:
                        arcs.append(
                            TemplateArc(
                                fifo_read_nodes[relation],
                                write_node,
                                delay=spec.capacity,
                                label="back-pressure",
                            )
                        )
                else:
                    arcs.append(
                        TemplateArc(prev_node, relation_nodes[relation], delay=prev_delay,
                                    label="producer ready")
                    )
            elif isinstance(step, ExecuteStep):
                entry_start = f"start[{function_name}#{step_index}:{step.label}]"
                entry_end = f"end[{function_name}#{step_index}:{step.label}]"
                arcs.append(
                    TemplateArc(prev_node, entry_start, delay=prev_delay, label="data ready")
                )
                arcs.append(
                    TemplateArc(
                        entry_start,
                        entry_end,
                        weight=workload_weight(step.workload),
                        delay=0,
                        label=step.label,
                        slot=(function_name, step_index),
                    )
                )
            elif isinstance(step, DelayStep):
                node = completion[(function_name, step_index)]
                arcs.append(TemplateArc(prev_node, node, weight=step.duration, delay=prev_delay))

    primary_input = boundary_inputs[0].relation if boundary_inputs else None
    return EquivalentModelTemplate(
        application=application,
        name=name or f"{application.name}-tdg",
        abstracted_functions=tuple(abstracted),
        nodes=tuple(nodes),
        arcs=tuple(arcs),
        execute_slots=tuple(execute_slots),
        boundary_inputs=tuple(_sorted_by_application_order(application, boundary_inputs)),
        boundary_outputs=tuple(_sorted_by_application_order(application, boundary_outputs)),
        relation_nodes=relation_nodes,
        primary_input=primary_input,
        resource_dependent_slots={
            (slot.function, slot.step_index): slot.workload
            for slot in execute_slots
            if isinstance(slot.workload, ResourceDependentExecutionTime)
        },
    )


def specialize_template(
    template: EquivalentModelTemplate,
    architecture: ArchitectureModel,
    name: Optional[str] = None,
    weight_overrides: Optional[Mapping[Tuple[str, int], Any]] = None,
) -> EquivalentModelSpec:
    """Bind a template to one concrete mapping.

    Replays the template's nodes and arcs into a fresh graph, attaches each
    execute step to its allocated resource and adds the service-order and
    server-availability arcs implied by the mapping's static schedules.  The
    result is equivalent, instant for instant, to calling
    :func:`build_equivalent_spec` from scratch on ``architecture``.

    ``weight_overrides`` optionally substitutes the workload weight of
    selected execute steps (keyed by ``(function, step_index)``); the compiled
    DSE evaluator uses it to share per-iteration duration tables across
    candidates.
    """
    architecture.validate()
    if architecture.application is not template.application:
        # Identity, not structural equality: the template's arcs embed the
        # application's workload model objects, so an equal-*looking*
        # application would be silently timed with the template's workloads.
        raise ModelError(
            "specialize_template requires an architecture built on the template's "
            f"own application instance ({template.application.name!r}); rebuild the "
            "template for this application instead"
        )
    abstracted_set = set(template.abstracted_functions)
    _check_resource_isolation(architecture, abstracted_set)

    graph = TemporalDependencyGraph(name or template.name)

    resource_of = {
        function: architecture.mapping.resource_of(function)
        for function in template.abstracted_functions
    }
    execute_node_resource: Dict[str, str] = {}
    for slot in template.execute_slots:
        resource = resource_of[slot.function]
        execute_node_resource[slot.start_node] = resource
        execute_node_resource[slot.end_node] = resource

    for node in template.nodes:
        tags = node.tags
        resource = execute_node_resource.get(node.name)
        if resource is not None:
            tags = dict(tags or {}, resource=resource)
        graph.add_node(node.name, node.kind, tags)

    overrides = weight_overrides or {}
    resource_dependent = template.resource_dependent_slots
    for arc in template.arcs:
        weight = arc.weight
        if arc.slot is not None:
            if arc.slot in overrides:
                weight = overrides[arc.slot]
            elif arc.slot in resource_dependent:
                # Kind-aware workloads only become timeable once the mapping
                # fixes the serving resource: bind here, per specialisation.
                resource = architecture.platform.resource(resource_of[arc.slot[0]])
                weight = workload_weight(resource_dependent[arc.slot].bind(resource))
        graph.add_arc(arc.source, arc.target, weight=weight, delay=arc.delay, label=arc.label)

    _add_schedule_arcs(template, architecture, graph)
    graph.validate()

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
        for slot in template.execute_slots
    ]
    return EquivalentModelSpec(
        architecture=architecture,
        graph=graph,
        abstracted_functions=template.abstracted_functions,
        boundary_inputs=list(template.boundary_inputs),
        boundary_outputs=list(template.boundary_outputs),
        execute_nodes=execute_nodes,
        relation_nodes=dict(template.relation_nodes),
        primary_input=template.primary_input,
    )


def build_equivalent_spec(
    architecture: ArchitectureModel,
    abstract_functions: Optional[Iterable[str]] = None,
    name: Optional[str] = None,
) -> EquivalentModelSpec:
    """Compile (part of) an architecture into an equivalent-model specification.

    One-shot composition of :func:`build_template` (allocation-independent)
    and :func:`specialize_template` (mapping-dependent).  Callers evaluating
    many mappings of the same application should keep the template and call
    :func:`specialize_template` per mapping instead.

    Parameters
    ----------
    architecture:
        The validated architecture model.
    abstract_functions:
        Names of the functions to group into the equivalent model.  By default
        every application function is abstracted (the whole architecture
        becomes a single equivalent model, as in the paper's experiments).
    name:
        Optional name for the generated graph.
    """
    architecture.validate()
    abstracted = _resolve_abstracted(architecture.application, abstract_functions)
    # Isolation is checked before the template's boundary analysis so that a
    # shared-resource grouping is reported as such, not as a feedback problem.
    _check_resource_isolation(architecture, set(abstracted))
    template = build_template(
        architecture.application,
        abstracted,
        name=name or f"{architecture.name}-tdg",
    )
    return specialize_template(template, architecture)


def _resolve_abstracted(
    application: ApplicationModel, abstract_functions: Optional[Iterable[str]]
) -> List[str]:
    """Normalise and check the abstracted-function selection."""
    all_functions = [function.name for function in application.functions]
    if abstract_functions is None:
        return all_functions
    abstracted = list(abstract_functions)
    unknown = set(abstracted) - set(all_functions)
    if unknown:
        raise ModelError(f"cannot abstract unknown functions: {sorted(unknown)}")
    if not abstracted:
        raise ModelError("the abstracted group must contain at least one function")
    return abstracted


def scheduled_resource_entries(
    template: EquivalentModelTemplate,
    architecture: ArchitectureModel,
) -> Dict[str, Tuple[int, List[TemplateExecute]]]:
    """Per scheduled resource: its concurrency and execute slots in service order.

    Resources whose schedule serves functions outside the abstracted group are
    omitted (isolation guarantees a schedule is never split between inside and
    outside functions).  This is the mapping-dependent half of the schedule-arc
    construction; :func:`resource_schedule_arcs` is the other.
    """
    execute_by_slot: Dict[Tuple[str, int], TemplateExecute] = {
        (slot.function, slot.step_index): slot for slot in template.execute_slots
    }
    schedules = architecture.resource_schedules()
    result: Dict[str, Tuple[int, List[TemplateExecute]]] = {}
    for resource in architecture.platform.resources:
        concurrency = resource.concurrency
        if concurrency is None:
            continue
        schedule = schedules.get(resource.name) or []
        entries = [execute_by_slot.get((slot.function, slot.step_index)) for slot in schedule]
        if not schedule or entries[0] is None:
            continue
        result[resource.name] = (concurrency, entries)
    return result


def resource_schedule_arcs(
    entries: List[TemplateExecute], concurrency: int
) -> Iterator[Tuple[str, str, int, str]]:
    """The service-order and server-availability arcs of one scheduled resource.

    ``entries`` are the resource's execute slots in static service order; each
    arc is yielded as ``(source node, target node, delay, label)``, with a zero
    weight.  The one schedule-arc rule, shared by :func:`specialize_template`
    and the compiled DSE path, which writes the arcs into its lowered template
    tables instead of a graph.
    """
    slots = len(entries)

    def node_at(position: int, offset: int) -> Tuple[TemplateExecute, int]:
        """Slot ``offset`` positions before ``position`` and its iteration delay."""
        target = position - offset
        delay = 0
        while target < 0:
            target += slots
            delay += 1
        return entries[target], delay

    for position, entry in enumerate(entries):
        # Service order: an execution cannot start before the previous slot
        # started.  (With a single slot per iteration this degenerates to
        # start(k) >= start(k-1), which is redundant but harmless.)
        previous_entry, previous_delay = node_at(position, 1)
        yield previous_entry.start_node, entry.start_node, previous_delay, "service order"
        # Server availability: at most `concurrency` executions in flight,
        # so this slot cannot start before the slot `concurrency` positions
        # earlier has completed.
        server_entry, server_delay = node_at(position, concurrency)
        yield server_entry.end_node, entry.start_node, server_delay, "server free"


def _add_schedule_arcs(
    template: EquivalentModelTemplate,
    architecture: ArchitectureModel,
    graph: TemporalDependencyGraph,
) -> None:
    """Add the service-order and server-availability arcs of every execute step."""
    for concurrency, entries in scheduled_resource_entries(template, architecture).values():
        for source, target, delay, label in resource_schedule_arcs(entries, concurrency):
            graph.add_arc(source, target, delay=delay, label=label)


def _check_no_intra_iteration_feedback(
    application: ApplicationModel,
    abstracted: Set[str],
    input_relations: List[RelationSpec],
    output_relations: List[RelationSpec],
) -> None:
    """Reject groupings whose outputs feed back into their inputs through outside functions.

    The Reception process accepts every boundary input of iteration ``k``
    *before* running ``ComputeInstant()`` and emitting any output of that
    iteration.  If a non-abstracted function needs a boundary output of
    iteration ``k`` to produce a boundary input of the same iteration, the two
    sides wait for each other and the model deadlocks.  The check is a
    conservative reachability analysis over the non-abstracted functions
    (step ordering inside those functions is ignored).
    """
    # Directed reachability among outside functions through outside relations.
    outside_edges: Dict[str, Set[str]] = {}
    for spec in application.relations().values():
        producer_outside = spec.producer is not None and spec.producer not in abstracted
        consumer_outside = spec.consumer is not None and spec.consumer not in abstracted
        if producer_outside and consumer_outside:
            outside_edges.setdefault(spec.producer, set()).add(spec.consumer)

    def reachable_from(start: str) -> Set[str]:
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for successor in outside_edges.get(current, ()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    input_producers = {
        spec.producer for spec in input_relations if spec.producer is not None
    }
    for output in output_relations:
        if output.consumer is None:
            continue
        reachable = reachable_from(output.consumer)
        blocking = reachable & input_producers
        if blocking:
            raise ModelError(
                f"unsupported grouping: boundary output {output.name!r} is consumed by "
                f"{output.consumer!r}, which (directly or indirectly) produces the boundary "
                f"input(s) of function(s) {sorted(blocking)} within the same iteration; the "
                "sequential Reception process would deadlock.  Extend the group so the "
                "feedback path stays inside it, or group from the output side of the "
                "application (see repro.core.partition)"
            )


def _check_resource_isolation(
    architecture: ArchitectureModel, abstracted: Set[str]
) -> None:
    """A resource must be used either only inside or only outside the group."""
    for resource in architecture.platform.resources:
        users = architecture.mapping.functions_on(resource.name)
        inside = [user for user in users if user in abstracted]
        outside = [user for user in users if user not in abstracted]
        if inside and outside:
            raise ModelError(
                f"resource {resource.name!r} is shared between abstracted functions "
                f"{inside} and non-abstracted functions {outside}; the equivalent model "
                "cannot compute instants for a resource it does not fully own"
            )


def _sorted_by_application_order(application: ApplicationModel, boundaries):
    """Order boundary records by (function declaration order, reading/writing step index)."""
    function_order = {
        function.name: index for index, function in enumerate(application.functions)
    }

    def sort_key(boundary) -> Tuple[int, int]:
        owner = getattr(boundary, "consumer", None) or getattr(boundary, "producer", None)
        function = application.function(owner)
        step_position = 0
        for index, step in enumerate(function.steps):
            if getattr(step, "relation", None) == boundary.relation:
                step_position = index
                break
        return (function_order[owner], step_position)

    return sorted(boundaries, key=sort_key)
