"""The mapping design space: candidate encoding, enumeration and mutation.

The paper makes one performance evaluation cheap; a design-space
exploration needs *many* -- one per candidate mapping decision.  This
module models the decision space itself:

* **allocation moves**: which platform resource runs each application
  function, subject to an optional resource-count constraint
  (``max_resources``);
* **static service orders**: for a serialized (concurrency-1) resource
  serving several execute steps, the cyclic order in which it serves
  them -- enumerated as interleavings that preserve each function's
  internal step order;
* **canonical encoding**: a :class:`MappingCandidate` is a frozen,
  hashable value object.  Interchangeable resources (same concurrency,
  kind and frequency) are relabelled so that two allocations differing
  only by a renaming of identical resources collapse to one candidate --
  the digest of the canonical JSON form keys the result-store cache.

A candidate is *encoded* here and *judged* by
:mod:`repro.dse.evaluate`: orders that contradict same-iteration data
dependencies produce a zero-delay cycle in the temporal dependency
graph and are reported as infeasible rather than rejected up front, so
the space stays purely combinatorial.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import telemetry
from ..archmodel.application import ApplicationModel, RelationKind
from ..archmodel.mapping import Mapping as ArchMapping
from ..archmodel.platform import PlatformModel, ProcessingResource, ResourceKind
from ..archmodel.primitives import ReadStep, WriteStep
from ..campaign.spec import canonical_json, plain_canonical_json
from ..errors import ModelError

__all__ = ["MappingCandidate", "DesignSpace", "EligibilitySpec"]

Slot = Tuple[str, int]  # (function name, step index) of one execute step

#: Allocation constraint: either ``{function: iterable of ResourceKind (or
#: kind strings)}`` or a predicate ``(function, resource) -> bool``.  Functions
#: absent from a mapping form are eligible everywhere.
EligibilitySpec = Union[
    Mapping[str, Iterable[Union[ResourceKind, str]]],
    Callable[[str, ProcessingResource], bool],
]


@dataclass(frozen=True)
class MappingCandidate:
    """One point of the mapping design space, in canonical form.

    ``allocation`` lists ``(function, resource)`` pairs in application
    declaration order; ``orders`` lists, per serialized resource with more
    than one execute slot, the static service order as ``(function,
    step_index)`` pairs.  Instances are hashable and compare by value, so
    they can key caches and dedupe sets directly.
    """

    allocation: Tuple[Tuple[str, str], ...]
    orders: Tuple[Tuple[str, Tuple[Slot, ...]], ...] = ()

    # -- queries ---------------------------------------------------------------
    def resource_of(self, function: str) -> str:
        for name, resource in self.allocation:
            if name == function:
                return resource
        raise ModelError(f"candidate does not allocate function {function!r}")

    def resources_used(self) -> Tuple[str, ...]:
        """Distinct resources receiving at least one function, in first-use order."""
        seen: Dict[str, None] = {}
        for _, resource in self.allocation:
            seen.setdefault(resource, None)
        return tuple(seen)

    # -- serialisation -----------------------------------------------------------
    def to_parameters(self) -> Dict[str, object]:
        """JSON-safe form, mergeable into a campaign scenario's parameters."""
        return {
            "allocation": {function: resource for function, resource in self.allocation},
            "orders": {
                resource: [[function, index] for function, index in order]
                for resource, order in self.orders
            },
        }

    @classmethod
    def from_parameters(cls, parameters: Mapping[str, object]) -> "MappingCandidate":
        """Rebuild a candidate from :meth:`to_parameters` output (worker-side)."""
        try:
            allocation = parameters["allocation"]
            orders = parameters.get("orders") or {}
        except (KeyError, TypeError):
            raise ModelError("candidate parameters need an 'allocation' mapping") from None
        return cls(
            allocation=tuple(sorted((str(f), str(r)) for f, r in dict(allocation).items())),
            orders=tuple(
                (str(resource), tuple((str(f), int(i)) for f, i in order))
                for resource, order in sorted(dict(orders).items())
            ),
        )

    def digest(self) -> str:
        """Content hash of the canonical encoding (stable across processes).

        Computed on the first call and kept in the instance ``__dict__``;
        the memo is not a field, so equality and hashing are unaffected.
        """
        memo = self.__dict__.get("_digest")
        if memo is None:
            parameters = self.to_parameters()
            text = (plain_canonical_json if self._plain() else canonical_json)(parameters)
            memo = self.__dict__["_digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return memo

    def _plain(self) -> bool:
        """True when every name is exactly ``str`` and every step index ``int``.

        Such a candidate's parameters need no canonical walk; anything else
        goes through :func:`~repro.campaign.spec.canonical_json`, which
        validates (or rejects) it.
        """
        for function, resource in self.allocation:
            if type(function) is not str or type(resource) is not str:
                return False
        for resource, order in self.orders:
            if type(resource) is not str:
                return False
            for function, index in order:
                if type(function) is not str or type(index) is not int:
                    return False
        return True

    # -- realisation ------------------------------------------------------------
    def build_mapping(self, name: str = "candidate") -> ArchMapping:
        """Materialise the candidate as an :class:`~repro.archmodel.mapping.Mapping`."""
        mapping = ArchMapping(name)
        for function, resource in self.allocation:
            mapping.allocate(function, resource)
        for resource, order in self.orders:
            mapping.set_static_order(resource, list(order))
        return mapping

    def describe(self) -> str:
        """One-line human-readable summary (``P1:{F1,F2} P2:{F3}``)."""
        groups: Dict[str, List[str]] = {}
        for function, resource in self.allocation:
            groups.setdefault(resource, []).append(function)
        return " ".join(
            f"{resource}:{{{','.join(groups[resource])}}}" for resource in self.resources_used()
        )

    def __repr__(self) -> str:
        return f"MappingCandidate({self.describe()!r})"


def _interleavings(sequences: Sequence[Tuple[Slot, ...]]) -> Iterator[Tuple[Slot, ...]]:
    """Every merge of ``sequences`` preserving each sequence's internal order."""
    if all(not sequence for sequence in sequences):
        yield ()
        return
    for index, sequence in enumerate(sequences):
        if not sequence:
            continue
        head, rest = sequence[0], sequence[1:]
        remaining = list(sequences)
        remaining[index] = rest
        for tail in _interleavings(remaining):
            yield (head,) + tail


class DesignSpace:
    """Candidate mappings of one application onto one platform resource bank.

    Parameters
    ----------
    application:
        The application whose functions are being mapped.
    platform:
        The bank of available resources.  Resources with identical
        ``(concurrency, kind, frequency)`` are interchangeable; canonical
        candidates always use the lowest-indexed representatives first.
    max_resources:
        Upper bound on the number of distinct resources a candidate may use
        (the resource-count constraint).  Default: the bank size.
    explore_orders:
        When True (default), static service orders of serialized resources
        are part of the space; when False every candidate uses the
        dependency-aware default order.
    strict:
        When True (default), :meth:`random_candidate`, :meth:`mutate` and
        :meth:`neighbors` only propose service orders consistent with the
        same-iteration data dependencies (sampled as random linear extensions
        of the dependency partial order underlying
        :meth:`_slot_topological_index`), so random proposals are
        order-feasible instead of mostly producing zero-delay cycles.  Pass
        ``strict=False`` to restore unconstrained uniform interleavings, e.g.
        to deliberately probe how a strategy copes with infeasibility.
        Enumeration (:meth:`enumerate_candidates`) always covers the whole
        combinatorial space regardless.
    eligible:
        Optional allocation constraint for heterogeneous banks: either a
        mapping ``{function: kinds}`` naming the :class:`~repro.archmodel
        .platform.ResourceKind` values the function may run on (functions
        absent from the mapping run anywhere), or a predicate ``(function,
        resource) -> bool``.  Every construction path -- canonicalisation,
        enumeration, default/random sampling, mutation and crossover -- only
        produces candidates allocating each function to an eligible resource.
        Eligibility must be uniform within each interchangeability class
        (resources of equal concurrency/kind/frequency), because canonical
        relabelling moves allocations freely inside a class.
    """

    def __init__(
        self,
        application: ApplicationModel,
        platform: PlatformModel,
        max_resources: Optional[int] = None,
        explore_orders: bool = True,
        strict: bool = True,
        eligible: Optional[EligibilitySpec] = None,
    ) -> None:
        application.validate()
        platform.validate()
        self.application = application
        self.platform = platform
        self.functions: Tuple[str, ...] = tuple(
            function.name for function in application.functions
        )
        self.resources: Tuple[ProcessingResource, ...] = platform.resources
        if max_resources is None:
            max_resources = len(self.resources)
        if not 1 <= max_resources <= len(self.resources):
            raise ModelError(
                f"max_resources must be in [1, {len(self.resources)}], got {max_resources}"
            )
        self.max_resources = max_resources
        self.explore_orders = explore_orders
        self.strict = strict
        self.has_eligibility = eligible is not None
        #: Resources grouped by interchangeability class, in bank order.
        self._by_class: Dict[Tuple, List[ProcessingResource]] = {}
        for resource in self.resources:
            self._by_class.setdefault(self._interchange_class(resource), []).append(resource)
        self._eligible = self._resolve_eligibility(eligible)
        #: Per function, its execute slots in behaviour order.
        self._slots: Dict[str, Tuple[Slot, ...]] = {
            function.name: tuple((function.name, index) for index, _ in function.execute_steps())
            for function in application.functions
        }
        self._slot_topo = self._slot_topological_index()
        self._order_nodes, self._order_successors, self._order_node_of = self._dependency_dag()
        self._order_in_degree = [0] * len(self._order_nodes)
        for successors in self._order_successors:
            for target in successors:
                self._order_in_degree[target] += 1

    # ------------------------------------------------------------------
    # eligibility (kind-constrained allocation)
    # ------------------------------------------------------------------
    def _resolve_eligibility(
        self, eligible: Optional[EligibilitySpec]
    ) -> Dict[str, Tuple[str, ...]]:
        """Normalise the eligibility spec to ``{function: resource names}``.

        Validates that every function keeps at least one eligible resource
        and that eligibility never splits an interchangeability class (the
        canonical relabelling moves allocations freely inside a class, so a
        class-splitting constraint could not be honoured).
        """
        if eligible is None:
            names = tuple(resource.name for resource in self.resources)
            return {function: names for function in self.functions}
        if callable(eligible):
            def allowed(function: str, resource: ProcessingResource) -> bool:
                return bool(eligible(function, resource))
        else:
            by_function: Dict[str, Set[str]] = {}
            for function, kinds in eligible.items():
                if function not in self.functions:
                    raise ModelError(
                        f"eligibility names unknown function {function!r} "
                        f"(application functions: {list(self.functions)})"
                    )
                by_function[function] = {
                    kind.value if isinstance(kind, ResourceKind) else str(kind)
                    for kind in kinds
                }

            def allowed(function: str, resource: ProcessingResource) -> bool:
                kinds = by_function.get(function)
                return kinds is None or resource.kind.value in kinds

        resolved: Dict[str, Tuple[str, ...]] = {}
        for function in self.functions:
            names = [r.name for r in self.resources if allowed(function, r)]
            if not names:
                raise ModelError(
                    f"function {function!r} is eligible on zero resources of the "
                    f"bank ({', '.join(r.name for r in self.resources)}); a mapping "
                    "design space needs at least one legal resource per function"
                )
            resolved[function] = tuple(names)

        for function, names in resolved.items():
            name_set = set(names)
            for members in self._by_class.values():
                inside = [r.name for r in members if r.name in name_set]
                if inside and len(inside) != len(members):
                    outside = [r.name for r in members if r.name not in name_set]
                    raise ModelError(
                        f"eligibility of function {function!r} splits an "
                        f"interchangeability class: {inside} allowed but {outside} "
                        "not, although the resources are identical -- canonical "
                        "relabelling could not preserve such a constraint"
                    )
        return resolved

    def eligible_resources(self, function: str) -> Tuple[str, ...]:
        """Names of the resources ``function`` may legally run on, in bank order."""
        try:
            return self._eligible[function]
        except KeyError:
            raise ModelError(f"unknown function {function!r}") from None

    def is_eligible(self, function: str, resource: str) -> bool:
        """True when ``function`` may be allocated to ``resource``."""
        return resource in self.eligible_resources(function)

    # ------------------------------------------------------------------
    # dependency-aware default service order
    # ------------------------------------------------------------------
    def _slot_topological_index(self) -> Dict[Slot, int]:
        """Topological index of every execute slot over same-iteration dependencies.

        Edges: consecutive steps within a function (step 0 of an iteration only
        depends on the *previous* iteration, so it gets no incoming intra edge)
        and producer-write -> consumer-read over every internal relation.
        Ordering each resource's slots by this index yields a service order
        consistent with one global schedule, hence free of zero-delay cycles.
        """
        step_nodes: List[Tuple[str, int]] = []
        edges: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
        write_step: Dict[str, Tuple[str, int]] = {}
        read_step: Dict[str, Tuple[str, int]] = {}
        for function in self.application.functions:
            previous: Optional[Tuple[str, int]] = None
            for index, step in enumerate(function.steps):
                node = (function.name, index)
                step_nodes.append(node)
                edges.setdefault(node, set())
                if previous is not None:
                    edges[previous].add(node)
                previous = node
                if isinstance(step, WriteStep):
                    write_step[step.relation] = node
                elif isinstance(step, ReadStep):
                    read_step[step.relation] = node
        for relation, spec in self.application.relations().items():
            if spec.is_internal:
                edges[write_step[relation]].add(read_step[relation])

        in_degree = {node: 0 for node in step_nodes}
        for sources in edges.values():
            for target in sources:
                in_degree[target] += 1
        # Kahn's algorithm with declaration order as the tie-breaker.
        ready = [node for node in step_nodes if in_degree[node] == 0]
        order: List[Tuple[str, int]] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for target in sorted(edges[node], key=step_nodes.index):
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    ready.append(target)
        if len(order) != len(step_nodes):
            raise ModelError(
                "the application has a same-iteration dependency cycle; no static "
                "service order can schedule it"
            )
        topo = {node: position for position, node in enumerate(order)}
        execute_slots = {
            (function.name, index)
            for function in self.application.functions
            for index, _ in function.execute_steps()
        }
        return {slot: topo[slot] for slot in execute_slots}

    def _slots_of(self, function: str) -> Tuple[Slot, ...]:
        try:
            return self._slots[function]
        except KeyError:
            raise ModelError(f"unknown function {function!r}") from None

    def default_order(self, functions: Sequence[str]) -> Tuple[Slot, ...]:
        """Feasible service order for one resource: slots by global topological index."""
        slots = [slot for function in functions for slot in self._slots_of(function)]
        return tuple(sorted(slots, key=self._slot_topo.__getitem__))

    # ------------------------------------------------------------------
    # feasibility-aware order sampling
    # ------------------------------------------------------------------
    def _dependency_dag(self):
        """The same-iteration dependency DAG over behaviour steps, contracted.

        Same edge set as :meth:`_slot_topological_index` (consecutive steps
        within a function, producer write -> consumer read over internal
        relations), with one refinement: the write and read steps of an
        internal *rendezvous* relation complete at the same exchange instant,
        so they are contracted into one node.  Service orders consistent with
        a single linear extension of this DAG are exactly the jointly
        schedulable ones -- any such extension is one global schedule free of
        zero-delay cycles.

        Returns ``(nodes, successors, node_of)``: ``nodes`` lists the
        representatives in declaration order, and the sampler refers to each
        by its position there; ``successors[i]`` lists node ``i``'s targets in
        edge insertion order, and ``node_of`` maps each ``(function,
        step_index)`` to the position of its representative.
        """
        relations = self.application.relations()
        write_step: Dict[str, Tuple[str, int]] = {}
        read_step: Dict[str, Tuple[str, int]] = {}
        step_nodes: List[Tuple[str, int]] = []
        for function in self.application.functions:
            for index, step in enumerate(function.steps):
                node = (function.name, index)
                step_nodes.append(node)
                if isinstance(step, WriteStep):
                    write_step[step.relation] = node
                elif isinstance(step, ReadStep):
                    read_step[step.relation] = node

        rep: Dict[Tuple[str, int], Tuple[str, int]] = {node: node for node in step_nodes}
        for relation, spec in relations.items():
            if spec.is_internal and spec.kind is not RelationKind.FIFO:
                rep[read_step[relation]] = write_step[relation]

        nodes: List[Tuple[str, int]] = []
        seen: Set[Tuple[str, int]] = set()
        for node in step_nodes:
            representative = rep[node]
            if representative not in seen:
                seen.add(representative)
                nodes.append(representative)

        edges: Dict[Tuple[str, int], List[Tuple[str, int]]] = {node: [] for node in nodes}

        def add_edge(source: Tuple[str, int], target: Tuple[str, int]) -> None:
            source, target = rep[source], rep[target]
            if source != target and target not in edges[source]:
                edges[source].append(target)

        for function in self.application.functions:
            previous: Optional[Tuple[str, int]] = None
            for index in range(function.step_count):
                node = (function.name, index)
                if previous is not None:
                    add_edge(previous, node)
                previous = node
        for relation, spec in relations.items():
            if spec.is_internal and spec.kind is RelationKind.FIFO:
                add_edge(write_step[relation], read_step[relation])
        position = {node: index for index, node in enumerate(nodes)}
        successors = tuple(
            tuple(position[target] for target in edges[node]) for node in nodes
        )
        return tuple(nodes), successors, {step: position[rep[step]] for step in step_nodes}

    def _sample_feasible_orders(
        self,
        candidate: MappingCandidate,
        targets: Set[str],
        fixed_orders: Mapping[str, Sequence[Slot]],
        rng: random.Random,
    ) -> Optional[Dict[str, Tuple[Slot, ...]]]:
        """Random service orders for ``targets``, jointly schedulable with ``fixed_orders``.

        Samples one random linear extension of the dependency DAG extended
        with the chain constraints of the fixed resources' orders, and reads
        each target resource's order off it -- every sampled combination is
        therefore consistent with a single global schedule.  Returns ``None``
        when the fixed orders themselves contradict the dependencies (the
        caller then falls back to unconstrained interleavings).
        """
        nodes, successors = self._order_nodes, self._order_successors
        node_of = self._order_node_of
        in_degree = list(self._order_in_degree)
        extra: Dict[int, List[int]] = {}
        for order in fixed_orders.values():
            for first, second in zip(order, order[1:]):
                target = node_of[second]
                extra.setdefault(node_of[first], []).append(target)
                in_degree[target] += 1

        slot_resource: Dict[int, str] = {}
        for function, resource in candidate.allocation:
            if resource in targets:
                for slot in self._slots_of(function):
                    slot_resource[node_of[slot]] = resource

        # Nodes are numbered in declaration order, so ``ready`` -- and with it
        # every ``rng.randrange`` draw -- follows the declaration order.
        ready = [node for node, degree in enumerate(in_degree) if degree == 0]
        orders: Dict[str, List[Slot]] = {resource: [] for resource in targets}
        randrange, pop, push = rng.randrange, ready.pop, ready.append
        emitted = 0
        while ready:
            node = pop(randrange(len(ready)))
            emitted += 1
            resource = slot_resource.get(node)
            if resource is not None:
                orders[resource].append(nodes[node])
            for target in successors[node]:
                in_degree[target] -= 1
                if not in_degree[target]:
                    push(target)
            if node in extra:
                for target in extra[node]:
                    in_degree[target] -= 1
                    if not in_degree[target]:
                        push(target)
        if emitted != len(nodes):
            return None  # the fixed orders close a dependency cycle
        return {resource: tuple(order) for resource, order in orders.items()}

    # ------------------------------------------------------------------
    # canonicalisation
    # ------------------------------------------------------------------
    def _interchange_class(self, resource: ProcessingResource) -> Tuple:
        return (resource.concurrency, resource.kind.value, resource.frequency_hz)

    def canonical(
        self,
        allocation: Mapping[str, str],
        orders: Optional[Mapping[str, Sequence[Slot]]] = None,
    ) -> MappingCandidate:
        """Canonicalise an allocation (+ optional explicit orders) into a candidate.

        Within each class of interchangeable resources, the resources actually
        used are relabelled onto the class's lowest-indexed members in order of
        first use (function declaration order).  Orders follow their resource
        through the relabelling; resources without an explicit order get the
        dependency-aware default.
        """
        by_class = self._by_class
        relabel: Dict[str, str] = {}
        used_per_class: Dict[Tuple, int] = {}
        for function in self.functions:
            try:
                resource_name = allocation[function]
            except KeyError:
                raise ModelError(f"allocation misses function {function!r}") from None
            if self.has_eligibility and not self.is_eligible(function, resource_name):
                resource = self.platform.resource(resource_name)
                raise ModelError(
                    f"function {function!r} is not eligible on resource "
                    f"{resource_name!r} (kind {resource.kind.value!r}); legal "
                    f"resources: {list(self.eligible_resources(function))}"
                )
            if resource_name in relabel:
                continue
            resource = self.platform.resource(resource_name)
            cls = self._interchange_class(resource)
            rank = used_per_class.get(cls, 0)
            relabel[resource_name] = by_class[cls][rank].name
            used_per_class[cls] = rank + 1

        # Sorted by function name so the tuple form matches from_parameters()
        # round-trips exactly (the relabelling above used declaration order).
        new_allocation = tuple(
            sorted((function, relabel[allocation[function]]) for function in self.functions)
        )
        if len({resource for _, resource in new_allocation}) > self.max_resources:
            raise ModelError(
                f"allocation uses more than max_resources={self.max_resources} resources"
            )

        groups: Dict[str, List[str]] = {}
        for function, resource in new_allocation:
            groups.setdefault(resource, []).append(function)
        orders = dict(orders or {})
        new_orders: List[Tuple[str, Tuple[Slot, ...]]] = []
        for resource_name, functions in groups.items():
            resource = self.platform.resource(resource_name)
            slots = self.default_order(functions)
            if resource.is_unlimited or len(slots) < 2:
                continue  # order is irrelevant: leave it implicit
            explicit = None
            for old_name, new_name in relabel.items():
                if new_name == resource_name and old_name in orders:
                    explicit = tuple(orders[old_name])
            new_orders.append((resource_name, explicit if explicit is not None else slots))
        new_orders.sort()  # lexical, matching from_parameters() round-trips
        return MappingCandidate(allocation=new_allocation, orders=tuple(new_orders))

    def candidate_from_mapping(self, mapping: ArchMapping) -> MappingCandidate:
        """Canonical candidate equivalent to an existing mapping's allocation."""
        return self.canonical(mapping.allocation)

    def default_candidate(self) -> MappingCandidate:
        """Deterministic starting allocation.

        Uniform banks round-robin over the first ``max_resources`` resources
        (the historical behaviour).  Under an eligibility constraint each
        function round-robins over its *own* legal resources, folding onto an
        already-used legal resource when opening another would exceed
        ``max_resources`` -- and reports the conflicting function when
        eligibility and the resource-count constraint admit no allocation.
        """
        if not self.has_eligibility:
            bank = self.resources[: self.max_resources]
            allocation = {
                function: bank[index % len(bank)].name
                for index, function in enumerate(self.functions)
            }
            return self.canonical(allocation)
        allocation: Dict[str, str] = {}

        def assign(index: int, used: frozenset) -> bool:
            if index == len(self.functions):
                return True
            function = self.functions[index]
            eligible = self.eligible_resources(function)
            preferred = eligible[index % len(eligible)]
            for pick in [preferred] + [name for name in eligible if name != preferred]:
                opens = pick not in used
                if opens and len(used) >= self.max_resources:
                    continue
                allocation[function] = pick
                if assign(index + 1, used | {pick} if opens else used):
                    return True
                del allocation[function]
            return False

        if not assign(0, frozenset()):
            raise ModelError(
                f"no allocation satisfies both the eligibility constraint and "
                f"max_resources={self.max_resources} for functions "
                f"{list(self.functions)} -- relax one of the two"
            )
        return self.canonical(allocation)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def enumerate_allocations(self) -> Iterator[MappingCandidate]:
        """Every canonical allocation (default orders), deduplicated, lazily.

        Each function only ranges over its eligible resources, so under a
        kind constraint the walk covers exactly the legal sub-space.
        """
        seen: Set[Tuple[Tuple[str, str], ...]] = set()

        def assign(index: int, allocation: Dict[str, str]) -> Iterator[MappingCandidate]:
            if index == len(self.functions):
                candidate = self.canonical(allocation)
                if candidate.allocation not in seen:
                    seen.add(candidate.allocation)
                    yield candidate
                return
            for resource in self._eligible[self.functions[index]]:
                allocation[self.functions[index]] = resource
                used = set(allocation.values())
                if len(used) <= self.max_resources:
                    yield from assign(index + 1, allocation)
            del allocation[self.functions[index]]

        yield from assign(0, {})

    def _order_variants(self, base: MappingCandidate) -> Iterator[MappingCandidate]:
        """Every service-order assignment of ``base``'s allocation except the default."""
        ordered_resources = [resource for resource, _ in base.orders]
        per_resource: List[List[Tuple[Slot, ...]]] = []
        for resource in ordered_resources:
            functions = [f for f, r in base.allocation if r == resource]
            sequences = [self._slots_of(function) for function in functions]
            per_resource.append(list(_interleavings(sequences)))

        def orders_product(index: int, chosen: List[Tuple[Slot, ...]]) -> Iterator[
            Tuple[Tuple[str, Tuple[Slot, ...]], ...]
        ]:
            if index == len(ordered_resources):
                yield tuple(zip(ordered_resources, chosen))
                return
            for order in per_resource[index]:
                yield from orders_product(index + 1, chosen + [order])

        for orders in orders_product(0, []):
            if orders == base.orders:
                continue  # the default-order point was already yielded
            yield MappingCandidate(allocation=base.allocation, orders=orders)

    def enumerate_candidates(self, limit: Optional[int] = None) -> Iterator[MappingCandidate]:
        """Every candidate: allocations crossed with service-order interleavings.

        Breadth-first over decisions: every allocation is yielded once with
        its dependency-aware default order before any order variant appears,
        so a budget-truncated exhaustive walk still covers the whole
        allocation space.  With ``explore_orders=False`` only the first pass
        exists.  Enumeration order is deterministic.
        """
        produced = 0
        bases = []
        for base in self.enumerate_allocations():
            if limit is not None and produced >= limit:
                return
            produced += 1
            yield base
            bases.append(base)
        if not self.explore_orders:
            return
        for base in bases:
            for variant in self._order_variants(base):
                if limit is not None and produced >= limit:
                    return
                produced += 1
                yield variant

    def size(self, cap: int = 100_000) -> int:
        """Number of candidates in the space, counted up to ``cap``."""
        count = 0
        for _ in self.enumerate_candidates(limit=cap):
            count += 1
        return count

    # ------------------------------------------------------------------
    # sampling and mutation
    # ------------------------------------------------------------------
    def random_candidate(self, rng: random.Random) -> MappingCandidate:
        """A seeded random candidate.

        The allocation is uniform over the (canonicalised) assignments; the
        service orders are kept at the dependency-aware default half of the
        time and re-drawn otherwise.  In strict mode (the default) the re-draw
        samples only orders consistent with the same-iteration data
        dependencies, so no proposal is wasted on a zero-delay cycle; with
        ``strict=False`` it is an unconstrained uniform interleaving (mostly
        infeasible -- the historical behaviour, kept for probing).
        """
        if not self.has_eligibility:
            bank = self.resources[: self.max_resources]
            allocation = {
                function: bank[rng.randrange(len(bank))].name
                for function in self.functions
            }
        else:
            allocation = self._random_eligible_allocation(rng)
        candidate = self.canonical(allocation)
        if self.explore_orders and rng.random() < 0.5:
            candidate = self._randomise_orders(candidate, rng)
        return candidate

    def _random_eligible_allocation(
        self, rng: random.Random, attempts: int = 64
    ) -> Dict[str, str]:
        """A uniform-ish random allocation honouring eligibility and max_resources.

        Functions are assigned in a random order; once ``max_resources``
        distinct resources are open, later functions draw from their eligible
        resources *already in use*.  A function left with no legal choice
        aborts the draw and retries with a fresh order; a constraint
        combination that never admits an allocation is reported after
        ``attempts`` retries.
        """
        last_blocked = ""
        for _ in range(attempts):
            order = list(self.functions)
            rng.shuffle(order)
            allocation: Dict[str, str] = {}
            used: Set[str] = set()
            for function in order:
                choices: Sequence[str] = self.eligible_resources(function)
                if len(used) >= self.max_resources:
                    choices = [name for name in choices if name in used]
                    if not choices:
                        last_blocked = function
                        allocation = {}
                        break
                pick = choices[rng.randrange(len(choices))]
                allocation[function] = pick
                used.add(pick)
            if allocation:
                return allocation
            telemetry.count("dse.space.allocation_restarts")
        raise ModelError(
            f"could not draw an eligibility-feasible allocation within "
            f"max_resources={self.max_resources} after {attempts} attempts "
            f"(last blocked function: {last_blocked!r}); relax max_resources "
            "or the eligibility constraint"
        )

    def _random_interleaving(
        self, sequences: List[List[Slot]], rng: random.Random
    ) -> Tuple[Slot, ...]:
        """Uniform unconstrained merge (the ``strict=False`` escape hatch)."""
        pending = [list(sequence) for sequence in sequences if sequence]
        merged: List[Slot] = []
        while pending:
            index = rng.randrange(len(pending))
            merged.append(pending[index].pop(0))
            if not pending[index]:
                pending.pop(index)
        return tuple(merged)

    def _randomise_orders(
        self, candidate: MappingCandidate, rng: random.Random
    ) -> MappingCandidate:
        """Re-draw every explicit service order of ``candidate``."""
        if not candidate.orders:
            return candidate
        if self.strict:
            targets = {resource for resource, _ in candidate.orders}
            sampled = self._sample_feasible_orders(candidate, targets, {}, rng)
            if sampled is not None:
                return MappingCandidate(
                    allocation=candidate.allocation,
                    orders=tuple(
                        (resource, sampled[resource]) for resource, _ in candidate.orders
                    ),
                )
        new_orders = []
        for resource, _ in candidate.orders:
            functions = [f for f, r in candidate.allocation if r == resource]
            sequences = [list(self._slots_of(function)) for function in functions]
            new_orders.append((resource, self._random_interleaving(sequences, rng)))
        return MappingCandidate(allocation=candidate.allocation, orders=tuple(new_orders))

    def _orders_excluding(
        self, candidate: MappingCandidate, affected: Set[str]
    ) -> Dict[str, Tuple[Slot, ...]]:
        """The candidate's explicit orders minus the resources in ``affected``.

        A move/swap only invalidates the service orders of the resources whose
        function set changed; every other resource keeps its order decision
        (mirroring :meth:`~repro.archmodel.mapping.Mapping.replace_allocation`).
        """
        return {
            resource: order
            for resource, order in candidate.orders
            if resource not in affected
        }

    def mutate(self, candidate: MappingCandidate, rng: random.Random) -> MappingCandidate:
        """One random move: re-allocate a function, swap two, or reorder a resource.

        In strict mode, any service order a move invalidates (or the reorder
        move re-draws) is re-sampled consistently with the dependency DAG and
        with the orders of the untouched resources, so local search never
        steps onto an order-infeasible neighbour through one of its own moves.
        """
        moves = ["move", "swap"]
        if self.explore_orders and candidate.orders:
            moves.append("reorder")
        move = moves[rng.randrange(len(moves))]
        telemetry.count(f"dse.space.mutate.{move}")
        allocation = dict(candidate.allocation)
        if move == "move":
            function = self.functions[rng.randrange(len(self.functions))]
            if self.has_eligibility:
                used_others = {r for f, r in allocation.items() if f != function}
                choices = [
                    name
                    for name in self.eligible_resources(function)
                    if name != allocation[function]
                    and (name in used_others or len(used_others) < self.max_resources)
                ]
            else:
                bank = self.resources[: self.max_resources]
                choices = [r.name for r in bank if r.name != allocation[function]]
            if not choices:
                return candidate
            previous = allocation[function]
            allocation[function] = choices[rng.randrange(len(choices))]
            affected = {previous, allocation[function]}
            mutated = self.canonical(
                allocation, self._orders_excluding(candidate, affected)
            )
        elif move == "swap":
            first = self.functions[rng.randrange(len(self.functions))]
            second = self.functions[rng.randrange(len(self.functions))]
            affected = {candidate.resource_of(first), candidate.resource_of(second)}
            if len(affected) == 1:
                return candidate  # same resource: the allocation is unchanged
            if self.has_eligibility and not (
                self.is_eligible(first, allocation[second])
                and self.is_eligible(second, allocation[first])
            ):
                return candidate  # the swap would land a function off-kind
            allocation[first], allocation[second] = allocation[second], allocation[first]
            mutated = self.canonical(
                allocation, self._orders_excluding(candidate, affected)
            )
        else:
            index = rng.randrange(len(candidate.orders))
            resource = candidate.orders[index][0]
            if self.strict:
                fixed = {r: o for r, o in candidate.orders if r != resource}
                sampled = self._sample_feasible_orders(candidate, {resource}, fixed, rng)
                if sampled is not None:
                    orders = list(candidate.orders)
                    orders[index] = (resource, sampled[resource])
                    return MappingCandidate(
                        allocation=candidate.allocation, orders=tuple(orders)
                    )
            functions = [f for f, r in candidate.allocation if r == resource]
            sequences = [list(self._slots_of(function)) for function in functions]
            new_order = self._random_interleaving(sequences, rng)
            orders = list(candidate.orders)
            orders[index] = (resource, new_order)
            return MappingCandidate(allocation=candidate.allocation, orders=tuple(orders))
        if self.strict and self.explore_orders:
            mutated = self._resample_defaulted_orders(candidate, mutated, affected, rng)
        return mutated

    def _resample_defaulted_orders(
        self,
        candidate: MappingCandidate,
        mutated: MappingCandidate,
        affected_old: Set[str],
        rng: random.Random,
    ) -> MappingCandidate:
        """Re-draw the orders a move invalidated, respecting the kept ones.

        ``canonical`` gives the affected resources the deterministic default
        order, which is drawn from a different global schedule than the kept
        explicit orders -- the combination may be infeasible.  Sampling the
        affected resources' orders *given* the kept ones as constraints keeps
        the whole candidate jointly schedulable (and keeps move/swap exploring
        order decisions, not just resetting them).
        """
        affected_functions = {
            function for function, resource in candidate.allocation
            if resource in affected_old
        }
        affected_new = {mutated.resource_of(f) for f in affected_functions}
        targets = {r for r, _ in mutated.orders if r in affected_new}
        if not targets:
            return mutated
        fixed = {r: order for r, order in mutated.orders if r not in targets}
        sampled = self._sample_feasible_orders(mutated, targets, fixed, rng)
        if sampled is None:
            return mutated  # kept orders already contradict the dependencies
        return MappingCandidate(
            allocation=mutated.allocation,
            orders=tuple(
                (r, sampled[r] if r in targets else order)
                for r, order in mutated.orders
            ),
        )

    def neighbors(
        self, candidate: MappingCandidate, rng: random.Random, count: int
    ) -> List[MappingCandidate]:
        """``count`` random single-move neighbours of ``candidate`` (may repeat)."""
        return [self.mutate(candidate, rng) for _ in range(count)]

    # ------------------------------------------------------------------
    # recombination
    # ------------------------------------------------------------------
    @staticmethod
    def _orders_by_group(
        parent: MappingCandidate,
    ) -> Dict[FrozenSet[str], Tuple[Slot, ...]]:
        """The parent's explicit orders, keyed by the function group each serves.

        Service orders are sequences of ``(function, step)`` slots, so they
        transfer between resources (and across the canonical relabelling) as
        long as the function group matches exactly.
        """
        groups: Dict[str, List[str]] = {}
        for function, resource in parent.allocation:
            groups.setdefault(resource, []).append(function)
        return {
            frozenset(groups[resource]): order
            for resource, order in dict(parent.orders).items()
            if resource in groups
        }

    def crossover(
        self, a: MappingCandidate, b: MappingCandidate, rng: random.Random
    ) -> MappingCandidate:
        """Recombine two candidates: uniform allocation mix + order inheritance.

        Each function's resource comes from a uniformly chosen parent; when
        the mix instantiates more than ``max_resources`` distinct resources,
        the smallest groups are folded onto randomly chosen kept resources
        until the constraint holds.  A resource of the child whose function
        group exactly matches a group of one parent inherits that parent's
        service order (orders are slot sequences, so they survive the
        canonical relabelling); the remaining orders -- invalidated by the
        recombination -- are re-sampled as feasible linear extensions
        constrained by the inherited ones in strict mode, or left at the
        dependency-aware default otherwise.
        """
        alloc_a, alloc_b = dict(a.allocation), dict(b.allocation)
        allocation: Dict[str, str] = {
            function: alloc_a[function] if rng.random() < 0.5 else alloc_b[function]
            for function in self.functions
        }
        while len(set(allocation.values())) > self.max_resources:
            groups: Dict[str, List[str]] = {}
            for function in self.functions:
                groups.setdefault(allocation[function], []).append(function)
            # A fold must keep every moved function on an eligible resource;
            # fold the smallest foldable group onto a random legal survivor.
            foldable: Dict[str, List[str]] = {}
            for victim in groups:
                targets = [
                    kept
                    for kept in groups
                    if kept != victim
                    and all(
                        self.is_eligible(function, kept)
                        for function in groups[victim]
                    )
                ]
                if targets:
                    foldable[victim] = sorted(targets)
            if not foldable:
                # Eligibility admits no repair of this mix: replace the
                # offspring with a feasible random immigrant instead of
                # emitting an illegal (or over-budget) candidate.
                telemetry.count("dse.space.crossover_immigrants")
                return self.random_candidate(rng)
            telemetry.count("dse.space.crossover_repairs")
            victim = min(foldable, key=lambda resource: (len(groups[resource]), resource))
            kept = foldable[victim]
            target = kept[rng.randrange(len(kept))]
            for function in groups[victim]:
                allocation[function] = target

        child = self.canonical(allocation)
        if not child.orders:
            return child

        child_groups: Dict[str, List[str]] = {}
        for function, resource in child.allocation:
            child_groups.setdefault(resource, []).append(function)
        orders: Dict[str, Tuple[Slot, ...]] = dict(child.orders)
        inherited: Dict[str, Tuple[Slot, ...]] = {}
        by_group_a, by_group_b = self._orders_by_group(a), self._orders_by_group(b)
        for resource, _default in child.orders:
            group = frozenset(child_groups[resource])
            parents = (by_group_a, by_group_b) if rng.random() < 0.5 else (by_group_b, by_group_a)
            for by_group in parents:
                order = by_group.get(group)
                if order is not None:
                    inherited[resource] = order
                    break
        orders.update(inherited)
        targets = {resource for resource, _ in child.orders if resource not in inherited}
        if self.strict and self.explore_orders:
            seeded = MappingCandidate(
                allocation=child.allocation,
                orders=tuple((resource, orders[resource]) for resource, _ in child.orders),
            )
            # Sampling doubles as the joint-feasibility check: each parent's
            # orders are schedulable on their own, but two inherited orders
            # can close a dependency cycle *together* (None return).  In that
            # case no combination keeping them exists -- re-draw every order
            # from scratch so strict mode never emits an infeasible child.
            sampled = self._sample_feasible_orders(seeded, targets, inherited, rng)
            if sampled is None:
                sampled = self._sample_feasible_orders(
                    child, {resource for resource, _ in child.orders}, {}, rng
                )
            if sampled is not None:
                orders.update(sampled)
        return MappingCandidate(
            allocation=child.allocation,
            orders=tuple((resource, orders[resource]) for resource, _ in child.orders),
        )

    def __repr__(self) -> str:
        return (
            f"DesignSpace(functions={len(self.functions)}, "
            f"resources={len(self.resources)}, max_resources={self.max_resources}, "
            f"explore_orders={self.explore_orders}, strict={self.strict}, "
            f"eligible={'constrained' if self.has_eligibility else 'all'})"
        )
