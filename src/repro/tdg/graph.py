"""The temporal dependency graph.

Section III-C of the paper: "These equations can be explicitly described
and can also be expressed on the basis of an oriented graph.  We call
such a graph a temporal dependency graph as it expresses dependencies
among evolution instants.  Each node corresponds to a specific evolution
instant and weights of arcs define intervals between instants.
Traversing this graph leads to successive computation of evolution
instants."

:class:`TemporalDependencyGraph` stores the nodes and arcs, validates
that the zero-delay dependency structure is acyclic (an instant cannot
depend on itself within one iteration), provides the topological
evaluation order used by the :class:`~repro.tdg.evaluator.TDGEvaluator`,
and can export the special case where all arc weights are constant to a
:class:`~repro.maxplus.linear_system.LinearMaxPlusSystem` (the "linear
expression" of equations (7)-(10)).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import GraphError
from ..maxplus.matrix import MaxPlusMatrix
from ..maxplus.linear_system import LinearMaxPlusSystem
from ..maxplus.scalar import MaxPlus
from .arc import DependencyArc, WeightLike
from .node import InstantNode, NodeKind

__all__ = ["TemporalDependencyGraph", "zero_delay_order"]

NodeRef = Union[str, InstantNode]


def zero_delay_order(
    names: Sequence[str],
    successors: Sequence[Sequence[int]],
    unfed: Sequence[int] = (),
) -> List[int]:
    """The evaluation order of a graph's nodes, by index, and its two structural checks.

    ``names[i]`` names node ``i``; ``successors[i]`` lists the targets of its
    zero-delay arcs, in arc order; ``unfed`` lists the computed nodes without
    any incoming arc.  The order is Kahn's: nodes without zero-delay
    predecessors in index order, then each node as soon as its last
    zero-delay predecessor is placed.  Raises
    :class:`~repro.errors.GraphError` for the first unfed node, or when the
    zero-delay arcs hold a cycle.  Shared by
    :class:`TemporalDependencyGraph` and the compiled DSE path, which orders
    its patched index tables without building a graph.
    """
    if unfed:
        raise GraphError(
            f"computed node {names[unfed[0]]!r} has no incoming arc; its instants "
            "would stay at ε forever"
        )
    in_degree = [0] * len(names)
    for targets in successors:
        for target in targets:
            in_degree[target] += 1
    queue = deque(index for index, degree in enumerate(in_degree) if not degree)
    order: List[int] = []
    while queue:
        index = queue.popleft()
        order.append(index)
        for target in successors[index]:
            in_degree[target] -= 1
            if not in_degree[target]:
                queue.append(target)
    if len(order) != len(names):
        placed = set(order)
        remaining = sorted(name for index, name in enumerate(names) if index not in placed)
        raise GraphError(
            f"zero-delay dependency cycle involving nodes {remaining}: an instant "
            "cannot depend on itself within the same iteration"
        )
    return order


class TemporalDependencyGraph:
    """Directed graph of evolution instants with weighted, possibly delayed arcs."""

    def __init__(self, name: str = "tdg") -> None:
        self.name = name
        self._nodes: Dict[str, InstantNode] = {}
        self._node_list: List[InstantNode] = []
        self._arcs: List[DependencyArc] = []
        self._arcs_into: Dict[str, List[DependencyArc]] = defaultdict(list)
        self._arcs_from: Dict[str, List[DependencyArc]] = defaultdict(list)
        self._topo_cache: Optional[List[InstantNode]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        kind: NodeKind = NodeKind.INTERNAL,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> InstantNode:
        """Add a node; names must be unique within the graph."""
        if name in self._nodes:
            raise GraphError(f"node {name!r} already exists in graph {self.name!r}")
        node = InstantNode(name, kind, index=len(self._node_list), tags=tags)
        self._nodes[name] = node
        self._node_list.append(node)
        self._topo_cache = None
        return node

    def add_input(self, name: str, tags: Optional[Mapping[str, Any]] = None) -> InstantNode:
        """Add an INPUT node (value injected by the surrounding simulation)."""
        return self.add_node(name, NodeKind.INPUT, tags)

    def add_internal(self, name: str, tags: Optional[Mapping[str, Any]] = None) -> InstantNode:
        """Add an INTERNAL node (computed, never simulated)."""
        return self.add_node(name, NodeKind.INTERNAL, tags)

    def add_output(self, name: str, tags: Optional[Mapping[str, Any]] = None) -> InstantNode:
        """Add an OUTPUT node (computed and turned back into a simulation event)."""
        return self.add_node(name, NodeKind.OUTPUT, tags)

    def add_arc(
        self,
        source: NodeRef,
        target: NodeRef,
        weight: WeightLike = None,
        delay: int = 0,
        label: str = "",
    ) -> DependencyArc:
        """Add the dependency ``x_target(k) >= x_source(k - delay) ⊗ weight(k)``."""
        arc = DependencyArc(self.node(source), self.node(target), weight, delay, label)
        self._arcs.append(arc)
        self._arcs_into[arc.target.name].append(arc)
        self._arcs_from[arc.source.name].append(arc)
        self._topo_cache = None
        return arc

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def node(self, ref: NodeRef) -> InstantNode:
        """Resolve a node by name (or pass an :class:`InstantNode` through)."""
        if isinstance(ref, InstantNode):
            if self._nodes.get(ref.name) is not ref:
                raise GraphError(f"node {ref.name!r} does not belong to graph {self.name!r}")
            return ref
        try:
            return self._nodes[ref]
        except KeyError:
            raise GraphError(f"unknown node {ref!r} in graph {self.name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> Tuple[InstantNode, ...]:
        return tuple(self._node_list)

    @property
    def arcs(self) -> Tuple[DependencyArc, ...]:
        return tuple(self._arcs)

    @property
    def input_nodes(self) -> Tuple[InstantNode, ...]:
        return tuple(node for node in self._node_list if node.is_input)

    @property
    def internal_nodes(self) -> Tuple[InstantNode, ...]:
        return tuple(node for node in self._node_list if node.is_internal)

    @property
    def output_nodes(self) -> Tuple[InstantNode, ...]:
        return tuple(node for node in self._node_list if node.is_output)

    def arcs_into(self, ref: NodeRef) -> Tuple[DependencyArc, ...]:
        return tuple(self._arcs_into[self.node(ref).name])

    def arcs_from(self, ref: NodeRef) -> Tuple[DependencyArc, ...]:
        return tuple(self._arcs_from[self.node(ref).name])

    @property
    def node_count(self) -> int:
        """Number of nodes -- the complexity measure reported in Table I and Fig. 5."""
        return len(self._node_list)

    @property
    def arc_count(self) -> int:
        return len(self._arcs)

    @property
    def max_delay(self) -> int:
        """Largest iteration lag appearing on any arc."""
        return max((arc.delay for arc in self._arcs), default=0)

    def is_constant_weighted(self) -> bool:
        """True when every arc weight is a constant duration (the linear case)."""
        return all(arc.is_constant for arc in self._arcs)

    # ------------------------------------------------------------------
    # validation and ordering
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity; raises :class:`~repro.errors.GraphError` on problems."""
        unfed = [
            node.index
            for node in self._node_list
            if not node.is_input and not self._arcs_into[node.name]
        ]
        if unfed or self._topo_cache is None:
            self._topo_cache = self._zero_delay_order(unfed)

    def topological_order(self) -> List[InstantNode]:
        """Evaluation order over the zero-delay dependency structure.

        Input nodes come first, then computed nodes such that every
        zero-delay predecessor appears before its successor.  A cycle in the
        zero-delay structure raises :class:`~repro.errors.GraphError`.
        """
        if self._topo_cache is None:
            self._topo_cache = self._zero_delay_order(())
        return list(self._topo_cache)

    def _zero_delay_order(self, unfed: Sequence[int]) -> List[InstantNode]:
        nodes = self._node_list
        successors = [
            [arc.target.index for arc in self._arcs_from[node.name] if arc.delay == 0]
            for node in nodes
        ]
        names = [node.name for node in nodes]
        return [nodes[index] for index in zero_delay_order(names, successors, unfed)]

    # ------------------------------------------------------------------
    # export to the linear (max, +) form
    # ------------------------------------------------------------------
    def to_linear_system(self) -> LinearMaxPlusSystem:
        """Export the graph as the linear recurrence of equations (9)-(10).

        Requires every arc weight to be constant.  The state vector ``X``
        stacks every computed (internal + output) node, the input vector
        ``U`` stacks the input nodes, and ``Y`` selects the output nodes
        from ``X`` through ``C(0)``.
        """
        if not self.is_constant_weighted():
            raise GraphError(
                "the graph has data-dependent arc weights; only constant-weight graphs "
                "admit the linear matrix form"
            )
        computed = [node for node in self._node_list if not node.is_input]
        inputs = list(self.input_nodes)
        outputs = list(self.output_nodes)
        if not computed or not inputs or not outputs:
            raise GraphError(
                "the linear form requires at least one input, one computed and one output node"
            )
        state_index = {node.name: i for i, node in enumerate(computed)}
        input_index = {node.name: i for i, node in enumerate(inputs)}

        a_matrices: Dict[int, MaxPlusMatrix] = {}
        b_matrices: Dict[int, MaxPlusMatrix] = {}
        for arc in self._arcs:
            weight = MaxPlus(arc.constant_weight.picoseconds)
            row = state_index[arc.target.name]
            if arc.source.is_input:
                matrix = b_matrices.get(arc.delay)
                if matrix is None:
                    matrix = MaxPlusMatrix.epsilon(len(computed), len(inputs))
                col = input_index[arc.source.name]
                current = matrix[row, col]
                b_matrices[arc.delay] = matrix.with_entry(row, col, current.oplus(weight))
            else:
                matrix = a_matrices.get(arc.delay)
                if matrix is None:
                    matrix = MaxPlusMatrix.epsilon(len(computed), len(computed))
                col = state_index[arc.source.name]
                current = matrix[row, col]
                a_matrices[arc.delay] = matrix.with_entry(row, col, current.oplus(weight))

        c_matrix = MaxPlusMatrix.epsilon(len(outputs), len(computed))
        for out_row, node in enumerate(outputs):
            c_matrix = c_matrix.with_entry(out_row, state_index[node.name], MaxPlus(0))

        return LinearMaxPlusSystem(
            state_size=len(computed),
            input_size=len(inputs),
            output_size=len(outputs),
            a_matrices=a_matrices,
            b_matrices=b_matrices,
            c_matrices={0: c_matrix},
            state_labels=[node.name for node in computed],
            input_labels=[node.name for node in inputs],
            output_labels=[node.name for node in outputs],
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable multi-line description (used by examples and docs)."""
        lines = [
            f"Temporal dependency graph {self.name!r}: "
            f"{self.node_count} nodes, {self.arc_count} arcs, max delay {self.max_delay}"
        ]
        for node in self._node_list:
            lines.append(f"  [{node.kind.value:8s}] {node.name}")
            for arc in self._arcs_into[node.name]:
                weight = (
                    str(arc.constant_weight) if arc.is_constant else f"<{arc.label or 'dynamic'}>"
                )
                delay = f"(k-{arc.delay})" if arc.delay else "(k)"
                lines.append(f"      <- {arc.source.name}{delay} ⊗ {weight}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TemporalDependencyGraph({self.name!r}, nodes={self.node_count}, "
            f"arcs={self.arc_count})"
        )
