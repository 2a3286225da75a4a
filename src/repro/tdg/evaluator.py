"""Per-iteration evaluation of a temporal dependency graph.

The :class:`TDGEvaluator` is the computational heart of
``ComputeInstant()``: given the input instants of iteration ``k`` it
traverses the graph in topological order and computes every
intermediate and output instant, in zero simulation time.  Values are
plain integers (picoseconds) with ``None`` standing for ε (the instant
has not occurred / no dependency has fired yet), so the inner loop is
cheap -- important because the paper's Fig. 5 measures how the cost of
this very computation erodes the simulation speed-up.

History handling
----------------
Delayed dependencies (``x(k-d)``) only need the last ``max_delay``
iterations.  The ring buffer is *iteration-major*: ``ring[k % size]``
is the whole value list of iteration ``k`` (``size = max_delay + 1``).
Each step fills one fresh list from an ε template and stores it in its
slot, so there is no per-node write-back.  Slots no iteration has
written yet hold ε, which is exactly what a delayed arc reaching before
iteration 0 must read.  Nodes whose complete history is needed --
boundary outputs checked for accuracy, instants used to rebuild
resource usage -- can be *recorded* (``record_nodes`` / ``record_all``),
in which case the full value list is retained.

Boundary feedback
-----------------
``override_value()`` lets the equivalent model replace a computed value
with the instant actually observed on the simulator (e.g. when an
external consumer accepts an output later than computed); subsequent
iterations then use the corrected value.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ComputationError
from ..kernel.simtime import Time
from .graph import TemporalDependencyGraph
from .node import InstantNode

__all__ = ["TDGEvaluator"]

InstantListener = Callable[[int, InstantNode, Optional[int]], None]

#: One planned incoming arc: (source index, delay, constant ps, weight function).
_PlanArc = Tuple[int, int, Optional[int], Optional[Callable[[int, Mapping[str, Any]], int]]]


class TDGEvaluator:
    """Stateful evaluator computing evolution instants iteration by iteration."""

    def __init__(
        self,
        graph: TemporalDependencyGraph,
        record_nodes: Optional[Iterable[str]] = None,
        record_all: bool = False,
    ) -> None:
        graph.validate()
        self.graph = graph
        self._nodes = list(graph.nodes)
        self._index_of = {node.name: node.index for node in self._nodes}
        self._ring_size = graph.max_delay + 1
        # ε template every iteration's value list is copied from.
        self._blank: List[Optional[int]] = [None] * len(self._nodes)
        # ring[k % ring_size] is the value list of iteration k.
        self._ring: List[List[Optional[int]]] = [list(self._blank) for _ in range(self._ring_size)]
        self._current: List[Optional[int]] = self._ring[-1]
        self._iteration = 0

        record_set = set(record_nodes or [])
        unknown = record_set - set(self._index_of)
        if unknown:
            raise ComputationError(f"cannot record unknown nodes: {sorted(unknown)}")
        if record_all:
            record_set = set(self._index_of)
        self._recorded: Dict[str, List[Optional[int]]] = {name: [] for name in record_set}
        self._record_slots: Tuple[Tuple[List[Optional[int]], int], ...] = tuple(
            (values, self._index_of[name]) for name, values in self._recorded.items()
        )

        self._listeners: List[InstantListener] = []

        # Pre-compile the evaluation plan: for every computed node (in
        # topological order) the (source index, delay, constant weight,
        # weight function) tuples of its incoming arcs.  Exactly one of the
        # constant and the weight function is None.
        plan = []
        for node in graph.topological_order():
            if node.is_input:
                continue
            incoming = []
            for arc in graph.arcs_into(node):
                if arc.is_constant:
                    constant = arc.constant_weight.picoseconds
                    incoming.append((arc.source.index, arc.delay, constant, None))
                else:
                    # Trusted weight objects expose an integer fast path that
                    # skips the per-call Duration validation of weight_ps.
                    weight_fn = getattr(arc.weight_callable, "weight_ps", None) or arc.weight_ps
                    incoming.append((arc.source.index, arc.delay, None, weight_fn))
            plan.append((node.index, tuple(incoming)))
        self._plan: Tuple[Tuple[int, Tuple[_PlanArc, ...]], ...] = tuple(plan)
        self._incoming: Dict[int, Tuple[_PlanArc, ...]] = dict(plan)

        self._input_slots = tuple((node.name, node.index) for node in graph.input_nodes)
        self._output_slots = tuple((node.name, node.index) for node in graph.output_nodes)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_listener(self, listener: InstantListener) -> None:
        """Register a callback invoked as ``listener(k, node, value_ps)`` for every node."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @property
    def iteration(self) -> int:
        """Number of iterations evaluated so far (the next call computes this index)."""
        return self._iteration

    def step(
        self,
        inputs: Mapping[str, Optional[int]],
        context: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Optional[int]]:
        """Compute iteration ``k = self.iteration`` and return the output instants.

        ``inputs`` maps every input-node name to its instant in integer
        picoseconds (or ``None`` for ε).  ``context`` is forwarded to
        data-dependent arc weights.
        """
        k = self._iteration
        context = context if context is not None else {}
        ring = self._ring
        size = self._ring_size
        current = self._blank.copy()
        for name, index in self._input_slots:
            if name not in inputs:
                raise ComputationError(
                    f"missing input instant for node {name!r} at iteration {k}"
                )
            current[index] = inputs[name]
        # rows[d] holds the values of iteration k - d (ε before iteration 0).
        rows = [current]
        rows.extend(ring[(k - delay) % size] for delay in range(1, size))

        for node_index, incoming in self._plan:
            best: Optional[int] = None
            for source_index, delay, constant, weight_fn in incoming:
                value = rows[delay][source_index]
                if value is None:
                    continue
                if weight_fn is None:
                    value += constant
                else:
                    value += weight_fn(k, context)
                if best is None or value > best:
                    best = value
            current[node_index] = best

        ring[k % size] = current
        self._current = current
        for values, index in self._record_slots:
            values.append(current[index])
        if self._listeners:
            for node in self._nodes:
                value = current[node.index]
                for listener in self._listeners:
                    listener(k, node, value)

        self._iteration = k + 1
        return {name: current[index] for name, index in self._output_slots}

    def peek_delayed(self, name: str) -> Optional[int]:
        """Evaluate node ``name`` for the *upcoming* iteration using only delayed arcs.

        The equivalent model uses this to know, before accepting the next
        input item, when the abstracted consumer would be ready for it
        (equation (1)'s ``x_M4(k-1)``-style terms).  The node must only have
        arcs with ``delay >= 1``; a zero-delay arc would require values of the
        iteration that has not been computed yet.
        Returns ``None`` (ε) when no dependency has produced a value yet,
        i.e. there is no constraint.
        """
        index = self._require_node(name)
        incoming = self._incoming.get(index, ())
        for source_index, delay, _constant, _weight_fn in incoming:
            if delay == 0:
                raise ComputationError(
                    f"peek_delayed({name!r}) requires delayed arcs only, but the arc from "
                    f"{self._nodes[source_index].name!r} has delay 0"
                )
        k = self._iteration
        ring = self._ring
        size = self._ring_size
        best: Optional[int] = None
        for source_index, delay, constant, weight_fn in incoming:
            # Slots before iteration 0 were never written and hold ε.
            value = ring[(k - delay) % size][source_index]
            if value is None:
                continue
            value += constant if weight_fn is None else weight_fn(k, {})
            if best is None or value > best:
                best = value
        return best

    def value(self, name: str, k: Optional[int] = None) -> Optional[int]:
        """Return the instant of node ``name`` at iteration ``k`` (default: last computed).

        Only the last ``max_delay + 1`` iterations are available unless the
        node is recorded.
        """
        index = self._require_node(name)
        if self._iteration == 0:
            raise ComputationError("no iteration has been evaluated yet")
        if k is None:
            k = self._iteration - 1
        if k < 0 or k >= self._iteration:
            raise ComputationError(f"iteration {k} has not been evaluated")
        if name in self._recorded:
            return self._recorded[name][k]
        if k < self._iteration - self._ring_size:
            raise ComputationError(
                f"iteration {k} of node {name!r} is no longer buffered; add it to "
                "record_nodes to keep its full history"
            )
        return self._ring[k % self._ring_size][index]

    def recorded(self, name: str) -> List[Optional[int]]:
        """Full value history of a recorded node."""
        if name not in self._recorded:
            raise ComputationError(f"node {name!r} is not recorded")
        return list(self._recorded[name])

    def recorded_times(self, name: str) -> List[Optional[Time]]:
        """Full value history of a recorded node, as :class:`Time` objects."""
        return [None if value is None else Time(value) for value in self.recorded(name)]

    def last_values(self) -> Dict[str, Optional[int]]:
        """All node values of the most recently evaluated iteration."""
        if self._iteration == 0:
            raise ComputationError("no iteration has been evaluated yet")
        return {node.name: self._current[node.index] for node in self._nodes}

    def override_value(self, name: str, k: int, value: Optional[int]) -> None:
        """Replace the stored value of node ``name`` at iteration ``k``.

        Used by the equivalent model to feed back instants actually observed
        on the simulator (boundary corrections).  Only iterations still held
        in the ring buffer can be overridden.
        """
        index = self._require_node(name)
        if k < 0 or k >= self._iteration:
            raise ComputationError(f"cannot override iteration {k}: it has not been evaluated")
        if k < self._iteration - self._ring_size:
            raise ComputationError(
                f"cannot override iteration {k}: it is no longer buffered "
                f"(ring size {self._ring_size})"
            )
        # The latest iteration's slot is the current value list itself.
        self._ring[k % self._ring_size][index] = value
        if name in self._recorded:
            self._recorded[name][k] = value

    def _require_node(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise ComputationError(f"unknown node {name!r}") from None
