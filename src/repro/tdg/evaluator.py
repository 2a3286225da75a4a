"""Per-iteration evaluation of a temporal dependency graph.

The :class:`TDGEvaluator` is the computational heart of
``ComputeInstant()``: given the input instants of iteration ``k`` it
traverses the graph in topological order and computes every
intermediate and output instant, in zero simulation time.  Values are
plain integers (picoseconds) with ``None`` standing for ε (the instant
has not occurred / no dependency has fired yet).  The paper's Fig. 5
measures how the cost of this very computation erodes the simulation
speed-up, so the evaluator does not walk the graph at all: it runs code
generated for it.

Generated bodies
----------------
Each evaluator emits Python source for its graph once and runs it
through :func:`compile`.  The source holds two straight-line bodies
with no loop over nodes or arcs:

* the *ε-free* body.  Every node is a local computed on every iteration
  (a plain copy included, so the cost still grows with the node count as
  in Fig. 5), constant weights are folded into the source, each node's
  max is a chain of ``if t > v:`` tests and the iteration's value list is
  returned as one list display.  Its guard opens the body: when an input
  is ε, or a delayed value it reads (``ring[(k - d) % size][i]``) is ε --
  warm-up iterations ``k < max_delay``, ε inputs, an
  ``override_value(..., None)`` -- it returns ``None`` before evaluating
  any weight;
* the *ε-aware* body, which then computes the iteration exactly like the
  (max, +) definition: an arc whose source is ε is skipped and its weight
  is not evaluated.  :attr:`TDGEvaluator.eps_aware_steps` counts how
  often it ran.

``peek_delayed`` is generated the same way, one function per node.  A
node with a zero-delay arc has its error text built once; it is raised
at once when that arc comes first, and otherwise after the delayed arcs
before it are evaluated, as the per-arc walk would.

Weight hoisting
---------------
Constant weights are folded; plain weight callables keep one validated
:meth:`~repro.tdg.arc.DependencyArc.weight_ps` call per arc, in plan
order, in both bodies.  A :class:`~repro.tdg.arc.WorkloadWeight` (or any
weight exposing ``weight_ps``) is trusted: the ε-free body, where every
arc's source has a value and so every weight would be evaluated,
evaluates each distinct *workload* once per iteration, at its first use
in plan order -- so the first error raised is the one the per-arc walk
would raise.  A :class:`~repro.archmodel.workload.PerUnitExecutionTime`
is folded to ``base + per_unit * u``, reading the token attribute once
per ``(attribute, default_units)``; an attribute that is not a
non-negative ``int`` is handed back to the model, which raises its own
:class:`~repro.errors.ModelError`.  The ε-aware body and the peeks call
each arc's weight where the per-arc walk would.

Node names never enter the generated source: nodes are locals named by
index, constants are ``repr()``'d integers, and names, attributes and
callables are bound in the module's namespace -- so no name can break or
inject into the generated code.  Compiled code objects are cached by
source text (:data:`_CODE_CACHE`), so evaluators of one graph structure
compile once.

History handling
----------------
Delayed dependencies (``x(k-d)``) only need the last ``max_delay``
iterations.  The ring buffer is *iteration-major*: ``ring[k % size]``
is the whole value list of iteration ``k`` (``size = max_delay + 1``).
Each step stores the list the generated body returned in its slot, so
there is no per-node write-back.  Slots no iteration has written yet
hold ε, which is exactly what a delayed arc reaching before iteration 0
must read.  Nodes whose complete history is needed -- boundary outputs
checked for accuracy, instants used to rebuild resource usage -- can be
*recorded* (``record_nodes`` / ``record_all``), in which case the full
value list is retained.

Boundary feedback
-----------------
``override_value()`` lets the equivalent model replace a computed value
with the instant actually observed on the simulator (e.g. when an
external consumer accepts an output later than computed); subsequent
iterations then use the corrected value.
"""

from __future__ import annotations

from types import CodeType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..archmodel.workload import PerUnitExecutionTime
from ..errors import ComputationError
from ..kernel.simtime import Time
from .arc import DependencyArc, WorkloadWeight
from .graph import TemporalDependencyGraph
from .node import InstantNode

__all__ = ["TDGEvaluator"]

InstantListener = Callable[[int, InstantNode, Optional[int]], None]
_WeightFn = Callable[[int, Mapping[str, Any]], int]

#: Compiled generated modules keyed by their source text: evaluators of
#: graphs with the same structure and constants share the code objects.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_LIMIT = 32


def _compiled(source: str) -> CodeType:
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            del _CODE_CACHE[next(iter(_CODE_CACHE))]  # oldest first
        code = _CODE_CACHE[source] = compile(source, "<generated TDG step>", "exec")
    return code


def _missing_input(name: str, k: int) -> None:
    raise ComputationError(f"missing input instant for node {name!r} at iteration {k}")


def _peek_error(message: str) -> None:
    raise ComputationError(message)


# One arc of the ε-aware body: ``best`` raised to ``value + weight`` unless
# ``value`` is ε, in which case the weight is not evaluated.
def _max_plus(best: Optional[int], value: Optional[int], weight_ps: int) -> Optional[int]:
    if value is None:
        return best
    value += weight_ps
    return value if best is None or value > best else best


def _max_call(
    best: Optional[int], value: Optional[int], weight: _WeightFn, k: int, context: Any
) -> Optional[int]:
    if value is None:
        return best
    value += weight(k, context)
    return value if best is None or value > best else best


def _constant_ps(arc: DependencyArc) -> int:
    # A constant arc ignores the iteration and its context.
    return int(arc.weight_ps(0, {}))


class _Generator:
    """Emits the module of one graph's evaluator and binds the objects it names.

    Locals of the generated code are lower-case: ``x<i>`` node values,
    ``p<d>_<i>`` delayed reads, ``r<d>`` ring rows, ``t`` a candidate and
    ``u<j>``/``w<j>``/``token<j>`` hoisted values.  Every other object --
    node names, attributes, weights, messages -- is an upper-case name bound
    in :attr:`env`.
    """

    def __init__(self, graph: TemporalDependencyGraph, size: int) -> None:
        self.size = size
        self.env: Dict[str, Any] = {
            "_missing_input": _missing_input,
            "_peek_error": _peek_error,
            "_max_plus": _max_plus,
            "_max_call": _max_call,
        }
        self._bound: Dict[Any, str] = {}
        self._hoisted: Dict[Any, str] = {}
        self.nodes = list(graph.nodes)
        self.inputs = [node.index for node in graph.input_nodes]
        # (node index, arcs) of every computed node, in topological order.
        self.plan = [
            (node.index, graph.arcs_into(node))
            for node in graph.topological_order()
            if not node.is_input
        ]

    def bind(self, prefix: str, key: Any, value: Any) -> str:
        """Name of ``value`` in the generated module (one name per ``key``)."""
        name = self._bound.get(key)
        if name is None:
            name = self._bound[key] = f"{prefix}{len(self._bound)}"
            self.env[name] = value
        return name

    def per_arc_call(self, arc: DependencyArc) -> str:
        """Name of the weight function the per-arc walk calls for ``arc``."""
        weight = arc.weight_callable
        trusted = getattr(weight, "weight_ps", None)
        if trusted is not None:
            return self.bind("F", ("weight", id(weight)), trusted)
        return self.bind("F", ("arc", id(arc)), arc.weight_ps)

    def module(self) -> Tuple[str, List[Union[None, str, int]]]:
        """The module source and, per node, how ``peek_delayed`` answers.

        ``None`` for an input (no arc: never constrained), the error text for
        a node whose first arc has delay 0, else the node index naming the
        generated ``peek<index>``.
        """
        lines = self.eps_free() + self.eps_aware()
        peeks: List[Union[None, str, int]] = [None] * len(self.nodes)
        for index, arcs in self.plan:
            zero = next((position for position, arc in enumerate(arcs) if not arc.delay), None)
            error = None
            if zero is not None:
                error = (
                    f"peek_delayed({self.nodes[index].name!r}) requires delayed arcs only, "
                    f"but the arc from {arcs[zero].source.name!r} has delay 0"
                )
                if not zero:
                    peeks[index] = error
                    continue
            lines += self.peek(index, arcs[:zero], error)
            peeks[index] = index
        return "\n".join(lines) + "\n", peeks

    # -- the ε-free body ------------------------------------------------
    def hoist(self, prefix: str, key: Any, lines: List[str], make: Callable[[str], str]) -> str:
        """Local holding hoisted value ``key``; its first use emits ``make(local)``."""
        local = self._hoisted.get(key)
        if local is None:
            local = self._hoisted[key] = f"{prefix}{len(self._hoisted)}"
            lines.append(make(local))
        return local

    def token(self, lines: List[str]) -> str:
        make = lambda t: f'    {t} = context.get("token") if context else None'
        return self.hoist("token", "token", lines, make)

    def units(self, workload: PerUnitExecutionTime, lines: List[str]) -> str:
        """Local holding the workload's validated unit count, read once per iteration."""
        attribute, default = workload.attribute, int(workload.default_units)
        token = self.token(lines)

        def make(u: str) -> str:
            name = self.bind("A", ("attribute", attribute), attribute)
            model = self.bind("P", ("units", attribute, default), workload)
            # Anything but a non-negative int goes to the model's own check,
            # which raises its ModelError.
            return (
                f"    {u} = {token}.get({name}, {default!r}) if {token} is not None "
                f"else {default!r}\n"
                f"    if type({u}) is not int or {u} < 0:\n"
                f"        {u} = {model}.units({token})"
            )

        return self.hoist("u", ("units", attribute, default), lines, make)

    def weight_term(self, arc: DependencyArc, lines: List[str]) -> str:
        """`` + weight`` of one arc, emitting the hoisted values it needs first."""
        if arc.is_constant:
            constant = _constant_ps(arc)
            return f" + {constant!r}" if constant else ""
        weight = arc.weight_callable
        call = self.per_arc_call(arc)
        if getattr(weight, "weight_ps", None) is None:
            return f" + {call}(k, context)"
        if type(weight) is not WorkloadWeight:
            key: Tuple[Any, ...] = ("weight", id(weight))
            make = lambda w: f"    {w} = {call}(k, context)"
        elif type(weight.workload) is PerUnitExecutionTime:
            workload = weight.workload
            units = self.units(workload, lines)
            base, per_unit = (int(ps) for ps in workload.affine_ps)
            key = ("per-unit", base, per_unit, workload.attribute, int(workload.default_units))
            make = lambda w: f"    {w} = {base!r} + {per_unit!r} * {units}"
        else:
            token = self.token(lines)
            workload = weight.workload
            duration = self.bind("D", ("workload", id(workload)), workload.duration_ps)
            key = ("workload", id(workload))
            make = lambda w: f"    {w} = {duration}(k, {token})"
        return " + " + self.hoist("w", key, lines, make)

    def eps_free(self) -> List[str]:
        lines = ["def eps_free(k, ring, inputs, context):"]
        guard = []
        for index in self.inputs:
            name = self.bind("N", ("input", index), self.nodes[index].name)
            lines.append(f"    x{index} = inputs.get({name})")
            guard.append(f"x{index}")
        delayed = sorted(
            {(arc.delay, arc.source.index) for _, arcs in self.plan for arc in arcs if arc.delay}
        )
        for delay in sorted({delay for delay, _ in delayed}):
            lines.append(f"    r{delay} = ring[(k - {delay}) % {self.size}]")
        for delay, source in delayed:
            lines.append(f"    p{delay}_{source} = r{delay}[{source}]")
            guard.append(f"p{delay}_{source}")
        if guard:
            lines.append(f"    if {' is None or '.join(guard)} is None:")
            lines.append("        return None")
        # Every node is computed, even one that copies its only source: the
        # cost of ComputeInstant() grows with the node count (Fig. 5).
        for target, arcs in self.plan:
            for position, arc in enumerate(arcs):
                term = f"p{arc.delay}_{arc.source.index}" if arc.delay else f"x{arc.source.index}"
                term += self.weight_term(arc, lines)
                if position == 0:
                    lines.append(f"    x{target} = {term}")
                elif " " in term:
                    lines.append(f"    t = {term}")
                    lines.append(f"    if t > x{target}: x{target} = t")
                else:
                    lines.append(f"    if {term} > x{target}: x{target} = {term}")
        lines.append(f"    return [{', '.join(f'x{node.index}' for node in self.nodes)}]")
        return lines

    # -- the ε-aware body and the peeks -----------------------------------
    def max_of(
        self,
        target: str,
        arcs: Iterable[DependencyArc],
        read: Callable[[DependencyArc], str],
        context: str,
    ) -> List[str]:
        """Statements setting ``target`` to the max over ``arcs`` whose source is not ε."""
        lines = []
        for position, arc in enumerate(arcs):
            best = target if position else "None"
            if arc.is_constant:
                add = f"_max_plus({best}, {read(arc)}, {_constant_ps(arc)!r})"
            else:
                add = f"_max_call({best}, {read(arc)}, {self.per_arc_call(arc)}, k, {context})"
            lines.append(f"    {target} = {add}")
        return lines

    def eps_aware(self) -> List[str]:
        lines = ["def eps_aware(k, ring, inputs, context):"]
        for index in self.inputs:
            name = self.bind("N", ("input", index), self.nodes[index].name)
            lines.append(f"    if {name} not in inputs: _missing_input({name}, k)")
            lines.append(f"    x{index} = inputs[{name}]")
        for delay in sorted({arc.delay for _, arcs in self.plan for arc in arcs if arc.delay}):
            lines.append(f"    r{delay} = ring[(k - {delay}) % {self.size}]")

        def read(arc: DependencyArc) -> str:
            return f"r{arc.delay}[{arc.source.index}]" if arc.delay else f"x{arc.source.index}"

        for target, arcs in self.plan:
            lines += self.max_of(f"x{target}", arcs, read, "context")
        lines.append(f"    return [{', '.join(f'x{node.index}' for node in self.nodes)}]")
        return lines

    def peek(self, index: int, arcs: Sequence[DependencyArc], error: Optional[str]) -> List[str]:
        """``peek<index>(k, ring)``: the max over the delayed ``arcs`` of one node.

        With ``error`` set, ``arcs`` are the delayed arcs before the node's
        first zero-delay arc: they are evaluated as the per-arc walk would,
        weights included, then the error is raised.
        """

        def read(arc: DependencyArc) -> str:
            return f"ring[(k - {arc.delay}) % {self.size}][{arc.source.index}]"

        # Ready-arc weights see an empty context.
        lines = [f"def peek{index}(k, ring):", *self.max_of("v", arcs, read, "{}")]
        if error is None:
            lines.append("    return v")
        else:
            lines.append(f"    _peek_error({self.bind('E', ('peek', index), error)})")
        return lines


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
        # ring[k % ring_size] is the value list of iteration k.
        self._ring: List[List[Optional[int]]] = [
            [None] * len(self._nodes) for _ in range(self._ring_size)
        ]
        self._current: List[Optional[int]] = self._ring[-1]
        self._iteration = 0
        #: Iterations computed by the ε-aware body (the rest ran ε-free).
        self.eps_aware_steps = 0

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

        generator = _Generator(graph, self._ring_size)
        source, peeks = generator.module()
        env = generator.env
        exec(_compiled(source), env)
        self._eps_free = env["eps_free"]
        self._eps_aware = env["eps_aware"]
        # Per node: None, the error text to raise, or the generated peek.
        self._peeks: List[Union[None, str, Callable[..., Optional[int]]]] = [
            env[f"peek{peek}"] if type(peek) is int else peek for peek in peeks
        ]

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
        current = self._eps_free(k, ring, inputs, context)
        if current is None:
            self.eps_aware_steps += 1
            current = self._eps_aware(k, ring, inputs, context)
        ring[k % self._ring_size] = current
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
        peek = self._peeks[self._require_node(name)]
        if peek is None:
            return None
        if type(peek) is str:
            raise ComputationError(peek)
        return peek(self._iteration, self._ring)

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
