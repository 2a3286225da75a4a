"""Differential test of :class:`~repro.tdg.evaluator.TDGEvaluator`.

The evaluator runs Python generated for its graph over an iteration-major
ring of value lists.  :class:`ReferenceEvaluator` below is an earlier
implementation (per-node rings, a per-arc plan walk, a per-node write-back
after every step), kept verbatim as the oracle.  Hypothesis builds random
graphs -- up to 20 computed nodes named with quotes, braces, newlines and
code, delays 0-3, constant, plain-callable and workload-backed weights,
weight and workload objects shared across arcs, a second per-unit
attribute, counting and negative-returning callables -- and interleaves
``step`` (ε inputs, invalid token attributes, no token or no context) with
``override_value``, ``peek_delayed``, ``value``, recorded histories and
listeners.  Both evaluators must agree on every result, every error
(:class:`~repro.errors.ComputationError`, :class:`~repro.errors.GraphError`
and :class:`~repro.errors.ModelError`) and every call of a counting weight.
"""

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.archmodel import (
    DataDependentExecutionTime,
    DataToken,
    PerUnitExecutionTime,
    TableExecutionTime,
)
from repro.core.builder import workload_weight
from repro.errors import ComputationError, GraphError, ModelError
from repro.kernel.simtime import Duration, Time
from repro.tdg import TDGEvaluator, TemporalDependencyGraph
from repro.tdg.node import InstantNode

InstantListener = Callable[[int, InstantNode, Optional[int]], None]


class ReferenceEvaluator:
    """The node-major evaluator the flat one replaced (docstrings trimmed)."""

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
        node_count = len(self._nodes)
        # ring[i][k % ring_size] holds the value of node i at iteration k
        self._ring: List[List[Optional[int]]] = [
            [None] * self._ring_size for _ in range(node_count)
        ]
        self._current: List[Optional[int]] = [None] * node_count
        self._iteration = 0

        record_set = set(record_nodes or [])
        unknown = record_set - set(self._index_of)
        if unknown:
            raise ComputationError(f"cannot record unknown nodes: {sorted(unknown)}")
        if record_all:
            record_set = set(self._index_of)
        self._recorded: Dict[str, List[Optional[int]]] = {name: [] for name in record_set}

        self._listeners: List[InstantListener] = []

        # Pre-compile the evaluation plan: for every computed node (in
        # topological order) the list of (source index, delay, constant weight
        # or callable) triples of its incoming arcs.
        self._plan: List[Tuple[int, List[Tuple[int, int, Optional[int], Any]]]] = []
        for node in graph.topological_order():
            if node.is_input:
                continue
            incoming = []
            for arc in graph.arcs_into(node):
                if arc.is_constant:
                    constant: Optional[int] = arc.constant_weight.picoseconds
                    weight_fn = None
                else:
                    constant = None
                    # Trusted weight objects expose an integer fast path that
                    # skips the per-call Duration validation of weight_ps.
                    weight_fn = getattr(arc.weight_callable, "weight_ps", None) or arc.weight_ps
                incoming.append((arc.source.index, arc.delay, constant, weight_fn))
            self._plan.append((node.index, incoming))

        self._input_indices = [node.index for node in graph.input_nodes]
        self._output_nodes = list(graph.output_nodes)

    def add_listener(self, listener: InstantListener) -> None:
        self._listeners.append(listener)

    @property
    def iteration(self) -> int:
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
        current = self._current
        ring = self._ring
        ring_slot = k % self._ring_size

        for index in range(len(current)):
            current[index] = None
        for node_index in self._input_indices:
            name = self._nodes[node_index].name
            if name not in inputs:
                raise ComputationError(
                    f"missing input instant for node {name!r} at iteration {k}"
                )
            current[node_index] = inputs[name]

        for node_index, incoming in self._plan:
            best: Optional[int] = None
            for source_index, delay, constant, weight_fn in incoming:
                if delay == 0:
                    source_value = current[source_index]
                else:
                    source_iteration = k - delay
                    if source_iteration < 0:
                        source_value = None
                    else:
                        source_value = ring[source_index][source_iteration % self._ring_size]
                if source_value is None:
                    continue
                weight = constant if constant is not None else weight_fn(k, context)
                candidate = source_value + weight
                if best is None or candidate > best:
                    best = candidate
            current[node_index] = best

        for node_index, value in enumerate(current):
            ring[node_index][ring_slot] = value
        for name, values in self._recorded.items():
            values.append(current[self._index_of[name]])
        if self._listeners:
            for node in self._nodes:
                value = current[node.index]
                for listener in self._listeners:
                    listener(k, node, value)

        self._iteration = k + 1
        return {node.name: current[node.index] for node in self._output_nodes}

    def peek_delayed(self, name: str) -> Optional[int]:
        index = self._require_node(name)
        k = self._iteration
        best: Optional[int] = None
        for arc in self.graph.arcs_into(self._nodes[index]):
            if arc.delay == 0:
                raise ComputationError(
                    f"peek_delayed({name!r}) requires delayed arcs only, but the arc from "
                    f"{arc.source.name!r} has delay 0"
                )
            source_iteration = k - arc.delay
            if source_iteration < 0:
                continue
            source_value = self._ring[arc.source.index][source_iteration % self._ring_size]
            if source_value is None:
                continue
            candidate = source_value + arc.weight_ps(k, {})
            if best is None or candidate > best:
                best = candidate
        return best

    def value(self, name: str, k: Optional[int] = None) -> Optional[int]:
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
        return self._ring[index][k % self._ring_size]

    def recorded(self, name: str) -> List[Optional[int]]:
        if name not in self._recorded:
            raise ComputationError(f"node {name!r} is not recorded")
        return list(self._recorded[name])

    def recorded_times(self, name: str) -> List[Optional[Time]]:
        return [None if value is None else Time(value) for value in self.recorded(name)]

    def last_values(self) -> Dict[str, Optional[int]]:
        if self._iteration == 0:
            raise ComputationError("no iteration has been evaluated yet")
        return {node.name: self._current[node.index] for node in self._nodes}

    def override_value(self, name: str, k: int, value: Optional[int]) -> None:
        index = self._require_node(name)
        if k < 0 or k >= self._iteration:
            raise ComputationError(f"cannot override iteration {k}: it has not been evaluated")
        if k < self._iteration - self._ring_size:
            raise ComputationError(
                f"cannot override iteration {k}: it is no longer buffered "
                f"(ring size {self._ring_size})"
            )
        self._ring[index][k % self._ring_size] = value
        if k == self._iteration - 1:
            self._current[index] = value
        if name in self._recorded:
            self._recorded[name][k] = value

    def _require_node(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise ComputationError(f"unknown node {name!r}") from None


# ----------------------------------------------------------------------
# random graphs and operation sequences
# ----------------------------------------------------------------------
class _AffineWeight:
    """A plain weight callable (no integer fast path): ``a * (k % 5) + b`` ps."""

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def __call__(self, k: int, context: Mapping[str, Any]) -> Duration:
        return Duration(self.a * (k % 5) + self.b)


class _CountingWeight:
    """A plain weight callable counting its calls: ``k % 3 + bias`` ps."""

    def __init__(self, bias: int) -> None:
        self.bias = bias
        self.calls = 0

    def __call__(self, k: int, context: Mapping[str, Any]) -> Duration:
        self.calls += 1
        return Duration(k % 3 + self.bias)


def _size(token: Optional[DataToken]) -> Any:
    """The token's ``size`` attribute; -1 without a token."""
    return -1 if token is None else token.get("size")


class _NegativeWeight(_CountingWeight):
    """A counting plain callable, negative when the token's size is ``trigger``.

    A trigger of -1 fires without a token: on a ``peek_delayed`` (empty
    context) and on steps given no token.  The failure follows the data,
    not ``k``, so a sequence gets past a failed step.
    """

    def __init__(self, trigger: int) -> None:
        super().__init__(2)
        self.trigger = trigger

    def __call__(self, k: int, context: Mapping[str, Any]) -> Duration:
        duration = super().__call__(k, context)
        token = context.get("token") if context else None
        return Duration(-1) if _size(token) == self.trigger else duration


class _TrustedWeight:
    """A weight exposing the integer fast path ``weight_ps``: ``k % 4 + offset`` ps."""

    def __init__(self, offset: int) -> None:
        self.offset = offset

    def weight_ps(self, k: int, context: Mapping[str, Any]) -> int:
        return k % 4 + self.offset

    def __call__(self, k: int, context: Mapping[str, Any]) -> Duration:
        return Duration(self.weight_ps(k, context))


def _sometimes_negative(k: int, token: Optional[DataToken]) -> Duration:
    return Duration(-1) if _size(token) == 9 else Duration(3 * (k % 4))


_weights = st.one_of(
    st.none(),
    st.integers(0, 50).map(Duration),
    st.builds(_AffineWeight, st.integers(0, 7), st.integers(0, 40)),
    # Workload-backed: the integer fast path, reading the context's token.
    st.builds(
        lambda base, per_unit: workload_weight(
            PerUnitExecutionTime(Duration(base), Duration(per_unit))
        ),
        st.integers(0, 30),
        st.integers(1, 5),
    ),
)

# Stems of node names the generated code must never see: quotes, braces,
# newlines and code.
_stems = st.sampled_from(
    ["x", "y", "it's", 'say "hi"', "{k}", "}{", "a\nb", "line\nbreak", "__import__('os')", "ε"]
)


@st.composite
def _graphs(draw) -> Tuple[TemporalDependencyGraph, List[_CountingWeight]]:
    """A random graph and the counting weights on its arcs.

    Besides the independent weights of ``_weights``, arcs draw from one pool
    per graph, so weight and workload objects are shared across arcs: one
    ``PerUnitExecutionTime`` (behind one shared weight object and behind
    fresh ones), a second one on another attribute or default, a table
    workload, a workload whose user function returns negative durations,
    two weights with the integer fast path, and two counting plain
    callables, one of which returns negative Durations.
    """
    graph = TemporalDependencyGraph("fuzz")
    counter = _CountingWeight(draw(st.integers(0, 5)))
    negative = _NegativeWeight(draw(st.integers(-1, 9)))
    base = draw(st.integers(0, 30))
    size = PerUnitExecutionTime(Duration(base), Duration(draw(st.integers(1, 5))))
    other = PerUnitExecutionTime(
        Duration(draw(st.one_of(st.just(base), st.integers(0, 30)))),
        Duration(draw(st.integers(0, 5))),
        attribute=draw(st.sampled_from(["size", "n"])),
        default_units=draw(st.integers(0, 3)),
    )
    durations = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    table = TableExecutionTime([Duration(d) for d in durations])
    shared = workload_weight(size)
    pool = st.one_of(
        _weights,
        st.sampled_from(
            [
                shared,
                workload_weight(other),
                workload_weight(table),
                workload_weight(DataDependentExecutionTime(_sometimes_negative)),
                counter,
                negative,
                _TrustedWeight(draw(st.integers(0, 9))),
                _TrustedWeight(draw(st.integers(10, 19))),
            ]
        ),
        st.builds(lambda: workload_weight(size)),
        st.sampled_from([workload_weight(other), counter, negative]),
    )
    inputs = [f"{draw(_stems)}@{i}" for i in range(draw(st.integers(1, 2)))]
    for name in inputs:
        graph.add_input(name)
    computed = []
    for j in range(draw(st.integers(1, 20))):
        name = f"{draw(_stems)}#{j}"
        (graph.add_output if draw(st.booleans()) else graph.add_internal)(name)
        computed.append(name)
    # In a grounded graph each node's first arc is a zero-delay one, so once
    # the inputs have values no node stays ε and the ε-free body runs; most
    # graphs are grounded so that most examples reach that body.
    grounded = draw(st.sampled_from([False, True, True, True]))
    for j, target in enumerate(computed):
        for arc in range(draw(st.integers(1, 3))):
            delay = 0 if grounded and not arc else draw(st.integers(0, 3))
            # Zero-delay arcs only come from earlier nodes, so the
            # same-iteration structure stays acyclic; delayed ones may loop.
            sources = inputs + computed[:j] if delay == 0 else inputs + computed
            source = draw(st.sampled_from(sources))
            graph.add_arc(source, target, draw(pool), delay=delay)
    return graph, [counter, negative]


_node = st.integers(0, 50)  # taken modulo the node count
_instant = st.one_of(st.none(), st.integers(0, 400))
# Token attributes, valid or not: a negative, bool, float, text or None
# attribute must raise the reference's ModelError.
_attribute = st.sampled_from(
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, -1, -3, True, False, 1.5, 2.0, "a", None]
)
_token_step = st.tuples(
    st.just("step-token"),
    st.lists(st.integers(0, 400), min_size=2, max_size=2),
    st.dictionaries(st.sampled_from(["size", "n"]), _attribute, max_size=2),
    st.sampled_from(["token", "token", "no token", "no context"]),
)


def _run(min_size: int) -> st.SearchStrategy:
    """Consecutive steps with instants and valid tokens."""
    sizes = st.lists(st.integers(0, 9), min_size=min_size, max_size=min_size + 7)
    return st.tuples(st.just("run"), sizes, st.integers(0, 3))


_operations = st.lists(
    st.one_of(
        st.tuples(st.just("step"), st.lists(_instant, min_size=2, max_size=2), st.integers(0, 9)),
        st.tuples(st.just("step"), st.lists(_instant, min_size=2, max_size=2), st.integers(0, 9)),
        # No ε input: a run of these reaches the ε-free body.
        _token_step,
        _token_step,
        _run(1),
        st.tuples(st.just("override"), _node, st.integers(-1, 5), _instant),
        st.tuples(st.just("peek"), _node),
        st.tuples(st.just("value"), _node, st.one_of(st.none(), st.integers(-1, 6))),
        st.tuples(st.just("listen")),
    ),
    max_size=40,
)
# Most examples open with a run past the largest delay (3), so the rest of
# their operations meet the generated ε-free body, not only the warm-up.
_leading = st.sampled_from([False, True, True, True]).flatmap(
    lambda lead: _run(4).map(lambda run: [run]) if lead else st.just([])
)
_operations = st.tuples(_leading, _operations).map(lambda parts: parts[0] + parts[1])


def _outcome(call: Callable[[], Any]) -> Tuple[Any, ...]:
    try:
        return ("ok", call())
    except (ComputationError, GraphError, ModelError) as error:
        return ("error", type(error).__name__, str(error))


def _state(evaluator, stale: bool) -> Tuple[Any, ...]:
    # After a step that raised, the reference's current-values list is half
    # overwritten (it is reused in place); last_values is compared again
    # after the next step that completes.
    recorded = sorted(evaluator._recorded)
    return (
        evaluator.iteration,
        None if stale else _outcome(evaluator.last_values),
        [(name, evaluator.recorded(name), evaluator.recorded_times(name)) for name in recorded],
    )


def _paired(pair, call, counters: List[_CountingWeight]) -> Tuple[List[Any], List[List[int]]]:
    """``call(evaluator)``'s outcome on both evaluators and the counting weights' calls it made."""
    results, calls = [], []
    for evaluator in pair:
        before = [counter.calls for counter in counters]
        results.append(_outcome(lambda: call(evaluator)))
        calls.append([counter.calls - start for counter, start in zip(counters, before)])
    return results, calls


def _expanded(operations):
    """The operations with each run replaced by its steps (instants ``None``: chosen per ``k``)."""
    for operation in operations:
        if operation[0] == "run":
            for size in operation[1]:
                yield ("step-token", None, {"size": size, "n": operation[2]}, "token")
        else:
            yield operation


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_graphs(), st.data(), _operations)
def test_flat_step_matches_the_reference_evaluator(graph_and_counters, data, operations):
    graph, counters = graph_and_counters
    names = [node.name for node in graph.nodes]
    record_all = data.draw(st.booleans(), label="record_all")
    record = data.draw(st.lists(st.sampled_from(names), unique=True), label="record")
    flat = TDGEvaluator(graph, record_nodes=record, record_all=record_all)
    reference = ReferenceEvaluator(graph, record_nodes=record, record_all=record_all)
    pair = (flat, reference)
    logs: Tuple[List[Any], List[Any]] = ([], [])
    inputs = [node.name for node in graph.input_nodes]
    stale = False

    for operation in _expanded(operations):
        kind = operation[0]
        k = reference.iteration
        calls = [[], []]
        if kind in ("step", "step-token"):
            instants = dict(zip(inputs, operation[1] or [10 * k, 10 * k + 3]))
            if kind == "step":
                attributes, given = {"size": operation[2]}, "token"
            else:
                attributes, given = operation[2], operation[3]
            token = DataToken(k, attributes) if given == "token" else None
            context = {"token": token, "tokens": {}, "iteration": k}
            if given == "no context":
                context = None
            results, calls = _paired(pair, lambda e: e.step(instants, context), counters)
            stale = results[1][0] == "error"
        elif kind == "override":
            name = names[operation[1] % len(names)]
            results = [
                _outcome(lambda e=e: e.override_value(name, k - operation[2], operation[3]))
                for e in pair
            ]
        elif kind == "peek":
            name = names[operation[1] % len(names)]
            results, calls = _paired(pair, lambda e: e.peek_delayed(name), counters)
        elif kind == "value":
            name = names[operation[1] % len(names)]
            back = operation[2]
            at = None if back is None else k - 1 - back
            results = [_outcome(lambda e=e: e.value(name, at)) for e in pair]
        else:  # listen
            for evaluator, log in zip(pair, logs):
                evaluator.add_listener(
                    lambda k, node, value, log=log: log.append((k, node.name, value))
                )
            results = [None, None]
        assert results[0] == results[1], operation
        assert calls[0] == calls[1], operation
        assert _state(flat, stale) == _state(reference, stale), operation
        assert logs[0] == logs[1], operation
