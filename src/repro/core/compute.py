"""The ``ComputeInstant()`` engine.

:class:`InstantComputer` wraps a :class:`~repro.tdg.evaluator.TDGEvaluator`
with everything the equivalent model's Reception/Emission processes need
per iteration:

* assembling the evaluation *context* (the iteration's data tokens, so
  data-dependent execution times can be evaluated),
* answering "when would the abstracted consumer be ready for the next
  input item?" (:meth:`ready_instant`),
* performing the zero-simulation-time computation of all intermediate
  and output instants (:meth:`compute_iteration`),
* accepting boundary feedback when the environment accepts an output
  later than computed (:meth:`feedback`),
* retaining the recorded instants and tokens needed for observation and
  accuracy checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..archmodel.token import DataToken
from ..errors import ComputationError
from ..kernel.simtime import Time
from ..tdg.evaluator import TDGEvaluator
from .spec import EquivalentModelSpec

__all__ = ["InstantComputer"]


class InstantComputer:
    """Stateful per-iteration computation of evolution instants for one equivalent model."""

    def __init__(
        self,
        spec: EquivalentModelSpec,
        record_relations: bool = False,
        record_usage: bool = False,
        extra_recorded_nodes: Optional[Iterable[str]] = None,
    ) -> None:
        self.spec = spec
        recorded = set(extra_recorded_nodes or [])
        for boundary in spec.boundary_outputs:
            recorded.add(boundary.offer_node)
            recorded.add(boundary.exchange_node)
        if record_relations:
            recorded.update(spec.relation_instant_nodes())
        if record_usage:
            recorded.update(spec.observation_nodes())
        self._record_usage = record_usage
        self.evaluator = TDGEvaluator(spec.graph, record_nodes=sorted(recorded))
        self._input_slots = tuple((b.relation, b.exchange_node) for b in spec.boundary_inputs)
        self._output_slots = tuple((b.relation, b.offer_node) for b in spec.boundary_outputs)
        self._ready_nodes = {b.relation: b.ready_node for b in spec.boundary_inputs}
        self._tokens: List[Optional[DataToken]] = []
        self._compute_calls = 0
        self._missed_feedback = 0

    # ------------------------------------------------------------------
    # per-iteration protocol (used by the Reception / Emission processes)
    # ------------------------------------------------------------------
    @property
    def next_iteration(self) -> int:
        """Index of the iteration the next :meth:`compute_iteration` call will evaluate."""
        return self.evaluator.iteration

    def ready_instant(self, relation: str) -> Optional[int]:
        """Earliest instant (ps) at which the group can accept the next item of ``relation``.

        ``None`` means "no constraint yet" (first iterations).
        """
        node = self._ready_nodes.get(relation)
        if node is None:
            raise ComputationError(f"{relation!r} is not a boundary input of the equivalent model")
        return self.evaluator.peek_delayed(node)

    def compute_iteration(
        self,
        input_instants: Mapping[str, int],
        tokens: Mapping[str, Optional[DataToken]],
    ) -> Dict[str, Optional[int]]:
        """Run ``ComputeInstant()`` for the next iteration.

        ``input_instants`` maps boundary-input *relation* names to the actual
        exchange instants observed on the simulator (integer picoseconds);
        ``tokens`` maps the same relation names to the received tokens.
        Returns a mapping of boundary-output relation names to the computed
        output (offer) instants.

        Data-dependent arc weights receive the context ``{"token": primary
        token, "tokens": tokens, "iteration": k}``; ``tokens`` is the caller's
        mapping itself, not a copy, so weights must not mutate it.
        """
        node_inputs: Dict[str, Optional[int]] = {}
        for relation, node in self._input_slots:
            if relation not in input_instants:
                raise ComputationError(f"missing exchange instant for boundary input {relation!r}")
            node_inputs[node] = input_instants[relation]

        primary_token = None
        if self.spec.primary_input is not None:
            primary_token = tokens.get(self.spec.primary_input)
        context = {"token": primary_token, "tokens": tokens, "iteration": self.evaluator.iteration}
        self._tokens.append(primary_token)
        outputs_by_node = self.evaluator.step(node_inputs, context)
        self._compute_calls += 1
        return {relation: outputs_by_node[node] for relation, node in self._output_slots}

    def feedback(self, relation: str, iteration: int, actual_ps: int) -> bool:
        """Record the actual exchange instant of a boundary output.

        Returns ``True`` when the correction could be applied, ``False`` when
        the iteration is no longer buffered (the computation has run too far
        ahead); the number of missed corrections is kept in
        :attr:`missed_feedback_count`.
        """
        boundary = self._output_boundary(relation)
        try:
            current = self.evaluator.value(boundary.exchange_node, iteration)
        except ComputationError:
            self._missed_feedback += 1
            return False
        if current is not None and current == actual_ps:
            return True
        try:
            self.evaluator.override_value(boundary.exchange_node, iteration, actual_ps)
        except ComputationError:
            self._missed_feedback += 1
            return False
        return True

    # ------------------------------------------------------------------
    # recorded results
    # ------------------------------------------------------------------
    @property
    def iterations_computed(self) -> int:
        return self._compute_calls

    @property
    def missed_feedback_count(self) -> int:
        """Boundary corrections that arrived too late to be applied."""
        return self._missed_feedback

    def token(self, iteration: int) -> Optional[DataToken]:
        """The primary token of iteration ``iteration``."""
        if not 0 <= iteration < len(self._tokens):
            raise ComputationError(f"iteration {iteration} has not been computed")
        return self._tokens[iteration]

    def output_instants(self, relation: str) -> List[Optional[Time]]:
        """Computed output instants ``y(k)`` of a boundary output relation."""
        boundary = self._output_boundary(relation)
        return self.evaluator.recorded_times(boundary.offer_node)

    def relation_instants(self, relation: str) -> List[Optional[Time]]:
        """Computed exchange instants of any covered relation (requires ``record_relations``)."""
        node = self.spec.relation_nodes.get(relation)
        if node is None:
            raise ComputationError(f"relation {relation!r} is not covered by the equivalent model")
        return self.evaluator.recorded_times(node)

    def usage_instants(self) -> Dict[str, List[Optional[int]]]:
        """Recorded start/end instants of every execute step (requires ``record_usage``)."""
        if not self._record_usage:
            raise ComputationError("the computer was created without record_usage=True")
        return {
            name: self.evaluator.recorded(name) for name in self.spec.observation_nodes()
        }

    def _output_boundary(self, relation: str):
        for boundary in self.spec.boundary_outputs:
            if boundary.relation == relation:
                return boundary
        raise ComputationError(f"{relation!r} is not a boundary output of the equivalent model")
