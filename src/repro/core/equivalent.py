"""The equivalent executable model (Fig. 4 of the paper).

A group of architecture processes is replaced by a single module made
of two kernel processes:

* **Reception** -- waits for data on the boundary input relations.  For
  every iteration it first evaluates (from previously computed
  instants) when the abstracted consumer would be ready to accept the
  next item, waits until then if needed, performs the actual exchange,
  then runs ``ComputeInstant()`` in zero simulation time and stores the
  computed output instants (the paper's ``YStored``).
* **Emission** (one process per boundary output relation) -- whenever a
  new output instant is stored, lets simulation time advance to that
  instant and produces the output data, so the rest of the architecture
  model observes exactly the same behaviour as the abstracted
  processes, with only a handful of simulation events per iteration.

The actual exchange instants observed on the boundary are fed back into
the instant computer so that environment back-pressure (an input
offered late, an output accepted late) is reflected in the following
iterations.

Accuracy at the boundary
------------------------
Boundary *inputs* are always exact: the Reception process waits for the
computed readiness of the abstracted consumer before accepting an item,
so the exchange instant observed by the producer (environment or
simulated function) is identical to the fully event-driven model.

Boundary *outputs* are exact as long as their consumer accepts each
item no later than the computed offer instant (the always-ready
observer of the paper's experiments).  When a simulated consumer
back-pressures an output relation, ``ComputeInstant()`` has already used
the optimistic (computed) exchange instant for the current iteration --
exactly like the paper's equations use ``xM6(k-1)`` before the exchange
actually happened; the feedback mechanism corrects the history for
later iterations, but iterations computed in between keep the
optimistic value.  Group processes so that back-pressured relations stay
*inside* the group (or arrive at the group as inputs) when exactness is
required; :mod:`repro.core.partition` helps choosing such groupings.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, List, Mapping, Optional, Tuple

from ..archmodel.token import DataToken
from ..channels.base import ChannelBase
from ..errors import ModelError
from ..kernel.simtime import Duration, Time
from .compute import InstantComputer
from .spec import EquivalentModelSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.scheduler import Simulator

__all__ = ["EquivalentProcessModel"]


class EquivalentProcessModel:
    """Reception + Emission processes driving an :class:`InstantComputer`."""

    def __init__(
        self,
        simulator: "Simulator",
        spec: EquivalentModelSpec,
        input_channels: Mapping[str, ChannelBase],
        output_channels: Mapping[str, ChannelBase],
        computer: Optional[InstantComputer] = None,
        max_iterations: Optional[int] = None,
    ) -> None:
        self.simulator = simulator
        self.spec = spec
        self.computer = computer or InstantComputer(spec)
        self.max_iterations = max_iterations

        missing_inputs = {b.relation for b in spec.boundary_inputs} - set(input_channels)
        if missing_inputs:
            raise ModelError(f"missing input channels: {sorted(missing_inputs)}")
        missing_outputs = {b.relation for b in spec.boundary_outputs} - set(output_channels)
        if missing_outputs:
            raise ModelError(f"missing output channels: {sorted(missing_outputs)}")
        self._input_channels = dict(input_channels)
        self._output_channels = dict(output_channels)

        self._pending: Dict[str, Deque[Tuple[int, Optional[int], Optional[DataToken]]]] = {
            boundary.relation: deque() for boundary in spec.boundary_outputs
        }
        self._stored_events = {
            boundary.relation: simulator.create_event(f"ystored[{boundary.relation}]")
            for boundary in spec.boundary_outputs
        }

        self.reception_process = simulator.spawn(
            self._reception, name=f"{spec.graph.name}:reception"
        )
        self.emission_processes = [
            simulator.spawn(
                self._emission,
                boundary.relation,
                name=f"{spec.graph.name}:emission[{boundary.relation}]",
            )
            for boundary in spec.boundary_outputs
        ]

    # ------------------------------------------------------------------
    # kernel processes
    # ------------------------------------------------------------------
    def _reception(self) -> Generator:
        spec = self.spec
        computer = self.computer
        simulator = self.simulator
        inputs = [
            (boundary.relation, self._input_channels[boundary.relation])
            for boundary in spec.boundary_inputs
        ]
        outputs_to = [
            (boundary.relation, self._pending[boundary.relation],
             self._stored_events[boundary.relation])
            for boundary in spec.boundary_outputs
        ]
        while self.max_iterations is None or computer.next_iteration < self.max_iterations:
            iteration = computer.next_iteration
            tokens: Dict[str, Optional[DataToken]] = {}
            instants: Dict[str, int] = {}
            for relation, channel in inputs:
                ready_ps = computer.ready_instant(relation)
                now_ps = simulator.now_ps
                if ready_ps is not None and ready_ps > now_ps:
                    yield Duration(ready_ps - now_ps)
                tokens[relation] = yield from channel.read()
                instants[relation] = simulator.now_ps
            # ComputeInstant(): zero simulation time.
            outputs = computer.compute_iteration(instants, tokens)
            primary_token = tokens.get(spec.primary_input)
            for relation, pending, stored_event in outputs_to:
                pending.append((iteration, outputs[relation], primary_token))
                stored_event.notify_immediate()

    def _emission(self, relation: str) -> Generator:
        simulator = self.simulator
        channel = self._output_channels[relation]
        pending = self._pending[relation]
        stored_event = self._stored_events[relation]
        while True:
            while not pending:
                yield stored_event
            iteration, offer_ps, token = pending.popleft()
            if offer_ps is not None:
                now_ps = simulator.now_ps
                if offer_ps > now_ps:
                    yield Duration(offer_ps - now_ps)
            yield from channel.write(token)
            actual_ps = simulator.now_ps
            if offer_ps is None or actual_ps != offer_ps:
                self.computer.feedback(relation, iteration, actual_ps)

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    @property
    def iterations_completed(self) -> int:
        """Number of iterations whose instants have been computed."""
        return self.computer.iterations_computed

    def stored_output_count(self, relation: str) -> int:
        """Number of computed outputs not yet emitted for ``relation``."""
        return len(self._pending[relation])

    def computed_output_instants(self, relation: str) -> List[Optional[Time]]:
        """The ``y(k)`` instants computed so far for a boundary output."""
        return self.computer.output_instants(relation)

    def __repr__(self) -> str:
        return (
            f"EquivalentProcessModel({self.spec.graph.name!r}, "
            f"iterations={self.iterations_completed})"
        )
