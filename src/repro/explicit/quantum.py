"""Loosely-timed (TLM-LT) baseline with temporal decoupling.

Section I of the paper discusses the loosely-timed coding style of
TLM-2.0 as the standard way to reduce simulation events: processes run
ahead of the simulation time in a local time offset and only
synchronise with the kernel when the offset exceeds a *global quantum*.
"However, too large a value can lead to degraded timing accuracy
because delays due to access conflicts to shared resources are not
simulated."

This module implements that baseline so its speed/accuracy trade-off
can be measured against the dynamic computation method (ablation
benchmark):

* execute steps accumulate their duration in a per-process local
  offset; the process yields to the kernel only when the offset reaches
  the quantum (fewer timed events),
* resource arbitration is *not* simulated while running ahead -- the
  documented source of inaccuracy of the coding style,
* a read synchronises the process only when its local offset already
  exceeds the quantum; otherwise the exchange happens at the (stale)
  kernel time, which is where timing error appears.

The recorded exchange instants can be compared with the accurate
explicit model through :func:`repro.observation.compare.compare_instants`.
"""

from __future__ import annotations

from typing import Dict, Generator, Mapping, Optional, Tuple

from ..archmodel.application import RelationKind
from ..archmodel.architecture import ArchitectureModel
from ..archmodel.function import AppFunction
from ..archmodel.platform import ProcessingResource
from ..archmodel.token import DataToken
from ..archmodel.workload import bind_workload
from ..channels.base import ChannelBase
from ..channels.fifo import FifoChannel
from ..channels.rendezvous import RendezvousChannel
from ..environment.sink import AlwaysReadySink, Sink
from ..environment.stimulus import Stimulus
from ..errors import ModelError, SimulationError
from ..kernel.scheduler import Simulator
from ..kernel.simtime import Duration, Time
from ..kernel.stats import KernelStats
from .processes import SinkDriver, StimulusDriver

__all__ = ["LooselyTimedArchitectureModel"]


def _loosely_timed_function_process(
    simulator: Simulator,
    function: AppFunction,
    channels: Dict[str, ChannelBase],
    quantum: Duration,
    resource: ProcessingResource,
) -> Generator:
    """Temporally decoupled interpretation of one function's behaviour."""
    workloads = {
        step_index: bind_workload(step.workload, resource)
        for step_index, step in enumerate(function.steps)
        if step.kind == "execute"
    }
    iteration = 0
    token: Optional[DataToken] = None
    local_offset = 0
    quantum_ps = quantum.picoseconds
    while True:
        for step_index, step in enumerate(function.steps):
            kind = step.kind
            if kind == "read":
                if local_offset >= quantum_ps and local_offset > 0:
                    yield Duration(local_offset)
                    local_offset = 0
                token = yield from channels[step.relation].read()
            elif kind == "write":
                yield from channels[step.relation].write(token)
            elif kind == "execute":
                local_offset += workloads[step_index].duration_ps(iteration, token)
                if local_offset >= quantum_ps and local_offset > 0:
                    yield Duration(local_offset)
                    local_offset = 0
            elif kind == "delay":
                local_offset += step.duration.picoseconds
                if local_offset >= quantum_ps and local_offset > 0:
                    yield Duration(local_offset)
                    local_offset = 0
            else:  # pragma: no cover - new primitives must be handled explicitly
                raise SimulationError(f"unsupported behaviour step kind {kind!r}")
        iteration += 1


class LooselyTimedArchitectureModel:
    """Quantum-based temporally decoupled model of an architecture (TLM-LT baseline)."""

    def __init__(
        self,
        architecture: ArchitectureModel,
        stimuli: Mapping[str, Stimulus],
        quantum: Duration,
        sinks: Optional[Mapping[str, Sink]] = None,
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(quantum, Duration) or quantum.is_negative():
            raise ModelError("the global quantum must be a non-negative Duration")
        architecture.validate()
        self.architecture = architecture
        self.quantum = quantum
        self.name = name or f"{architecture.name}-lt"
        self.simulator = Simulator(self.name)

        relations = architecture.relations()
        external_inputs = {spec.name for spec in architecture.external_inputs()}
        external_outputs = {spec.name for spec in architecture.external_outputs()}
        missing = external_inputs - set(stimuli)
        if missing:
            raise ModelError(f"missing stimuli for external inputs: {sorted(missing)}")
        sinks = dict(sinks or {})
        for relation in external_outputs:
            sinks.setdefault(relation, AlwaysReadySink())

        self._channels: Dict[str, ChannelBase] = {}
        for spec in relations.values():
            if spec.kind is RelationKind.FIFO:
                channel: ChannelBase = FifoChannel(self.simulator, spec.name, spec.capacity)
            else:
                channel = RendezvousChannel(self.simulator, spec.name)
            self._channels[spec.name] = channel

        for function in architecture.application.functions:
            self.simulator.spawn(
                _loosely_timed_function_process,
                self.simulator,
                function,
                self._channels,
                quantum,
                architecture.resource_of(function.name),
                name=f"lt:{function.name}",
            )

        self._stimulus_drivers: Dict[str, StimulusDriver] = {}
        for relation, stimulus in stimuli.items():
            driver = StimulusDriver(self.simulator, self._channels[relation], stimulus)
            self._stimulus_drivers[relation] = driver
            self.simulator.spawn(driver.process, name=f"stimulus:{relation}")
        self._sink_drivers: Dict[str, SinkDriver] = {}
        for relation, sink in sinks.items():
            driver = SinkDriver(self.simulator, self._channels[relation], sink)
            self._sink_drivers[relation] = driver
            self.simulator.spawn(driver.process, name=f"sink:{relation}")

        self._final_stats: Optional[KernelStats] = None

    # ------------------------------------------------------------------
    def run(self, until=None) -> KernelStats:
        """Run the model and return the kernel statistics."""
        self._final_stats = self.simulator.run(until)
        return self._final_stats

    @property
    def kernel_stats(self) -> KernelStats:
        return self._final_stats if self._final_stats is not None else self.simulator.stats()

    def exchange_instants(self, relation: str) -> Tuple[Time, ...]:
        try:
            return self._channels[relation].exchange_instants
        except KeyError:
            raise ModelError(f"unknown relation {relation!r}") from None

    def output_instants(self, relation: str) -> Tuple[Time, ...]:
        return self.exchange_instants(relation)

    def relation_event_count(self) -> int:
        return sum(channel.exchange_count for channel in self._channels.values())

    def __repr__(self) -> str:
        return (
            f"LooselyTimedArchitectureModel({self.architecture.name!r}, quantum={self.quantum})"
        )
