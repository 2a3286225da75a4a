"""Architecture model using the dynamic computation method.

:class:`EquivalentArchitectureModel` is the counterpart of
:class:`~repro.explicit.model.ExplicitArchitectureModel` built with the
paper's method: the selected group of functions (all of them by
default) is replaced by a single equivalent model whose evolution
instants are computed, not simulated; functions left outside the group
(if any) and the environment remain ordinary event-driven processes.

Both model classes expose the same observables (output instants,
relation event counts, kernel statistics, activity traces), so the
analysis and benchmark layers can treat them interchangeably.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..archmodel.application import RelationKind
from ..archmodel.architecture import ArchitectureModel
from ..channels.base import ChannelBase
from ..channels.fifo import FifoChannel
from ..channels.rendezvous import RendezvousChannel
from ..environment.sink import AlwaysReadySink, Sink
from ..environment.stimulus import Stimulus
from ..errors import ModelError
from ..kernel.scheduler import Simulator
from ..kernel.simtime import Time
from ..kernel.stats import KernelStats
from ..observation.activity import ActivityTrace
from ..explicit.arbiter import StaticOrderArbiter
from ..explicit.processes import SinkDriver, StimulusDriver, function_process
from .builder import build_equivalent_spec
from .compute import InstantComputer
from .equivalent import EquivalentProcessModel
from .observation import ResourceUsageReconstructor
from .spec import EquivalentModelSpec

__all__ = ["EquivalentArchitectureModel"]


class EquivalentArchitectureModel:
    """Executable performance model built with the dynamic computation method."""

    def __init__(
        self,
        architecture: ArchitectureModel,
        stimuli: Mapping[str, Stimulus],
        sinks: Optional[Mapping[str, Sink]] = None,
        abstract_functions: Optional[List[str]] = None,
        spec: Optional[EquivalentModelSpec] = None,
        record_relations: bool = False,
        observe_resources: bool = False,
        record_activity: bool = True,
        name: Optional[str] = None,
    ) -> None:
        architecture.validate()
        self.architecture = architecture
        if spec is None:
            spec = build_equivalent_spec(architecture, abstract_functions)
        self.spec = spec
        self.name = name or f"{architecture.name}-equivalent"
        self.simulator = Simulator(self.name)

        abstracted = set(spec.abstracted_functions)
        relations = architecture.relations()
        external_inputs = {r.name for r in architecture.external_inputs()}
        external_outputs = {r.name for r in architecture.external_outputs()}

        missing = external_inputs - set(stimuli)
        if missing:
            raise ModelError(f"missing stimuli for external inputs: {sorted(missing)}")
        sinks = dict(sinks or {})
        for relation in external_outputs:
            sinks.setdefault(relation, AlwaysReadySink())

        # Channels exist only for relations that still need the simulator:
        # anything not strictly internal to the abstracted group.
        internal_names = {
            spec_rel.name
            for spec_rel in relations.values()
            if (spec_rel.producer in abstracted if spec_rel.producer else False)
            and (spec_rel.consumer in abstracted if spec_rel.consumer else False)
        }
        self._channels: Dict[str, ChannelBase] = {}
        for spec_rel in relations.values():
            if spec_rel.name in internal_names:
                continue
            if spec_rel.kind is RelationKind.FIFO:
                channel: ChannelBase = FifoChannel(
                    self.simulator, spec_rel.name, spec_rel.capacity
                )
            else:
                channel = RendezvousChannel(self.simulator, spec_rel.name)
            self._channels[spec_rel.name] = channel

        # Explicit processes for the functions left outside the group.
        self.activity_trace: Optional[ActivityTrace] = ActivityTrace() if record_activity else None
        remaining = [
            function
            for function in architecture.application.functions
            if function.name not in abstracted
        ]
        self._arbiters: Dict[str, StaticOrderArbiter] = {}
        if remaining:
            schedules = architecture.resource_schedules()
            needed_resources = {architecture.resource_of(f.name).name for f in remaining}
            for resource in architecture.platform.resources:
                if resource.name in needed_resources:
                    self._arbiters[resource.name] = StaticOrderArbiter(
                        self.simulator, resource, schedules[resource.name]
                    )
            for function in remaining:
                resource = architecture.resource_of(function.name)
                self.simulator.spawn(
                    function_process,
                    self.simulator,
                    function,
                    self._channels,
                    self._arbiters[resource.name],
                    resource,
                    self.activity_trace,
                    name=f"func:{function.name}",
                )

        # Environment.
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

        # The equivalent model itself.
        self.computer = InstantComputer(
            spec,
            record_relations=record_relations,
            record_usage=observe_resources,
        )
        input_channels = {b.relation: self._channels[b.relation] for b in spec.boundary_inputs}
        output_channels = {b.relation: self._channels[b.relation] for b in spec.boundary_outputs}
        self.process_model = EquivalentProcessModel(
            self.simulator, spec, input_channels, output_channels, computer=self.computer
        )
        self._observe_resources = observe_resources
        self._final_stats: Optional[KernelStats] = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until=None) -> KernelStats:
        """Run the model (to completion by default) and return the kernel statistics."""
        self._final_stats = self.simulator.run(until)
        return self._final_stats

    @property
    def kernel_stats(self) -> KernelStats:
        return self._final_stats if self._final_stats is not None else self.simulator.stats()

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    @property
    def tdg_node_count(self) -> int:
        """Number of nodes of the temporal dependency graph in use."""
        return self.spec.graph.node_count

    def channel(self, relation: str) -> ChannelBase:
        try:
            return self._channels[relation]
        except KeyError:
            raise ModelError(
                f"relation {relation!r} has no channel in the equivalent model "
                "(it is internal to the abstracted group)"
            ) from None

    @property
    def channels(self) -> Dict[str, ChannelBase]:
        return dict(self._channels)

    def exchange_instants(self, relation: str) -> Tuple[Time, ...]:
        """Simulated exchange instants of a relation that still has a channel."""
        return self.channel(relation).exchange_instants

    def output_instants(self, relation: str) -> Tuple[Time, ...]:
        """Output evolution instants ``y(k)`` observed on an external output relation."""
        return self.exchange_instants(relation)

    def computed_relation_instants(self, relation: str) -> List[Optional[Time]]:
        """Instants computed (not simulated) for a relation covered by the group."""
        return self.computer.relation_instants(relation)

    def offer_instants(self, relation: str) -> List[Time]:
        """The environment's ``u(k)`` instants on an external input relation."""
        return self._stimulus_driver(relation).offer_instants

    def offer_instants_ps(self, relation: str) -> List[int]:
        """:meth:`offer_instants` in integer picoseconds."""
        return self._stimulus_driver(relation).offer_instants_ps

    def _stimulus_driver(self, relation: str) -> StimulusDriver:
        try:
            return self._stimulus_drivers[relation]
        except KeyError:
            raise ModelError(f"relation {relation!r} has no stimulus driver") from None

    def relation_event_count(self) -> int:
        """Total number of data exchanges that still went through the simulator."""
        return sum(channel.exchange_count for channel in self._channels.values())

    def iteration_count(self, relation: Optional[str] = None) -> int:
        """Number of completed iterations, measured on an external output relation."""
        outputs = self.architecture.external_outputs()
        if relation is None:
            if not outputs:
                raise ModelError("the architecture has no external output relation")
            relation = outputs[0].name
        return self.channel(relation).exchange_count

    def reconstructed_usage(self, iterations: Optional[int] = None) -> ActivityTrace:
        """Activity trace of the abstracted functions, rebuilt on observation time.

        Requires ``observe_resources=True``.  Activities of the functions left
        outside the group (recorded during simulation) are merged in so the
        result covers the whole architecture, like the explicit model's trace.
        """
        if not self._observe_resources:
            raise ModelError("the model was created without observe_resources=True")
        reconstructor = ResourceUsageReconstructor(self.spec, self.computer)
        trace = reconstructor.build_trace(iterations)
        if self.activity_trace is not None:
            for record in self.activity_trace:
                trace.add(record)
        return trace

    def __repr__(self) -> str:
        return (
            f"EquivalentArchitectureModel({self.architecture.name!r}, "
            f"nodes={self.tdg_node_count})"
        )
