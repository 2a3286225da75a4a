"""Kernel processes of the explicit (fully event-driven) model.

One process per application function, one per environment stimulus and
one per environment sink.  These processes realise, event by event, the
timing semantics documented in :mod:`repro.archmodel`; every relation
exchange and every execution start/end goes through the simulation
kernel -- this is the reference model the dynamic computation method is
compared against, both for accuracy and for speed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from ..archmodel.function import AppFunction
from ..archmodel.platform import ProcessingResource
from ..archmodel.token import DataToken
from ..archmodel.workload import bind_workload
from ..channels.base import ChannelBase
from ..environment.sink import Sink
from ..environment.stimulus import Stimulus
from ..errors import SimulationError
from ..kernel.simtime import Duration, Time
from ..observation.activity import ActivityTrace
from .arbiter import StaticOrderArbiter

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.scheduler import Simulator

__all__ = ["function_process", "StimulusDriver", "SinkDriver"]


def function_process(
    simulator: "Simulator",
    function: AppFunction,
    channels: Dict[str, ChannelBase],
    arbiter: StaticOrderArbiter,
    resource: ProcessingResource,
    trace: Optional[ActivityTrace] = None,
) -> Generator:
    """Cyclic interpretation of one application function's behaviour."""
    # Resource-dependent workloads (heterogeneous platforms) are bound to the
    # serving resource once, before the first iteration.
    workloads = {
        step_index: bind_workload(step.workload, resource)
        for step_index, step in enumerate(function.steps)
        if step.kind == "execute"
    }
    iteration = 0
    token: Optional[DataToken] = None
    while True:
        for step_index, step in enumerate(function.steps):
            kind = step.kind
            if kind == "read":
                token = yield from channels[step.relation].read()
            elif kind == "write":
                yield from channels[step.relation].write(token)
            elif kind == "execute":
                slot = yield from arbiter.acquire(function.name, step_index)
                workload = workloads[step_index]
                duration_ps = workload.duration_ps(iteration, token)
                if trace is not None:
                    start = simulator.now
                    trace.record(
                        resource=resource.name,
                        function=function.name,
                        label=step.label,
                        iteration=iteration,
                        start=start,
                        end=start + Duration(duration_ps),
                        operations=workload.operations(iteration, token),
                    )
                if duration_ps:
                    yield Duration(duration_ps)
                arbiter.release(slot)
            elif kind == "delay":
                if step.duration:
                    yield step.duration
            else:  # pragma: no cover - new primitives must be handled explicitly
                raise SimulationError(f"unsupported behaviour step kind {kind!r}")
        iteration += 1


class StimulusDriver:
    """Environment process offering the items of a stimulus over one relation."""

    def __init__(self, simulator: "Simulator", channel: ChannelBase, stimulus: Stimulus) -> None:
        self.simulator = simulator
        self.channel = channel
        self.stimulus = stimulus
        self._offer_instants: List[Time] = []

    @property
    def offer_instants(self) -> List[Time]:
        """The ``u(k)`` instants: when the environment reached each write."""
        return list(self._offer_instants)

    def process(self) -> Generator:
        """The kernel process body (spawn with ``Simulator.spawn``)."""
        for index in range(len(self.stimulus)):
            scheduled = self.stimulus.offer_time(index)
            now = self.simulator.now
            if scheduled > now:
                yield scheduled - now
            self._offer_instants.append(self.simulator.now)
            yield from self.channel.write(self.stimulus.token(index))


class SinkDriver:
    """Environment process draining one external output relation."""

    def __init__(self, simulator: "Simulator", channel: ChannelBase, sink: Sink) -> None:
        self.simulator = simulator
        self.channel = channel
        self.sink = sink
        self._accepted_instants: List[Time] = []
        self._tokens: List[object] = []

    @property
    def accepted_instants(self) -> List[Time]:
        """Instants at which the environment actually received each output item."""
        return list(self._accepted_instants)

    @property
    def tokens(self) -> List[object]:
        return list(self._tokens)

    def process(self) -> Generator:
        """The kernel process body (spawn with ``Simulator.spawn``)."""
        index = 0
        while True:
            delay = self.sink.delay_before_read(index)
            if delay:
                yield delay
            token = yield from self.channel.read()
            self._accepted_instants.append(self.simulator.now)
            self._tokens.append(token)
            index += 1
