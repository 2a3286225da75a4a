"""Simulation processes.

A simulation process is an ordinary Python *generator function*: the
body runs until it needs to let simulated time pass (or wait for a
synchronisation), at which point it ``yield``s a wait request to the
kernel.  This mirrors the coroutine behaviour of SystemC ``SC_THREAD``
processes, where the equivalent operation is the ``wait()`` statement
and each resumption costs a context switch in the simulation kernel.

Supported wait requests (the value yielded by the generator):

``Duration``
    Resume the process after the given amount of simulated time.

``Event``
    Resume the process when the event is notified.  The event instance
    is sent back into the generator, which is convenient when waiting
    on several alternatives.

``tuple``/``list``/``set`` of ``Event``
    Resume when *any* of the events is notified (the firing event is
    sent back into the generator).

``None``
    Resume in the next delta cycle (yield the processor without letting
    simulated time advance).

Example
-------
>>> def producer(sim, ev):
...     yield microseconds(5)      # consume 5 us of simulated time
...     ev.notify()                # wake up whoever waits on ev
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Iterable, Union

from ..errors import SimulationError
from .event import Event
from .simtime import Duration

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator

__all__ = ["ProcessState", "SimProcess", "WaitRequest"]

WaitRequest = Union[Duration, Event, Iterable[Event], None]


class ProcessState(enum.Enum):
    """Lifecycle states of a :class:`SimProcess`."""

    CREATED = "created"
    READY = "ready"
    WAITING = "waiting"
    TERMINATED = "terminated"
    FAULTED = "faulted"


_READY = ProcessState.READY
_WAITING = ProcessState.WAITING
_TERMINATED = ProcessState.TERMINATED
_FAULTED = ProcessState.FAULTED


class SimProcess:
    """A kernel-scheduled coroutine wrapping a generator.

    Instances are created by :meth:`Simulator.spawn`; user code normally
    never instantiates this class directly.
    """

    __slots__ = (
        "simulator",
        "name",
        "_generator",
        "_state",
        "_pending_events",
        "_send_value",
        "activation_count",
    )

    def __init__(self, simulator: "Simulator", name: str, generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process {name!r} must be built from a generator function "
                f"(got {type(generator).__name__}); did you forget a 'yield'?"
            )
        self.simulator = simulator
        self.name = name
        self._generator = generator
        self._state = ProcessState.CREATED
        self._pending_events: tuple = ()
        self._send_value = None
        self.activation_count = 0

    # -- introspection ----------------------------------------------------
    @property
    def state(self) -> ProcessState:
        """Current lifecycle state."""
        return self._state

    @property
    def terminated(self) -> bool:
        """True once the process body returned or raised."""
        return self._state in (ProcessState.TERMINATED, ProcessState.FAULTED)

    # -- kernel interface ----------------------------------------------------
    # The ready queue and the delta-resume list are the simulator's; both are
    # looked up on each call because the scheduler swaps them every cycle.
    def _event_fired(self, event: Event) -> None:
        """Called by an event when it fires while this process waits on it."""
        for other in self._pending_events:
            if other is not event:
                other._remove_waiter(self)
        self._pending_events = ()
        self._send_value = event
        self._state = _READY
        self.simulator._ready.append(self)

    def _timeout_expired(self) -> None:
        """Called by the scheduler when a timed wait elapses."""
        self._send_value = None
        self._state = _READY
        self.simulator._ready.append(self)

    def _run(self) -> None:
        """Advance the generator until its next wait request (or termination)."""
        self.activation_count += 1
        send_value, self._send_value = self._send_value, None
        try:
            request = self._generator.send(send_value)
        except StopIteration:
            self._state = _TERMINATED
            return
        except Exception:
            self._state = _FAULTED
            raise
        self._handle_request(request)

    def _handle_request(self, request: WaitRequest) -> None:
        # Exact-type tests first: models yield plain Durations and Events, so
        # the isinstance ladder only runs for None, subclasses, collections
        # and invalid requests.
        kind = type(request)
        if kind is Event:
            self._wait_on_events((request,))
            return
        if kind is Duration or isinstance(request, Duration):
            delay_ps = request._ps
            if delay_ps < 0:
                raise SimulationError(f"process {self.name!r} waited for a negative duration")
            self._state = _WAITING
            self.simulator._schedule_timed_resume(self, delay_ps)
            return
        if request is None:
            self._state = _READY
            self.simulator._pending_delta_resumes.append(self)
            return
        if isinstance(request, Event):
            self._wait_on_events((request,))
            return
        if isinstance(request, (tuple, list, set, frozenset)):
            events = tuple(request)
            if not events or not all(isinstance(item, Event) for item in events):
                raise SimulationError(
                    f"process {self.name!r} yielded an invalid wait request: "
                    "collections must contain only Event instances and be non-empty"
                )
            self._wait_on_events(events)
            return
        raise SimulationError(
            f"process {self.name!r} yielded an unsupported wait request "
            f"of type {type(request).__name__}"
        )

    def _wait_on_events(self, events: tuple) -> None:
        self._state = _WAITING
        self._pending_events = events
        for event in events:
            event._add_waiter(self)

    def __repr__(self) -> str:
        return f"SimProcess({self.name!r}, state={self._state.value})"
