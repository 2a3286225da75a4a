"""Simulation events.

An :class:`Event` is the kernel-level synchronisation primitive, closely
modelled on the SystemC ``sc_event``:

* A process *waits* on an event by yielding it from its generator body.
* Any code holding a reference may *notify* the event, either after a
  duration (a "timed notification", what the paper counts as a
  simulation event) or immediately in the next delta cycle.

Events are always attached to a :class:`~repro.kernel.scheduler.Simulator`;
they are created either directly (``Event(sim, "name")``) or through
:meth:`Simulator.create_event`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from ..errors import SimulationError
from .simtime import Duration, ZERO_DURATION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .process import SimProcess
    from .scheduler import Simulator

__all__ = ["Event"]


class Event:
    """A notifiable synchronisation point processes can wait on."""

    __slots__ = ("_simulator", "name", "_waiting", "_notify_count")

    def __init__(self, simulator: "Simulator", name: str = "") -> None:
        self._simulator = simulator
        self.name = name or f"event_{id(self):x}"
        self._waiting: Set["SimProcess"] = set()
        self._notify_count = 0

    # -- notification --------------------------------------------------------
    def notify(self, delay: Duration = ZERO_DURATION) -> None:
        """Notify the event after ``delay``.

        A zero delay produces a delta notification: waiting processes are
        resumed in the next delta cycle at the current simulation time.
        A positive delay schedules a timed notification, which is what the
        paper counts as a simulation event.
        """
        if not isinstance(delay, Duration):
            raise TypeError("notify() expects a Duration delay")
        if delay.is_negative():
            raise SimulationError(f"cannot notify event {self.name!r} in the past (delay {delay})")
        self._simulator._schedule_notification(self, delay.picoseconds)

    def notify_immediate(self) -> None:
        """Notify the event in the next delta cycle (equivalent to ``notify(ZERO)``)."""
        simulator = self._simulator
        simulator._delta_notifications += 1
        simulator._pending_delta_notifications.append(self)

    # -- kernel interface ----------------------------------------------------
    def _add_waiter(self, process: "SimProcess") -> None:
        self._waiting.add(process)

    def _remove_waiter(self, process: "SimProcess") -> None:
        self._waiting.discard(process)

    def _fire(self) -> None:
        """Resume every waiting process.  Called by the scheduler only."""
        self._notify_count += 1
        waiting = self._waiting
        self._waiting = set()
        for process in waiting:
            process._event_fired(self)

    # -- introspection ----------------------------------------------------------
    @property
    def simulator(self) -> "Simulator":
        """The simulator the event belongs to."""
        return self._simulator

    @property
    def waiting_processes(self) -> int:
        """Number of processes currently blocked on the event."""
        return len(self._waiting)

    @property
    def notify_count(self) -> int:
        """Number of times the event actually fired."""
        return self._notify_count

    def __repr__(self) -> str:
        return f"Event({self.name!r})"
