"""The discrete-event simulation kernel.

:class:`Simulator` plays the role of the SystemC simulation kernel in
the paper: it keeps the time-ordered queue of event notifications,
advances simulation time, and resumes the processes that wait on those
events.  Every resumption is a context switch and every scheduled
notification is a simulation event -- the two quantities the dynamic
computation method aims to reduce -- so both are counted explicitly
(see :class:`~repro.kernel.stats.KernelStats`).

The kernel follows the classic evaluate/update structure:

1. *Evaluation phase*: every ready process runs until its next wait
   request.
2. *Delta notification phase*: immediate notifications issued during
   the evaluation phase fire, possibly making further processes ready;
   if so, a new delta cycle starts at the same simulation time.
3. *Time advance*: when no process is ready and no delta notification
   is pending, the kernel pops the earliest timed entries from the
   queue, advances simulation time and fires them.

Example
-------
>>> from repro.kernel import Simulator, microseconds
>>> sim = Simulator()
>>> done = sim.create_event("done")
>>> def worker():
...     yield microseconds(10)
...     done.notify()
>>> def observer(log):
...     yield done
...     log.append(sim.now.microseconds)
>>> log = []
>>> _ = sim.spawn(worker, name="worker")
>>> _ = sim.spawn(observer, log, name="observer")
>>> _ = sim.run()
>>> log
[10.0]
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Generator, List, Optional, Tuple, Union

from ..errors import SimulationError
from .event import Event
from .process import _FAULTED, _TERMINATED, ProcessState, SimProcess
from .simtime import Duration, Time

__all__ = ["Simulator"]

# Heap entries: (time_ps, sequence, kind, payload) where kind is one of the
# module-level constants below.  The sequence number keeps ordering stable for
# entries scheduled at the same instant.
_KIND_NOTIFY = 0
_KIND_RESUME = 1


class Simulator:
    """Event-driven simulation kernel with explicit event/context-switch accounting."""

    def __init__(self, name: str = "sim", max_delta_cycles_per_timestep: int = 100_000) -> None:
        self.name = name
        self._now_ps = 0
        self._sequence = itertools.count()
        self._heap: List[Tuple[int, int, int, object]] = []
        self._ready: Deque[SimProcess] = deque()
        self._pending_delta_notifications: List[Event] = []
        self._pending_delta_resumes: List[SimProcess] = []
        self._processes: List[SimProcess] = []
        self._max_delta_cycles_per_timestep = max_delta_cycles_per_timestep

        # statistics counters
        self._timed_notifications = 0
        self._delta_notifications = 0
        self._process_activations = 0
        self._delta_cycles = 0
        self._time_advances = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> Time:
        """Current simulation time."""
        return Time(self._now_ps)

    @property
    def now_ps(self) -> int:
        """Current simulation time in integer picoseconds (no allocation)."""
        return self._now_ps

    def create_event(self, name: str = "") -> Event:
        """Create a new :class:`~repro.kernel.event.Event` bound to this simulator."""
        return Event(self, name)

    def spawn(
        self,
        target: Union[Generator, Callable[..., Generator]],
        *args,
        name: Optional[str] = None,
        **kwargs,
    ) -> SimProcess:
        """Register a new simulation process.

        ``target`` may be a generator function (called with ``*args`` /
        ``**kwargs``) or an already-instantiated generator.  The process
        becomes ready and runs in the next delta cycle of the current
        simulation time (or at time zero if the simulation has not
        started yet).
        """
        if callable(target) and not hasattr(target, "send"):
            generator = target(*args, **kwargs)
        else:
            if args or kwargs:
                raise SimulationError("arguments are only accepted when spawning from a callable")
            generator = target
        process_name = (
            name or getattr(target, "__name__", None) or f"process_{len(self._processes)}"
        )
        process = SimProcess(self, process_name, generator)
        self._processes.append(process)
        process._state = ProcessState.READY
        self._pending_delta_resumes.append(process)
        return process

    @property
    def processes(self) -> Tuple[SimProcess, ...]:
        """All processes ever spawned on this simulator."""
        return tuple(self._processes)

    def stats(self):
        """Return an immutable snapshot of the kernel counters."""
        from .stats import KernelStats

        return KernelStats(
            timed_notifications=self._timed_notifications,
            delta_notifications=self._delta_notifications,
            process_activations=self._process_activations,
            delta_cycles=self._delta_cycles,
            time_advances=self._time_advances,
        )

    def run(self, until: Optional[Union[Time, Duration]] = None):
        """Run the simulation.

        Parameters
        ----------
        until:
            Optional horizon.  A :class:`Time` is an absolute instant, a
            :class:`Duration` is relative to the current simulation time.
            Without a horizon the simulation runs until no event remains
            (all processes blocked or terminated).

        Returns
        -------
        KernelStats
            Snapshot of the kernel counters after the run.
        """
        horizon_ps = self._resolve_horizon(until)
        while True:
            self._execute_delta_cycles()
            if not self._heap:
                break
            next_time_ps = self._heap[0][0]
            if horizon_ps is not None and next_time_ps > horizon_ps:
                self._now_ps = horizon_ps
                break
            self._advance_to(next_time_ps)
        if horizon_ps is not None and self._now_ps < horizon_ps and not self._heap:
            # No more activity before the horizon: simulated time still reaches it.
            self._now_ps = horizon_ps
        return self.stats()

    # ------------------------------------------------------------------
    # internal API used by Event and SimProcess
    # ------------------------------------------------------------------
    # Delays are integer picoseconds, checked non-negative by the caller.
    def _schedule_notification(self, event: Event, delay_ps: int) -> None:
        if not delay_ps:
            self._delta_notifications += 1
            self._pending_delta_notifications.append(event)
            return
        self._timed_notifications += 1
        heappush(self._heap, (self._now_ps + delay_ps, next(self._sequence), _KIND_NOTIFY, event))

    def _schedule_timed_resume(self, process: SimProcess, delay_ps: int) -> None:
        self._timed_notifications += 1
        heappush(
            self._heap, (self._now_ps + delay_ps, next(self._sequence), _KIND_RESUME, process)
        )

    # ------------------------------------------------------------------
    # run-loop helpers
    # ------------------------------------------------------------------
    def _resolve_horizon(self, until: Optional[Union[Time, Duration]]) -> Optional[int]:
        if until is None:
            return None
        if isinstance(until, Duration):
            return self._now_ps + until.picoseconds
        if isinstance(until, Time):
            if until.picoseconds < self._now_ps:
                raise SimulationError("cannot run until a time in the past")
            return until.picoseconds
        raise TypeError("until must be a Time, a Duration or None")

    def _execute_delta_cycles(self) -> None:
        """Run evaluation phases until no delta activity remains at the current time."""
        delta_count = 0
        limit = self._max_delta_cycles_per_timestep
        while self._ready or self._pending_delta_notifications or self._pending_delta_resumes:
            delta_count += 1
            if delta_count > limit:
                raise SimulationError(
                    f"more than {limit} delta cycles at "
                    f"time {self.now}; the model probably contains a zero-delay loop"
                )
            # promote delta resumes and notifications scheduled by the previous phase
            if self._pending_delta_resumes:
                resumes, self._pending_delta_resumes = self._pending_delta_resumes, []
                self._ready.extend(resumes)
            if self._pending_delta_notifications:
                notifications, self._pending_delta_notifications = (
                    self._pending_delta_notifications,
                    [],
                )
                for event in notifications:
                    event._fire()
            if not self._ready:
                continue
            self._delta_cycles += 1
            current, self._ready = self._ready, deque()
            pending = iter(current)
            try:
                for process in pending:
                    state = process._state
                    if state is _TERMINATED or state is _FAULTED:
                        continue
                    self._process_activations += 1
                    process._run()
            except BaseException:
                # The processes queued behind the one that raised have not
                # run: they go back to the front of the ready queue, ahead of
                # what this cycle woke, so a later run() resumes them.
                self._ready.extendleft(reversed(list(pending)))
                raise

    def _advance_to(self, time_ps: int) -> None:
        """Advance simulation time and fire every entry scheduled at ``time_ps``."""
        if time_ps < self._now_ps:
            raise SimulationError("event queue produced a time in the past")
        self._now_ps = time_ps
        self._time_advances += 1
        heap = self._heap
        while heap and heap[0][0] == time_ps:
            _, _, kind, payload = heappop(heap)
            if kind == _KIND_NOTIFY:
                payload._fire()
            else:
                payload._timeout_expired()

    def __repr__(self) -> str:
        return f"Simulator({self.name!r}, now={self.now}, processes={len(self._processes)})"
