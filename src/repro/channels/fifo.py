"""FIFO channel with optional bounded capacity.

The paper notes that "in the situation where communications among
functions of the application would be performed through FIFO channels
additional evolution instants would be necessary to correctly describe
the architecture model".  This module provides that alternative
relation type for the explicit (event-driven) model; the corresponding
additional evolution instants are generated by
:mod:`repro.core.builder` when a relation is declared as a FIFO.

Timing semantics (all instants recorded per relation):

* A *write* of the ``(k+1)``-th item completes at

      xW(k) = max(instant the producer reaches the write,
                  xR(k - capacity))            (bounded FIFO back-pressure)

  i.e. immediately when the FIFO is not full, otherwise when the reader
  frees a slot.  For an unbounded FIFO the second term disappears.

* A *read* of the ``(k+1)``-th item completes at

      xR(k) = max(instant the consumer reaches the read, xW(k))

The write-completion instants are reported as the channel's
``exchange_instants`` (the instant data enters the relation); the
read-completion instants are additionally available as
``read_instants``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Generator, List, Optional, Tuple

from ..errors import SimulationError
from ..kernel.simtime import Time
from .base import ChannelBase

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.scheduler import Simulator

__all__ = ["FifoChannel"]


class FifoChannel(ChannelBase):
    """Point-to-point FIFO channel, bounded or unbounded."""

    def __init__(self, simulator: "Simulator", name: str, capacity: Optional[int] = None) -> None:
        super().__init__(simulator, name)
        if capacity is not None and capacity < 1:
            raise SimulationError(f"FIFO {name!r} capacity must be >= 1 or None (unbounded)")
        self.capacity = capacity
        self._items: Deque[object] = deque()
        self._space_event = simulator.create_event(f"{name}.space")
        self._data_event = simulator.create_event(f"{name}.data")
        self._read_instants: List[int] = []

    # -- protocol -------------------------------------------------------------
    def write(self, token: object) -> Generator:
        """Append ``token``, blocking while the FIFO is full (use ``yield from``)."""
        while self.capacity is not None and len(self._items) >= self.capacity:
            yield self._space_event
        self._items.append(token)
        self._record_exchange(token)
        self._data_event.notify_immediate()

    def read(self) -> Generator:
        """Remove and return the oldest token, blocking while empty (use ``yield from``)."""
        while not self._items:
            yield self._data_event
        token = self._items.popleft()
        self._read_instants.append(self._simulator.now_ps)
        self._space_event.notify_immediate()
        return token

    # -- introspection -----------------------------------------------------------
    @property
    def read_instants(self) -> Tuple[Time, ...]:
        """Instants at which tokens were removed from the FIFO, in order."""
        return tuple(map(Time, self._read_instants))

    @property
    def occupancy(self) -> int:
        """Number of tokens currently stored."""
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True when a bounded FIFO has no free slot."""
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items
