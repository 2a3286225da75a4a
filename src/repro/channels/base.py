"""Common machinery for communication channels.

Channels model the *relations* of the paper's application model (M1,
M2, ... in Fig. 1).  They are the places where simulation events occur
when data is exchanged, so every channel keeps:

* ``exchange_instants`` -- the ordered list of instants at which a data
  item was handed from the producer to the consumer.  For a rendezvous
  relation this is exactly the ``xM(k)`` sequence of the paper, the
  quantity whose equality between the explicit model and the equivalent
  model constitutes the accuracy claim.
* ``exchange_count`` -- the number of exchanges, used to measure the
  event ratio of Table I.

Instants are recorded as integer picoseconds read from
:attr:`Simulator.now_ps <repro.kernel.scheduler.Simulator.now_ps>`, so an
exchange allocates no ``Time``; the introspection properties build
:class:`~repro.kernel.simtime.Time` values when they are read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..kernel.simtime import Time

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.scheduler import Simulator

__all__ = ["ChannelBase"]


class ChannelBase:
    """Base class of every channel, responsible for exchange-instant bookkeeping."""

    def __init__(self, simulator: "Simulator", name: str) -> None:
        self._simulator = simulator
        self.name = name
        self._exchange_instants: List[int] = []
        self._exchanged_tokens: List[object] = []

    # -- bookkeeping -----------------------------------------------------
    def _record_exchange(self, token: object) -> None:
        self._exchange_instants.append(self._simulator.now_ps)
        self._exchanged_tokens.append(token)

    # -- introspection ----------------------------------------------------
    @property
    def simulator(self) -> "Simulator":
        return self._simulator

    @property
    def exchange_instants(self) -> Tuple[Time, ...]:
        """Instants at which data was exchanged over the relation, in order."""
        return tuple(map(Time, self._exchange_instants))

    @property
    def exchange_instants_ps(self) -> Tuple[int, ...]:
        """:attr:`exchange_instants` in integer picoseconds."""
        return tuple(self._exchange_instants)

    @property
    def exchanged_tokens(self) -> Tuple[object, ...]:
        """The tokens exchanged over the relation, in order."""
        return tuple(self._exchanged_tokens)

    @property
    def exchange_count(self) -> int:
        """Number of data exchanges that occurred on the relation."""
        return len(self._exchange_instants)

    def exchange_instant(self, k: int) -> Optional[Time]:
        """Return the instant of the ``(k+1)``-th exchange, or ``None`` if it has not happened."""
        if 0 <= k < len(self._exchange_instants):
            return Time(self._exchange_instants[k])
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, exchanges={self.exchange_count})"
