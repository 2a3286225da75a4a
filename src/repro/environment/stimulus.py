"""Stimulus generators (the environment's producer side).

A stimulus drives an external input relation of an architecture model:
it decides *when* the environment tries to offer the ``(k+1)``-th data
item (the paper's ``u(k)`` instants) and *which attributes* that item
carries (data size, LTE symbol parameters, ...).

The same stimulus object is given to the explicit model and to the
equivalent model so both observe exactly the same input sequence; the
generators below are therefore deterministic (the random one is seeded
and memoised per index).
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import ModelError
from ..kernel.simtime import Duration, Time, ZERO_TIME
from ..archmodel.token import DataToken

__all__ = [
    "Stimulus",
    "PeriodicStimulus",
    "TraceStimulus",
    "RandomSizeStimulus",
]


class Stimulus(abc.ABC):
    """Produces the offer instants and tokens of one external input relation."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total number of items the environment will offer."""

    @abc.abstractmethod
    def offer_time(self, k: int) -> Time:
        """Earliest instant at which the environment tries to offer item ``k``.

        With rendezvous back-pressure, the *actual* offer instant may be later
        (the previous exchange may not have completed yet); the environment
        process handles that.
        """

    def offer_time_ps(self, k: int) -> int:
        """:meth:`offer_time` in integer picoseconds (what the stimulus driver reads)."""
        return self.offer_time(k).picoseconds

    @abc.abstractmethod
    def token(self, k: int) -> DataToken:
        """The token offered as item ``k``."""

    def offer_period_ps(self) -> Optional[int]:
        """Constant offer period in picoseconds, or ``None`` when aperiodic.

        When a stimulus returns a period ``T`` it promises ``offer_time(k) ==
        offer_time(0) + k * T`` for every ``k``; the steady-state evaluator
        relies on that promise to extrapolate the input schedule without
        enumerating it.  The default is conservative (no promise).
        """
        return None

    def items(self) -> Iterator[Tuple[Time, DataToken]]:
        """Iterate over ``(offer time, token)`` pairs."""
        for k in range(len(self)):
            yield self.offer_time(k), self.token(k)


class PeriodicStimulus(Stimulus):
    """Offer ``count`` items with a fixed period, starting at ``start``.

    ``attributes_fn(k)`` (optional) returns the attribute mapping of item
    ``k``; by default tokens carry no attributes.
    """

    def __init__(
        self,
        period: Duration,
        count: int,
        start: Time = ZERO_TIME,
        attributes_fn: Optional[Callable[[int], Mapping[str, Any]]] = None,
    ) -> None:
        if count < 1:
            raise ModelError("a stimulus must offer at least one item")
        if period.is_negative():
            raise ModelError("the stimulus period cannot be negative")
        self.period = period
        self.count = count
        self.start = start
        self._attributes_fn = attributes_fn

    def __len__(self) -> int:
        return self.count

    def offer_time(self, k: int) -> Time:
        return Time(self.offer_time_ps(k))

    def offer_time_ps(self, k: int) -> int:
        self._check_index(k)
        return self.start.picoseconds + self.period.picoseconds * k

    def token(self, k: int) -> DataToken:
        self._check_index(k)
        attributes = self._attributes_fn(k) if self._attributes_fn else {}
        return DataToken(k, attributes)

    def offer_period_ps(self) -> Optional[int]:
        return self.period.picoseconds

    def _check_index(self, k: int) -> None:
        if not 0 <= k < self.count:
            raise ModelError(f"stimulus index {k} out of range [0, {self.count})")


class TraceStimulus(Stimulus):
    """Offer items at explicitly listed instants with explicit attributes."""

    def __init__(self, entries: Sequence[Tuple[Time, Mapping[str, Any]]]) -> None:
        if not entries:
            raise ModelError("a trace stimulus needs at least one entry")
        previous: Optional[Time] = None
        for instant, _ in entries:
            if previous is not None and instant < previous:
                raise ModelError("trace stimulus instants must be non-decreasing")
            previous = instant
        self._entries = list(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def offer_time(self, k: int) -> Time:
        return self._entries[k][0]

    def token(self, k: int) -> DataToken:
        return DataToken(k, self._entries[k][1])

    @classmethod
    def from_intervals(
        cls,
        intervals: Sequence[Duration],
        attributes: Optional[Sequence[Mapping[str, Any]]] = None,
        start: Time = ZERO_TIME,
    ) -> "TraceStimulus":
        """Build a trace from inter-arrival intervals."""
        entries: List[Tuple[Time, Mapping[str, Any]]] = []
        current = start
        for index, interval in enumerate(intervals):
            current = current + interval
            attrs = attributes[index] if attributes else {}
            entries.append((current, attrs))
        return cls(entries)


class RandomSizeStimulus(Stimulus):
    """Periodic stimulus whose tokens carry a random ``size`` attribute.

    This is the reproduction's stand-in for the paper's "20000 data produced
    through relation M1 with varying data size associated".  Sizes are drawn
    uniformly from ``[min_size, max_size]`` with a private seeded RNG and are
    the same for any consumer of the stimulus instance.
    """

    def __init__(
        self,
        period: Duration,
        count: int,
        min_size: int = 1,
        max_size: int = 64,
        seed: int = 0,
        start: Time = ZERO_TIME,
    ) -> None:
        if count < 1:
            raise ModelError("a stimulus must offer at least one item")
        if min_size < 0 or max_size < min_size:
            raise ModelError("require 0 <= min_size <= max_size")
        self.period = period
        self.count = count
        self.start = start
        self.min_size = min_size
        self.max_size = max_size
        rng = random.Random(seed)
        self._sizes = [rng.randint(min_size, max_size) for _ in range(count)]

    def __len__(self) -> int:
        return self.count

    def offer_time(self, k: int) -> Time:
        return Time(self.offer_time_ps(k))

    def offer_time_ps(self, k: int) -> int:
        if not 0 <= k < self.count:
            raise ModelError(f"stimulus index {k} out of range [0, {self.count})")
        return self.start.picoseconds + self.period.picoseconds * k

    def token(self, k: int) -> DataToken:
        if not 0 <= k < self.count:
            raise ModelError(f"stimulus index {k} out of range [0, {self.count})")
        return DataToken(k, {"size": self._sizes[k]})

    def offer_period_ps(self) -> Optional[int]:
        return self.period.picoseconds

    @property
    def sizes(self) -> Tuple[int, ...]:
        """The pre-drawn size sequence (useful for tests)."""
        return tuple(self._sizes)
