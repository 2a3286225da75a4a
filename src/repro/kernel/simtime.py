"""Exact simulation time.

The whole library measures time in **integer picoseconds**.  Using an
integer base unit has two important consequences:

* (max, +) computations performed by the dynamic computation method and
  the event instants produced by the discrete-event kernel can be
  compared with *exact equality*.  The paper's central accuracy claim
  ("evolution instants of both models ... remain the same") is verified
  in the test-suite with ``==``, not with a floating point tolerance.
* Time values are totally ordered and hashable, so they can key event
  queues and dictionaries without rounding surprises.

Two public classes are provided:

* :class:`Duration` -- a signed span of time (the weight of a temporal
  dependency arc, an execution time, a quantum, ...).
* :class:`Time` -- a point on the simulation (or observation) time axis.

``Time - Time -> Duration``, ``Time + Duration -> Time`` and
``Duration + Duration -> Duration`` behave as expected.  Convenience
constructors (:func:`picoseconds`, :func:`nanoseconds`,
:func:`microseconds`, :func:`milliseconds`, :func:`seconds`) accept
floats and round to the nearest picosecond.

Example
-------
>>> from repro.kernel.simtime import microseconds, Time
>>> t = Time.zero() + microseconds(71.42)
>>> t.picoseconds
71420000
>>> str(t)
'71.42us'
"""

from __future__ import annotations

from typing import Union

__all__ = [
    "Duration",
    "Time",
    "ZERO_DURATION",
    "ZERO_TIME",
    "PS_PER_SECOND",
    "picoseconds",
    "nanoseconds",
    "microseconds",
    "milliseconds",
    "seconds",
]

_PS_PER_NS = 1_000
_PS_PER_US = 1_000_000
_PS_PER_MS = 1_000_000_000
_PS_PER_S = 1_000_000_000_000

#: Picoseconds per second, the scale :meth:`Duration.from_seconds` rounds at.
PS_PER_SECOND = _PS_PER_S

Number = Union[int, float]


def _to_ps(value: Number, scale: int) -> int:
    """Convert ``value`` expressed in a unit worth ``scale`` picoseconds to int ps."""
    if isinstance(value, bool):  # bool is an int subclass; reject it explicitly
        raise TypeError("time values must be int or float, not bool")
    if isinstance(value, int):
        return value * scale
    if isinstance(value, float):
        return round(value * scale)
    raise TypeError(f"time values must be int or float, got {type(value).__name__}")


class Duration:
    """A signed time span with picosecond resolution.

    Durations are immutable, hashable and totally ordered.  They support
    addition and subtraction with other durations, multiplication by an
    integer (repeating an execution ``n`` times), and integer division
    (splitting a span into equal slots).
    """

    __slots__ = ("_ps",)

    def __init__(self, ps: int = 0) -> None:
        if not isinstance(ps, int) or isinstance(ps, bool):
            raise TypeError("Duration() expects an integer number of picoseconds")
        self._ps = ps

    # -- constructors -------------------------------------------------
    @classmethod
    def from_picoseconds(cls, value: Number) -> "Duration":
        return cls(_to_ps(value, 1))

    @classmethod
    def from_nanoseconds(cls, value: Number) -> "Duration":
        return cls(_to_ps(value, _PS_PER_NS))

    @classmethod
    def from_microseconds(cls, value: Number) -> "Duration":
        return cls(_to_ps(value, _PS_PER_US))

    @classmethod
    def from_milliseconds(cls, value: Number) -> "Duration":
        return cls(_to_ps(value, _PS_PER_MS))

    @classmethod
    def from_seconds(cls, value: Number) -> "Duration":
        return cls(_to_ps(value, _PS_PER_S))

    @classmethod
    def zero(cls) -> "Duration":
        return _ZERO_DURATION

    # -- accessors -----------------------------------------------------
    @property
    def picoseconds(self) -> int:
        """The exact value in picoseconds."""
        return self._ps

    @property
    def nanoseconds(self) -> float:
        return self._ps / _PS_PER_NS

    @property
    def microseconds(self) -> float:
        return self._ps / _PS_PER_US

    @property
    def milliseconds(self) -> float:
        return self._ps / _PS_PER_MS

    @property
    def seconds(self) -> float:
        return self._ps / _PS_PER_S

    def is_zero(self) -> bool:
        return self._ps == 0

    def is_negative(self) -> bool:
        return self._ps < 0

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "Duration") -> "Duration":
        if isinstance(other, Duration):
            return Duration(self._ps + other._ps)
        return NotImplemented

    def __sub__(self, other: "Duration") -> "Duration":
        if isinstance(other, Duration):
            return Duration(self._ps - other._ps)
        return NotImplemented

    def __neg__(self) -> "Duration":
        return Duration(-self._ps)

    def __mul__(self, factor: int) -> "Duration":
        if isinstance(factor, int) and not isinstance(factor, bool):
            return Duration(self._ps * factor)
        return NotImplemented

    __rmul__ = __mul__

    def __floordiv__(self, divisor: int) -> "Duration":
        if isinstance(divisor, int) and not isinstance(divisor, bool):
            return Duration(self._ps // divisor)
        return NotImplemented

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Duration) and self._ps == other._ps

    def __lt__(self, other: "Duration") -> bool:
        if isinstance(other, Duration):
            return self._ps < other._ps
        return NotImplemented

    def __le__(self, other: "Duration") -> bool:
        if isinstance(other, Duration):
            return self._ps <= other._ps
        return NotImplemented

    def __gt__(self, other: "Duration") -> bool:
        if isinstance(other, Duration):
            return self._ps > other._ps
        return NotImplemented

    def __ge__(self, other: "Duration") -> bool:
        if isinstance(other, Duration):
            return self._ps >= other._ps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Duration", self._ps))

    def __bool__(self) -> bool:
        return self._ps != 0

    def __repr__(self) -> str:
        return f"Duration({self._ps})"

    def __str__(self) -> str:
        return _format_ps(self._ps)


class Time:
    """A point on the (simulation or observation) time axis.

    ``Time`` values are produced by the kernel (current simulation time),
    by the dynamic computation method (computed evolution instants) and
    by observation traces.  They are immutable, hashable and totally
    ordered.
    """

    __slots__ = ("_ps",)

    def __init__(self, ps: int = 0) -> None:
        if not isinstance(ps, int) or isinstance(ps, bool):
            raise TypeError("Time() expects an integer number of picoseconds")
        self._ps = ps

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "Time":
        return _ZERO_TIME

    @classmethod
    def from_picoseconds(cls, value: Number) -> "Time":
        return cls(_to_ps(value, 1))

    @classmethod
    def from_nanoseconds(cls, value: Number) -> "Time":
        return cls(_to_ps(value, _PS_PER_NS))

    @classmethod
    def from_microseconds(cls, value: Number) -> "Time":
        return cls(_to_ps(value, _PS_PER_US))

    @classmethod
    def from_milliseconds(cls, value: Number) -> "Time":
        return cls(_to_ps(value, _PS_PER_MS))

    @classmethod
    def from_seconds(cls, value: Number) -> "Time":
        return cls(_to_ps(value, _PS_PER_S))

    # -- accessors ---------------------------------------------------------
    @property
    def picoseconds(self) -> int:
        """The exact value in picoseconds."""
        return self._ps

    @property
    def nanoseconds(self) -> float:
        return self._ps / _PS_PER_NS

    @property
    def microseconds(self) -> float:
        return self._ps / _PS_PER_US

    @property
    def milliseconds(self) -> float:
        return self._ps / _PS_PER_MS

    @property
    def seconds(self) -> float:
        return self._ps / _PS_PER_S

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: Duration) -> "Time":
        if isinstance(other, Duration):
            return Time(self._ps + other.picoseconds)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Union["Time", Duration]):
        if isinstance(other, Time):
            return Duration(self._ps - other._ps)
        if isinstance(other, Duration):
            return Time(self._ps - other.picoseconds)
        return NotImplemented

    # -- comparisons ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Time) and self._ps == other._ps

    def __lt__(self, other: "Time") -> bool:
        if isinstance(other, Time):
            return self._ps < other._ps
        return NotImplemented

    def __le__(self, other: "Time") -> bool:
        if isinstance(other, Time):
            return self._ps <= other._ps
        return NotImplemented

    def __gt__(self, other: "Time") -> bool:
        if isinstance(other, Time):
            return self._ps > other._ps
        return NotImplemented

    def __ge__(self, other: "Time") -> bool:
        if isinstance(other, Time):
            return self._ps >= other._ps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Time", self._ps))

    def __repr__(self) -> str:
        return f"Time({self._ps})"

    def __str__(self) -> str:
        return _format_ps(self._ps)


def _format_ps(ps: int) -> str:
    """Render a picosecond count using the largest unit that keeps it readable."""
    sign = "-" if ps < 0 else ""
    magnitude = abs(ps)
    scales = ((_PS_PER_S, "s"), (_PS_PER_MS, "ms"), (_PS_PER_US, "us"), (_PS_PER_NS, "ns"))
    for scale, suffix in scales:
        if magnitude >= scale:
            value = magnitude / scale
            text = f"{value:.6f}".rstrip("0").rstrip(".")
            return f"{sign}{text}{suffix}"
    return f"{sign}{magnitude}ps"


# -- convenience constructors (durations) ------------------------------------

def picoseconds(value: Number) -> Duration:
    """Return a :class:`Duration` of ``value`` picoseconds."""
    return Duration.from_picoseconds(value)


def nanoseconds(value: Number) -> Duration:
    """Return a :class:`Duration` of ``value`` nanoseconds."""
    return Duration.from_nanoseconds(value)


def microseconds(value: Number) -> Duration:
    """Return a :class:`Duration` of ``value`` microseconds."""
    return Duration.from_microseconds(value)


def milliseconds(value: Number) -> Duration:
    """Return a :class:`Duration` of ``value`` milliseconds."""
    return Duration.from_milliseconds(value)


def seconds(value: Number) -> Duration:
    """Return a :class:`Duration` of ``value`` seconds."""
    return Duration.from_seconds(value)


_ZERO_DURATION = Duration(0)
_ZERO_TIME = Time(0)

#: A zero-length duration, convenient default for optional delays.
ZERO_DURATION = _ZERO_DURATION

#: The origin of the simulation time axis.
ZERO_TIME = _ZERO_TIME
