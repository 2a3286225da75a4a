"""Workload (execution-time) models.

Performance models do not describe functionality; they describe the
*computation load* a function places on a platform resource when it
executes (Section II of the paper).  A workload model answers two
questions for the ``(k+1)``-th execution of a function:

* :meth:`ExecutionTimeModel.duration_ps` -- how long does the execution
  occupy its resource, in integer picoseconds?
  (:meth:`~ExecutionTimeModel.duration` is the same value as a
  :class:`~repro.kernel.simtime.Duration`.)
* :meth:`ExecutionTimeModel.operations` -- how many operations does it
  perform?  This is only used by the observation layer to plot the
  computational complexity per time unit (GOPS) of Fig. 6; it does not
  influence timing.

Determinism contract
--------------------
The explicit event-driven model and the equivalent model must compute
*identical* durations for iteration ``k``, otherwise the accuracy
comparison is meaningless.  Every model in this module is a
deterministic function of ``(k, token)``; the stochastic model draws
its samples lazily from a private seeded RNG and memoises them per
iteration, so two architecture models *sharing the same instance* see
the same sequence.

Integer-picosecond contract
---------------------------
``duration_ps(k, token) -> int`` is the one primitive every model
implements; ``duration()`` is a concrete wrapper around it.  Timing hot
paths (the equivalent model's arc weights, the explicit processes, the
DSE duration tables) call ``duration_ps`` so no :class:`Duration` is
built per execution.  Models validate their :class:`Duration` arguments
once, at construction, and keep them as integers.  Only values that
arrive with a call are checked on every call, because user code produces
them: the result of a :class:`DataDependentExecutionTime` callable, each
draw of a custom :class:`StochasticExecutionTime` sampler, the cycle
count of a :class:`CycleAccurateExecutionTime` and the token attribute a
:class:`PerUnitExecutionTime` reads.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ModelError
from ..kernel.simtime import PS_PER_SECOND, Duration
from .platform import ProcessingResource, ResourceKind
from .token import DataToken

__all__ = [
    "ExecutionTimeModel",
    "ConstantExecutionTime",
    "DataDependentExecutionTime",
    "PerUnitExecutionTime",
    "TableExecutionTime",
    "StochasticExecutionTime",
    "CycleAccurateExecutionTime",
    "ResourceDependentExecutionTime",
    "KindScaledExecutionTime",
    "bind_workload",
]


def _checked_ps(value: object, what: str) -> int:
    """``value`` as integer picoseconds, after checking it is a non-negative Duration."""
    if not isinstance(value, Duration):
        raise ModelError(f"{what} must be a Duration, got {type(value).__name__}")
    if value.is_negative():
        raise ModelError(f"{what} cannot be negative")
    return value.picoseconds


class ExecutionTimeModel(abc.ABC):
    """Abstract execution-time / computation-load model."""

    @abc.abstractmethod
    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        """Execution duration of the ``(k+1)``-th execution, in integer picoseconds."""

    def duration(self, k: int, token: Optional[DataToken]) -> Duration:
        """Execution duration of the ``(k+1)``-th execution."""
        return Duration(self.duration_ps(k, token))

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        """Number of operations of the ``(k+1)``-th execution (default 0)."""
        return 0.0

    # Workload models are shared between architecture models, never copied.
    def __deepcopy__(self, memo):  # pragma: no cover - defensive
        return self


class ConstantExecutionTime(ExecutionTimeModel):
    """Fixed execution time (and optional fixed operation count)."""

    def __init__(self, duration: Duration, operations: float = 0.0) -> None:
        self._duration_ps = _checked_ps(duration, "ConstantExecutionTime duration")
        self._operations = float(operations)

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        return self._duration_ps

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        return self._operations


class DataDependentExecutionTime(ExecutionTimeModel):
    """Execution time given by an arbitrary callable ``f(k, token) -> Duration``."""

    def __init__(
        self,
        duration_fn: Callable[[int, Optional[DataToken]], Duration],
        operations_fn: Optional[Callable[[int, Optional[DataToken]], float]] = None,
        description: str = "",
    ) -> None:
        if not callable(duration_fn):
            raise ModelError("duration_fn must be callable")
        self._duration_fn = duration_fn
        self._operations_fn = operations_fn
        self.description = description

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        # User code: checked on every call.
        return _checked_ps(self._duration_fn(k, token), "the result of duration_fn")

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        if self._operations_fn is None:
            return 0.0
        return float(self._operations_fn(k, token))


class PerUnitExecutionTime(ExecutionTimeModel):
    """Affine model ``base + per_unit * token[attribute]``.

    The classic "proportional to data size" workload: ``attribute`` is
    looked up on the token (``default_units`` when missing), multiplied
    by ``per_unit`` and added to ``base``.  ``operations_per_unit``
    plays the same role for the operation count.
    """

    def __init__(
        self,
        base: Duration,
        per_unit: Duration,
        attribute: str = "size",
        default_units: int = 0,
        operations_per_unit: float = 0.0,
        base_operations: float = 0.0,
    ) -> None:
        self._base_ps = _checked_ps(base, "PerUnitExecutionTime base")
        self._per_unit_ps = _checked_ps(per_unit, "PerUnitExecutionTime per_unit")
        self.attribute = attribute
        self.default_units = self._checked_units(default_units, "default_units")
        self._operations_per_unit = float(operations_per_unit)
        self._base_operations = float(base_operations)

    @staticmethod
    def _checked_units(units: object, what: str) -> int:
        # bool is an int subclass: True would silently count as one unit.
        if not isinstance(units, int) or isinstance(units, bool) or units < 0:
            raise ModelError(f"{what} must be a non-negative integer, got {units!r}")
        return units

    @property
    def affine_ps(self) -> Tuple[int, int]:
        """``(base, per_unit)`` in picoseconds: ``duration_ps == base + per_unit * units``."""
        return self._base_ps, self._per_unit_ps

    def units(self, token: Optional[DataToken]) -> int:
        """The validated unit count ``token[attribute]`` (``default_units`` when absent).

        Raises :class:`~repro.errors.ModelError` for a value that is not a
        non-negative integer (``bool`` included).
        """
        if token is None:
            return self.default_units
        units = token.get(self.attribute, self.default_units)
        if type(units) is int and units >= 0:
            return units
        return self._checked_units(units, f"token attribute {self.attribute!r}")

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        return self._base_ps + self._per_unit_ps * self.units(token)

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        return self._base_operations + self._operations_per_unit * self.units(token)


class TableExecutionTime(ExecutionTimeModel):
    """Execution times read from a table indexed by the iteration counter.

    The table wraps around by default (``cyclic=True``); with
    ``cyclic=False`` the last entry is repeated for iterations beyond the
    table length.
    """

    def __init__(
        self,
        durations: Sequence[Duration],
        operations: Optional[Sequence[float]] = None,
        cyclic: bool = True,
    ) -> None:
        if not durations:
            raise ModelError("TableExecutionTime requires at least one duration")
        if operations is not None and len(operations) != len(durations):
            raise ModelError("operations table must have the same length as the durations table")
        self._durations_ps = [_checked_ps(duration, "a table entry") for duration in durations]
        self._operations = [float(value) for value in operations] if operations else None
        self.cyclic = cyclic

    def _index(self, k: int) -> int:
        if self.cyclic:
            return k % len(self._durations_ps)
        return min(k, len(self._durations_ps) - 1)

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        return self._durations_ps[self._index(k)]

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        if self._operations is None:
            return 0.0
        return self._operations[self._index(k)]


class StochasticExecutionTime(ExecutionTimeModel):
    """Randomly varying execution time, reproducible and memoised per iteration.

    ``low``/``high`` bound a uniform distribution (in picoseconds); a
    different distribution can be supplied through ``sampler`` which
    receives the private :class:`random.Random` instance and returns a
    :class:`Duration`.  The sample for iteration ``k`` is drawn the first
    time it is requested and cached, so the explicit and equivalent models
    sharing this instance observe identical values regardless of the order
    in which they run.
    """

    def __init__(
        self,
        low: Optional[Duration] = None,
        high: Optional[Duration] = None,
        seed: int = 0,
        sampler: Optional[Callable[[random.Random], Duration]] = None,
        operations: float = 0.0,
    ) -> None:
        if sampler is None:
            if low is None or high is None:
                raise ModelError("provide either low/high bounds or a sampler")
            low_ps = _checked_ps(low, "StochasticExecutionTime low")
            high_ps = _checked_ps(high, "StochasticExecutionTime high")
            if high_ps < low_ps:
                raise ModelError("require 0 <= low <= high")
            self._draw_ps: Callable[[random.Random], int] = (
                lambda rng: rng.randint(low_ps, high_ps)
            )
        else:
            # User code: every draw is checked.
            self._draw_ps = lambda rng: _checked_ps(sampler(rng), "a sampler draw")
        self._rng = random.Random(seed)
        self._cache_ps: List[int] = []
        self._operations = float(operations)

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        cache = self._cache_ps
        # Draw samples in iteration order so the sequence is independent of
        # which model asks first.
        while len(cache) <= k:
            cache.append(self._draw_ps(self._rng))
        return cache[k]

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        return self._operations


class CycleAccurateExecutionTime(ExecutionTimeModel):
    """Execution time expressed in resource cycles at a given clock frequency.

    ``cycles_fn(k, token)`` returns the cycle count; the duration is
    ``cycles / frequency_hz`` rounded to the nearest picosecond.
    ``operations_fn`` (optional) returns the operation count.
    """

    def __init__(
        self,
        cycles_fn: Callable[[int, Optional[DataToken]], int],
        frequency_hz: float,
        operations_fn: Optional[Callable[[int, Optional[DataToken]], float]] = None,
    ) -> None:
        if frequency_hz <= 0:
            raise ModelError("frequency must be positive")
        self._cycles_fn = cycles_fn
        self.frequency_hz = float(frequency_hz)
        self._operations_fn = operations_fn

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        cycles = self._cycles_fn(k, token)
        if cycles < 0:
            raise ModelError("cycle count cannot be negative")
        # Duration.from_seconds' rounding, without the Duration.
        return round(cycles / self.frequency_hz * PS_PER_SECOND)

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        if self._operations_fn is None:
            return 0.0
        return float(self._operations_fn(k, token))


class ResourceDependentExecutionTime(ExecutionTimeModel):
    """A workload whose execution time depends on the *serving resource*.

    Heterogeneous platforms run the same function at different speeds on
    different resource kinds.  A resource-dependent model cannot produce a
    duration on its own: every timing path (explicit processes, the
    loosely-timed baseline, template specialisation, the compiled DSE
    evaluator) first *binds* it to the concrete resource the function was
    mapped onto, via :meth:`bind` / :func:`bind_workload`.

    :meth:`binding_key` names the equivalence class of resources the bound
    durations depend on; the compiled DSE path keys its shared per-iteration
    duration tables by ``(function, step, binding_key)`` so candidates mapping
    a function onto interchangeable resources share one table.
    """

    @abc.abstractmethod
    def bind(self, resource: ProcessingResource) -> ExecutionTimeModel:
        """The plain (resource-free) execution-time model on ``resource``."""

    @abc.abstractmethod
    def binding_key(self, resource: ProcessingResource) -> Hashable:
        """Hashable key such that equal keys imply identical bound durations."""

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        raise ModelError(
            f"{type(self).__name__} is resource-dependent; bind it to a "
            "processing resource (bind_workload) before asking for durations"
        )


class _ScaledExecutionTime(ExecutionTimeModel):
    """A base model with every duration multiplied by a fixed factor.

    The scaled duration is ``round(base_ps * factor)`` in integer
    picoseconds -- a deterministic function of the base model, so the
    explicit, equivalent and compiled evaluation paths agree exactly.
    """

    __slots__ = ("_base", "_factor")

    def __init__(self, base: ExecutionTimeModel, factor: float) -> None:
        self._base = base
        self._factor = factor

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        return round(self._base.duration_ps(k, token) * self._factor)

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        return self._base.operations(k, token)


class KindScaledExecutionTime(ResourceDependentExecutionTime):
    """Per-resource-kind execution-time scaling of a base workload model.

    ``scale`` maps resource kinds (:class:`~repro.archmodel.platform
    .ResourceKind` members or their string values) to a multiplier on the
    base model's duration: ``1.0`` means the base durations are native to
    that kind, ``2.5`` a 2.5x slowdown.  Binding to a kind absent from
    ``scale`` raises (pass ``default_scale`` to allow it) -- a mapping DSE
    should constrain eligibility instead of silently mistiming a function.

    With ``reference_frequency_hz`` set, the factor is additionally
    multiplied by ``reference / resource.frequency_hz`` (cycle-count
    semantics: the base durations are calibrated at the reference clock),
    so two resources of one kind at different clocks time differently.
    Operation counts are resource-independent and delegate to the base.
    """

    def __init__(
        self,
        base: ExecutionTimeModel,
        scale: Mapping[Union[ResourceKind, str], float],
        default_scale: Optional[float] = None,
        reference_frequency_hz: Optional[float] = None,
    ) -> None:
        if not isinstance(base, ExecutionTimeModel):
            raise ModelError("KindScaledExecutionTime expects a base ExecutionTimeModel")
        if isinstance(base, ResourceDependentExecutionTime):
            raise ModelError("the base of a kind-scaled workload must be resource-free")
        self.base = base
        self._scale: Dict[str, float] = {}
        for kind, factor in scale.items():
            key = kind.value if isinstance(kind, ResourceKind) else str(kind)
            if float(factor) <= 0:
                raise ModelError(f"scale for kind {key!r} must be positive, got {factor!r}")
            self._scale[key] = float(factor)
        if not self._scale and default_scale is None:
            raise ModelError("a kind-scaled workload needs at least one kind scale")
        if default_scale is not None and default_scale <= 0:
            raise ModelError("default_scale must be positive")
        self.default_scale = default_scale
        if reference_frequency_hz is not None and reference_frequency_hz <= 0:
            raise ModelError("reference_frequency_hz must be positive")
        self.reference_frequency_hz = reference_frequency_hz

    def scales(self) -> Dict[str, float]:
        """The per-kind multipliers (kind value -> factor), a copy."""
        return dict(self._scale)

    def supports_kind(self, kind: ResourceKind) -> bool:
        """True when :meth:`bind` accepts resources of ``kind``."""
        return kind.value in self._scale or self.default_scale is not None

    def factor_for(self, resource: ProcessingResource) -> float:
        """The duration multiplier for one concrete resource."""
        factor = self._scale.get(resource.kind.value, self.default_scale)
        if factor is None:
            raise ModelError(
                f"workload has no execution-time scale for resource "
                f"{resource.name!r} of kind {resource.kind.value!r} "
                f"(known kinds: {sorted(self._scale)})"
            )
        if self.reference_frequency_hz is not None:
            if not resource.frequency_hz:
                raise ModelError(
                    f"workload scales with the clock (reference "
                    f"{self.reference_frequency_hz:g} Hz) but resource "
                    f"{resource.name!r} declares no frequency; give the "
                    "resource a frequency_hz instead of silently mistiming it"
                )
            factor *= self.reference_frequency_hz / resource.frequency_hz
        return factor

    def bind(self, resource: ProcessingResource) -> ExecutionTimeModel:
        factor = self.factor_for(resource)
        if isinstance(self.base, ConstantExecutionTime):
            # Constant stays constant, so the bound weight keeps the graph
            # exportable to the linear (max, +) matrix form.
            return ConstantExecutionTime(
                Duration(round(self.base.duration_ps(0, None) * factor)),
                operations=self.base.operations(0, None),
            )
        if factor == 1.0:
            return self.base
        return _ScaledExecutionTime(self.base, factor)

    def binding_key(self, resource: ProcessingResource) -> Hashable:
        # The factor is a function of (kind, frequency) only, so resources
        # agreeing on both share bound duration tables.
        return (resource.kind.value, resource.frequency_hz)

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        return self.base.operations(k, token)


def bind_workload(
    workload: ExecutionTimeModel, resource: ProcessingResource
) -> ExecutionTimeModel:
    """``workload`` ready to time executions on ``resource``.

    Resource-free models pass through unchanged; resource-dependent ones are
    bound.  Every consumer of execute-step durations goes through this, so
    heterogeneous scaling behaves identically in the explicit, loosely-timed,
    equivalent and compiled evaluation paths.
    """
    if isinstance(workload, ResourceDependentExecutionTime):
        return workload.bind(resource)
    return workload
