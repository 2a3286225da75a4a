"""Temporal dependency graph arcs.

An arc expresses one term of a (max, +) evolution equation:

    x_dst(k)  >=  x_src(k - delay) ⊗ w(k)

* ``delay`` is the iteration lag (0 for same-iteration dependencies,
  1 for the ``x(k-1)`` terms of equations (1)-(6), ...).
* ``w(k)`` is the arc weight: either a constant
  :class:`~repro.kernel.simtime.Duration` (possibly zero -- the paper's
  identity element ``e``) or a callable ``weight(k, context)`` returning
  a :class:`Duration`, which is how data-dependent execution times such
  as ``Ti1(k)`` enter the graph.  ``context`` is the per-iteration
  context assembled by the evaluator (it contains at least the input
  tokens of iteration ``k``).

Internally the weight is normalised to integer picoseconds so that the
per-iteration evaluation only touches plain integers.  A
:class:`WorkloadWeight` tells the evaluator *which* workload model a
weight evaluates on the iteration's token, so arcs sharing a workload
share one evaluation per iteration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Union

from ..errors import GraphError
from ..kernel.simtime import Duration
from .node import InstantNode

if TYPE_CHECKING:
    from ..archmodel.workload import ExecutionTimeModel

__all__ = ["DependencyArc", "WeightLike", "WorkloadWeight"]

WeightLike = Union[Duration, Callable[[int, Mapping[str, Any]], Duration], None]


class WorkloadWeight:
    """Arc-weight callable evaluating a workload model on the iteration's token.

    :meth:`weight_ps` is the evaluator's integer fast path (see
    :attr:`DependencyArc.weight_callable`); the workload's ``duration_ps``
    is already validated, so no :class:`Duration` is built.  The evaluator
    recognises this exact type and evaluates each distinct ``workload``
    once per iteration, however many arcs carry it.
    """

    __slots__ = ("workload", "_duration_ps")

    def __init__(self, workload: ExecutionTimeModel) -> None:
        self.workload = workload
        self._duration_ps = workload.duration_ps

    def weight_ps(self, k: int, context: Mapping[str, Any]) -> int:
        return self._duration_ps(k, context.get("token") if context else None)

    def __call__(self, k: int, context: Mapping[str, Any]) -> Duration:
        return Duration(self.weight_ps(k, context))


class DependencyArc:
    """A weighted, possibly delayed dependency between two instant nodes."""

    __slots__ = ("source", "target", "delay", "_constant_ps", "_weight_fn", "label")

    def __init__(
        self,
        source: InstantNode,
        target: InstantNode,
        weight: WeightLike = None,
        delay: int = 0,
        label: str = "",
    ) -> None:
        if not isinstance(delay, int) or isinstance(delay, bool) or delay < 0:
            raise GraphError(f"arc delay must be a non-negative integer, got {delay!r}")
        if target.is_input:
            raise GraphError(
                f"input node {target.name!r} cannot be the target of arc from {source.name!r}: "
                "input instants are injected by the simulation, not computed"
            )
        self.source = source
        self.target = target
        self.delay = delay
        self.label = label
        self._constant_ps: Optional[int] = None
        self._weight_fn: Optional[Callable[[int, Mapping[str, Any]], Duration]] = None
        if weight is None:
            self._constant_ps = 0
        elif isinstance(weight, Duration):
            if weight.is_negative():
                raise GraphError(f"arc {source.name!r} -> {target.name!r} has a negative weight")
            self._constant_ps = weight.picoseconds
        elif callable(weight):
            self._weight_fn = weight
        else:
            raise GraphError(
                f"arc weight must be a Duration or a callable(k, context) -> Duration, "
                f"got {type(weight).__name__}"
            )

    # -- evaluation ---------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        """True when the weight does not depend on the iteration or its data."""
        return self._constant_ps is not None

    @property
    def weight_callable(self) -> Optional[Callable[[int, Mapping[str, Any]], Duration]]:
        """The raw weight callable of a data-dependent arc (``None`` if constant).

        A weight callable may additionally expose a ``weight_ps(k, context) ->
        int`` method; evaluators can call it instead of :meth:`weight_ps` to
        skip the per-call :class:`Duration` validation (used by the compiled
        DSE path's pre-tabulated workload weights).
        """
        return self._weight_fn

    @property
    def constant_weight(self) -> Duration:
        """The constant weight; raises for data-dependent arcs."""
        if self._constant_ps is None:
            raise GraphError(
                f"arc {self.source.name!r} -> {self.target.name!r} has a data-dependent weight"
            )
        return Duration(self._constant_ps)

    def weight_ps(self, k: int, context: Mapping[str, Any]) -> int:
        """Evaluate the weight for iteration ``k`` as integer picoseconds."""
        if self._constant_ps is not None:
            return self._constant_ps
        duration = self._weight_fn(k, context)
        if not isinstance(duration, Duration):
            raise GraphError(
                f"weight callable of arc {self.source.name!r} -> {self.target.name!r} "
                f"returned {type(duration).__name__}; expected a Duration"
            )
        if duration.is_negative():
            raise GraphError(
                f"weight callable of arc {self.source.name!r} -> {self.target.name!r} "
                "returned a negative duration"
            )
        return duration.picoseconds

    def __repr__(self) -> str:
        weight = (
            str(Duration(self._constant_ps)) if self._constant_ps is not None else "<dynamic>"
        )
        suffix = f" (k-{self.delay})" if self.delay else ""
        return (
            f"DependencyArc({self.source.name!r} -> {self.target.name!r}, "
            f"weight={weight}{suffix})"
        )
