"""Outside-in exclusive-time tracer for the benchmark's traced run.

The tracer wraps public entry points of the program from the outside (a
class method or a module-level function) and accounts each call's
*self* time: its wall time minus the wall time of wrapped calls nested
inside it.  Self times therefore never count a nanosecond twice, and the
self times of every wrapped call sum exactly to the wall time of the
outermost (root) calls -- the property the traced run reports as
``trace.untiled_share``.

Nothing is wrapped until :meth:`Tracer.wrap` is called, and
:meth:`Tracer.unwrap_all` (or leaving the ``with`` block) restores every
original, so an untraced run executes the unmodified program.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer"]


class Tracer:
    """Exclusive-time accounting of wrapped calls, aggregated per layer name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: layer name -> summed self seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer name -> number of calls
        self.calls: Dict[str, int] = defaultdict(int)
        #: layer name -> summed ``tally(result)`` of its calls
        self.tally: Dict[str, int] = defaultdict(int)
        #: summed wall seconds of root (outermost) calls
        self.root_s = 0.0
        # One [start, nested seconds] frame per open wrapped call.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def call(self, name: str, function: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Call ``function`` and charge its self time to ``name``."""
        return self._invoke(name, function, args, kwargs, None)

    def _invoke(
        self,
        name: str,
        function: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        tally: Optional[Callable[[Any], int]],
    ) -> Any:
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = self.clock() - frame[0]
            self._stack.pop()
            self.self_s[name] += elapsed - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += elapsed
            else:
                self.root_s += elapsed
        if tally is not None:
            self.tally[name] += tally(result)
        return result

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        tally: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (defined on ``owner`` itself) by a traced call.

        A missing attribute raises ``KeyError``: a renamed entry point must
        fail the traced run loudly rather than silently drop a layer.
        """
        original = vars(owner)[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer._invoke(name, original, args, kwargs, tally)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        """Forget the aggregates (wrappers stay installed)."""
        self.self_s.clear()
        self.calls.clear()
        self.tally.clear()
        self.root_s = 0.0

    def untiled_share(self) -> float:
        """``|root wall - sum of self times| / root wall`` (0 when it tiles)."""
        if self.root_s <= 0.0:
            return 0.0
        return abs(self.root_s - sum(self.self_s.values())) / self.root_s

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.unwrap_all()
