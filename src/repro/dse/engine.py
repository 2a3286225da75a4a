"""Array-lowered replay: flat int64 tables behind ``CompiledProblem.evaluate_batch``.

A design problem's allocation-independent TDG template is lowered once
(:func:`lower_template`) into a :class:`TemplateProgram`: a node index
vocabulary, each node's constant arcs as flat ``(source, delay, column)``
int triples, the execute slots its slot arcs read, and the execute
slots' node indices.  Every weight stream and offer schedule is a column
of the problem's :class:`StreamTable`, added the first time it is met.
:func:`lower_spec` writes what one candidate's mapping decides over it
-- its service-order and server-free arcs, the column of the duration
table bound to each slot and each slot's resource -- orders and checks
the patched tables, and copies them into an :class:`ArrayProgram`: flat
int tables of plan nodes, arc pointers and arcs, inputs, outputs and
per resource its execute slots.  Both sweeps read that one format:
:func:`replay_program`, a tight loop over list indices, and -- when
``numpy`` imports and the kernel loads -- one call of a compiled C
transcription of that loop over a whole batch in int64 numpy buffers,
which also scores every resource's busy span as it sweeps.  Every
candidate the compiled path scores goes through here; the protocol is
written twice, in :func:`replay_program` and in the C kernel.

A replay returns ``(offers, actual, spans)``: the offer instants per
input relation, the output instants per output relation, and per busy
resource its ``(busy, lo, hi)`` -- the length of the union of its
execute intervals and the first and last instant of any of them (idle
resources are absent).  Both paths return exactly that shape, and
:mod:`repro.dse.compile` turns the spans into utilisation fractions.

Which path sweeps a program is a rule, not an option (:func:`replay_batch`):
the kernel sweeps every full-horizon program when it is available, and
:func:`replay_program` sweeps everything else.  A program lowered with
``steady=True`` carries its inputs' offer periods and is replayed by
:func:`replay_program` in *steady mode*: the sweep stops once the periodic
regime is certified and writes the remaining iterations in closed form,
returning exactly what the full sweep would have.

Invariants:

* **Exactness.**  Both paths compute the very same (max, +)
  recurrence as :class:`~repro.tdg.evaluator.TDGEvaluator`; results are
  bit-identical, instant for instant, to the explicit simulation
  (asserted by the equivalence suites).
  ε is the sentinel :data:`NEG_EPSILON`, and every read skips values at
  or below :data:`EPSILON_THRESHOLD`.  :func:`replay_program` drops that
  test once it has proved that no ε can be read any more (see there); the
  kernel keeps it on every read.  The kernel checks every ``+`` for
  int64 overflow and leaves such candidates to :func:`replay_program` on
  Python integers, so no headroom is assumed; a resource whose span it
  cannot prove in int64 closed form is merged exactly on Python integers.
* **Reference path stays pure Python.**  :func:`replay_program` has no
  third-party dependency.  The kernel needs ``numpy`` and a C compiler;
  it is built on first use into a per-user cache, and without either
  every program is swept by the reference.
* **Every weight is a stream.**  A template weight is either constant or
  an execute slot's workload, and the compiled problem binds every such
  slot to a :class:`_TabulatedWeight` table, so every candidate lowers.
* **The kernel never reads out of range.**  It checks every table of a
  candidate before sweeping it and leaves one it cannot follow safely to
  :func:`replay_program`, whatever built the program.

This module also owns :class:`_TabulatedWeight` and :class:`_TokenTable`
(shared per-iteration duration/token streams), :class:`StreamTable` and
the span routines (:func:`_interleaved_span`, :func:`_merged_span`,
:func:`_merged_busy`).
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import logging
import operator
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .. import telemetry
from ..archmodel.token import DataToken
from ..archmodel.workload import ExecutionTimeModel
from ..campaign.results import int64_digest, pack_instants, packed_digest
from ..environment.stimulus import Stimulus
from ..errors import ComputationError, GraphError, ModelError
from ..kernel.simtime import Duration
from ..tdg.graph import zero_delay_order
from ..tdg.node import NodeKind

__all__ = [
    "BACKENDS",
    "NEG_EPSILON",
    "EPSILON_THRESHOLD",
    "ArrayProgram",
    "StreamTable",
    "TemplateProgram",
    "exact_sum",
    "lower_spec",
    "lower_template",
    "numpy_available",
    "replay_batch",
    "replay_program",
    "resolve_backend",
]

#: The sweep paths a record may name, in reference-first order.
BACKENDS: Tuple[str, ...] = ("python", "numpy")

#: ε (no value yet) as an int64 sentinel.  Real instants are >= 0.
NEG_EPSILON = -(1 << 62)

#: Anything at or below this is ε.  Every sweep masks its reads with it, so
#: a value that never became an instant never feeds a (+).
EPSILON_THRESHOLD = -(1 << 61)


class _TabulatedWeight:
    """Per-iteration workload durations, evaluated once and shared across candidates.

    The arc-weight protocol is ``weight(k, context) -> Duration``; the table
    ignores the per-candidate context and uses the problem's own (identical)
    token sequence, growing lazily with the iteration index.
    """

    __slots__ = ("workload", "_tokens", "_cache_ps", "_constant_checked", "_divergence")

    def __init__(self, workload: ExecutionTimeModel, tokens: "_TokenTable") -> None:
        self.workload = workload
        self._tokens = tokens
        self._cache_ps: List[int] = []
        #: iterations already verified to share the first duration.
        self._constant_checked = 0
        #: first iteration whose duration differs from iteration 0 (if found).
        self._divergence: Optional[int] = None

    def weight_ps(self, k: int, context: Mapping[str, object]) -> int:
        """Integer fast path used by the evaluator (see DependencyArc.weight_callable)."""
        cache = self._cache_ps
        while len(cache) <= k:
            index = len(cache)
            duration_ps = self.workload.duration_ps(index, self._tokens[index])
            # Checked once per table entry, so a misbehaving workload
            # subclass stays an infeasibility report instead of a silently
            # wrong instant.
            if type(duration_ps) is not int or duration_ps < 0:
                raise GraphError(
                    f"workload {type(self.workload).__name__} returned an invalid "
                    f"duration for iteration {index}: {duration_ps!r}"
                )
            cache.append(duration_ps)
        return cache[k]

    def __call__(self, k: int, context: Mapping[str, object]) -> Duration:
        return Duration(self.weight_ps(k, context))

    def stream_ps(self, horizon: int) -> List[int]:
        """The materialised duration list for iterations ``< horizon``.

        Fills the memoised cache (validating every duration exactly like
        :meth:`weight_ps`) and returns it -- the lowered arc then reads
        ``stream[k]`` with a plain list index instead of a function call.
        The list is shared: callers must not mutate it.
        """
        if horizon > 0:
            self.weight_ps(horizon - 1, {})
        return self._cache_ps

    def constant_stream_ps(self, horizon: int) -> Optional[int]:
        """The single duration all iterations ``< horizon`` share, or ``None``.

        This is the steady-state evaluator's exact decision procedure for
        "data-dependent durations": tokens may vary freely as long as the
        workload maps them all to the same duration.  The scan is memoised,
        so the per-problem cost is one pass over the table -- the same work
        the replay loop would spend evaluating the weights anyway.
        """
        if horizon <= 0:
            return None
        if self._divergence is not None and self._divergence < horizon:
            return None
        first = self.weight_ps(0, {})
        for k in range(max(self._constant_checked, 1), horizon):
            if self.weight_ps(k, {}) != first:
                self._divergence = k
                self._constant_checked = k + 1
                return None
        if horizon > self._constant_checked:
            self._constant_checked = horizon
        return first


class _TokenTable:
    """Lazy, memoised token sequence of the primary stimulus (or all-``None``)."""

    __slots__ = ("stimulus", "_tokens")

    def __init__(self, stimulus: Optional[Stimulus]) -> None:
        self.stimulus = stimulus
        self._tokens: List[Optional[DataToken]] = []

    def __getitem__(self, k: int) -> Optional[DataToken]:
        tokens = self._tokens
        while len(tokens) <= k:
            index = len(tokens)
            tokens.append(None if self.stimulus is None else self.stimulus.token(index))
        return tokens[k]


def _classify(values: Sequence[int], horizon: int) -> Tuple[bool, bool, bool]:
    """``(zero, non_negative, usable)`` of one stream over iterations ``< horizon``.

    ``zero``: every weight is 0 and the stream covers the horizon, so an arc
    over it is a plain max over its source.  ``non_negative``: no weight
    below 0.  ``usable``: the stream covers the horizon and every weight
    fits int64, so the compiled kernel may read it.  A stream shorter than
    the horizon is neither zero nor usable: it fails where it is read.
    """
    head = values[:horizon]
    full = len(head) >= horizon
    lo, hi = min(head, default=0), max(head, default=0)
    return full and lo == hi == 0, lo >= 0, full and -(1 << 63) <= lo and hi < 1 << 63


class StreamTable:
    """One problem's per-iteration int streams, one column each, met once.

    Every weight a lowered program reads and every offer schedule is a
    column: :func:`lower_template` adds the constant streams and the offer
    schedules, and :meth:`bind` adds a duration table the first time a
    candidate binds it (materialised, hence validated, for the horizon).
    Each column is classified once, when it is added (:func:`_classify`).
    :meth:`matrix` holds the compiled kernel's int64 ``[horizon, columns]``
    matrix: built on first use, extended only by the columns added since,
    so an earlier column never moves or changes.
    """

    __slots__ = ("horizon", "columns", "kinds", "_bound", "_matrix", "_usable")

    def __init__(self, horizon: int) -> None:
        self.horizon = horizon
        self.columns: List[Sequence[int]] = []
        #: per column: (zero, non_negative, usable), see :func:`_classify`.
        self.kinds: List[Tuple[bool, bool, bool]] = []
        self._bound: Dict[_TabulatedWeight, int] = {}
        self._matrix: Any = None
        self._usable: Any = None

    def add(self, values: Sequence[int]) -> int:
        """Append ``values`` as a new column; returns its index."""
        self.kinds.append(_classify(values, self.horizon))
        self.columns.append(values)
        return len(self.columns) - 1

    def bind(self, table: _TabulatedWeight) -> int:
        """The column of a duration table, added the first time it is met.

        Materialising the table validates every duration of the horizon, so
        the first invalid one raises its :class:`~repro.errors.GraphError`
        here (and again on the next candidate that binds the table).
        """
        column = self._bound.get(table)
        if column is None:
            column = self._bound[table] = self.add(table.stream_ps(self.horizon))
        return column

    def matrix(self) -> Tuple[Any, Any]:
        """The int64 ``[horizon, columns]`` matrix and per-column usable flags.

        An unusable column (short, or beyond int64) is zeros in the matrix;
        the kernel leaves every candidate that reads it to the reference.
        """
        import numpy as np

        built = 0 if self._matrix is None else self._matrix.shape[1]
        if self._matrix is None or built < len(self.columns):
            horizon, fresh = self.horizon, range(built, len(self.columns))
            usable = [self.kinds[c][2] for c in fresh]
            rows = [
                self.columns[c][:horizon] if ok else [0] * horizon for c, ok in zip(fresh, usable)
            ]
            block = np.array(rows, dtype=np.int64).reshape(len(fresh), horizon)
            flags = np.array(usable, dtype=np.int64)
            if built:
                block = np.vstack((self._matrix.T, block))
                flags = np.concatenate((self._usable, flags))
            self._matrix, self._usable = np.ascontiguousarray(block.T), flags
        return self._matrix, self._usable


class ArrayProgram(NamedTuple):
    """One candidate's model lowered onto flat integer tables.

    Every name is resolved to an index and every weight to a column of
    ``streams``, the problem's :class:`StreamTable`, whose horizon is the
    program's:

    * ``plan_nodes`` -- the computed (non-input) nodes in this candidate's
      topological order;
    * ``arc_ptr`` / ``arcs`` -- the predecessor arcs as ``(source, delay,
      column)`` int triples, flat in ``arcs``; group ``g`` is
      ``arcs[arc_ptr[g]:arc_ptr[g + 1]]``: plan node ``p`` is group ``p``
      and input ``i``'s ready node group ``len(plan_nodes) + i`` (its
      *delayed* arcs, the ``peek_delayed`` set);
    * ``inputs`` / ``exchanges`` / ``schedules`` -- per boundary input, in
      protocol order: the relation, the exchange node and the column of its
      stimulus offer schedule;
    * ``outputs`` / ``offer_nodes`` -- per boundary output, the relation and
      its offer node;
    * ``resources`` / ``slot_ptr`` / ``slot_nodes`` -- per resource, in
      template execute-slot order, its name and the (start node, end node)
      int pairs of each execute slot it serves, flat in
      ``slot_nodes[slot_ptr[r]:slot_ptr[r + 1]]``, from which the replay
      scores the resource's busy span;
    * ``periods`` -- per input, the constant offer period of its stimulus
      when the program is to be replayed in steady mode, else ``None``.
      Steady mode presumes every weight stream constant over the horizon.

    The candidates of one problem share its stream table and the template's
    tables read-only, so the programs of a whole batch coexist.
    """

    streams: StreamTable
    node_count: int
    plan_nodes: Sequence[int]
    arc_ptr: Sequence[int]
    arcs: Sequence[int]
    inputs: Sequence[str]
    exchanges: Sequence[int]
    schedules: Sequence[int]
    outputs: Sequence[str]
    offer_nodes: Sequence[int]
    resources: Sequence[str]
    slot_ptr: Sequence[int]
    slot_nodes: Sequence[int]
    periods: Optional[Tuple[int, ...]] = None

    @property
    def iterations(self) -> int:
        """The horizon: the stream table's."""
        return self.streams.horizon


#: One resource's (busy, lo, hi): the union length of its execute intervals
#: and the earliest start and latest end among them, in picoseconds.
Span = Tuple[int, int, int]

#: replay result: (offer instants per input relation, output instants per
#: output relation, span per resource with at least one interval, and per
#: output relation the :func:`~repro.campaign.results.instants_digest` of
#: its instants -- ``None`` when one leaves int64).  Instants are int lists;
#: the kernel's offers are int64 rows (see :func:`exact_sum`).
ProgramResult = Tuple[
    Dict[str, Sequence[int]], Dict[str, List[int]], Dict[str, Span], Dict[str, Optional[str]]
]


@functools.lru_cache(maxsize=None)
def numpy_available() -> bool:
    """Whether numpy, which the compiled kernel's buffers need, imports."""
    try:
        import numpy  # noqa: F401
    except Exception:
        return False
    return True


def resolve_backend(request: None = None) -> str:
    """The backend this process sweeps full-horizon programs with.

    ``"numpy"`` (the compiled kernel) when numpy imports and the kernel has
    not failed to load, else ``"python"`` (:func:`replay_program`).  The
    backend is not an option: ``request`` must be ``None``.
    """
    if request is not None:
        raise ModelError(f"the DSE backend is not selectable (got {request!r})")
    return "numpy" if _kernel is not False and numpy_available() else "python"


def exact_sum(values: Sequence[int]) -> int:
    """``sum(values)`` exactly, for an int list or an int64 numpy row.

    numpy sums a row only when no partial sum can wrap (``len * max|v| <
    2**63``); anything else is summed on Python ints.
    """
    if not hasattr(values, "dtype"):
        return sum(values)
    if not len(values):
        return 0
    bound = max(-int(values.min()), int(values.max()))
    if bound * len(values) < 1 << 63:
        return int(values.sum())
    return sum(values.tolist())


class TemplateProgram(NamedTuple):
    """A problem's allocation-independent TDG template, lowered once onto index tables.

    Node ``i`` is the template's ``i``-th node (the index order of every
    graph specialised from it).  ``streams`` is the problem's
    :class:`StreamTable`, holding each constant stream and offer schedule;
    ``zero`` is the column of the zero-weight stream every schedule arc
    reads.  Every template arc into a node the replay computes is one of
    two kinds:

    * ``arcs_into[i]`` -- the constant-weight arcs into node ``i``, as flat
      ``(source, delay, column)`` int triples, ready to be copied;
    * ``slot_arcs_into[i]`` -- the weight arcs of tabulated execute slots
      into node ``i``, as ``(source, delay, slot)`` with ``slot`` indexing
      ``slot_keys``: the column they read is that of the duration table the
      candidate's mapping binds to ``slot_keys[slot]``.

    ``tabulated`` lists every tabulated slot key in template arc order (the
    steady gate's), ``successors[i]`` the targets of node ``i``'s zero-delay
    template arcs and ``unfed`` the computed nodes without any template
    arc.  Per boundary input: ``inputs`` (relation), ``exchanges``,
    ``schedules`` (the offer schedule's column, ``None`` without a
    stimulus), ``ready`` and ``periods`` (the stimulus offer period,
    ``None`` when aperiodic); per boundary output ``outputs`` and
    ``offer_nodes``; ``slots`` holds each execute slot's (start, end) nodes
    in template order.
    """

    names: Tuple[str, ...]
    index: Mapping[str, int]
    computed: Tuple[bool, ...]
    streams: StreamTable
    zero: int
    arcs_into: Tuple[Tuple[int, ...], ...]
    slot_arcs_into: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    slot_keys: Tuple[Any, ...]
    tabulated: Tuple[Any, ...]
    successors: Tuple[Tuple[int, ...], ...]
    unfed: Tuple[int, ...]
    inputs: Tuple[str, ...]
    exchanges: Tuple[int, ...]
    schedules: Tuple[Optional[int], ...]
    ready: Tuple[int, ...]
    periods: Tuple[Optional[int], ...]
    outputs: Tuple[str, ...]
    offer_nodes: Tuple[int, ...]
    slots: Tuple[Tuple[int, int], ...]


def lower_template(template: Any, stimuli: Mapping[str, Stimulus]) -> TemplateProgram:
    """Lower an :class:`~repro.core.spec.EquivalentModelTemplate` onto index tables.

    Runs once per problem.  The horizon is the shortest boundary-input
    stimulus; constant streams and offer schedules are materialised for it
    into the problem's :class:`StreamTable`, shared by every candidate's
    program.  A template arc whose weight is neither ``None`` nor a
    :class:`~repro.kernel.simtime.Duration` is an execute slot's workload
    weight (the builder lays no other non-constant arc), so it is lowered as
    a reference to its slot.  Arcs into an input node that is no input's
    ready node are never read, and are dropped.
    """
    names = tuple(node.name for node in template.nodes)
    index = {name: i for i, name in enumerate(names)}
    stimulus_of = [stimuli.get(boundary.relation) for boundary in template.boundary_inputs]
    iterations = min((len(s) for s in stimulus_of if s is not None), default=0)
    streams = StreamTable(iterations)
    constants: Dict[int, int] = {}
    computed = tuple(node.kind is not NodeKind.INPUT for node in template.nodes)
    ready = tuple(index[boundary.ready_node] for boundary in template.boundary_inputs)
    read = [*computed]
    for node in ready:
        read[node] = True
    arcs_into: List[List[int]] = [[] for _ in names]
    slot_arcs_into: List[List[Tuple[int, int, int]]] = [[] for _ in names]
    fed = [False] * len(names)
    successors: List[List[int]] = [[] for _ in names]
    slot_of: Dict[Any, int] = {}
    tabulated: List[Any] = []
    for arc in template.arcs:
        source, target = index[arc.source], index[arc.target]
        fed[target] = True
        if arc.delay == 0:
            successors[source].append(target)
        if arc.weight is None or isinstance(arc.weight, Duration):
            value = 0 if arc.weight is None else arc.weight.picoseconds
            if value not in constants:
                constants[value] = streams.add([value] * iterations)
            if read[target]:
                arcs_into[target] += (source, arc.delay, constants[value])
        else:
            tabulated.append(arc.slot)
            if read[target]:
                slot = slot_of.setdefault(arc.slot, len(slot_of))
                slot_arcs_into[target].append((source, arc.delay, slot))
    zero = constants[0] if 0 in constants else streams.add([0] * iterations)
    schedules: List[Optional[int]] = []
    for stimulus in stimulus_of:
        schedules.append(
            None
            if stimulus is None
            else streams.add([stimulus.offer_time_ps(k) for k in range(iterations)])
        )
    return TemplateProgram(
        names=names,
        index=index,
        computed=computed,
        streams=streams,
        zero=zero,
        arcs_into=tuple(map(tuple, arcs_into)),
        slot_arcs_into=tuple(map(tuple, slot_arcs_into)),
        slot_keys=tuple(slot_of),
        tabulated=tuple(tabulated),
        successors=tuple(map(tuple, successors)),
        unfed=tuple(i for i in range(len(names)) if computed[i] and not fed[i]),
        inputs=tuple(boundary.relation for boundary in template.boundary_inputs),
        exchanges=tuple(index[boundary.exchange_node] for boundary in template.boundary_inputs),
        schedules=tuple(schedules),
        ready=ready,
        periods=tuple(
            None if stimulus is None else stimulus.offer_period_ps() for stimulus in stimulus_of
        ),
        outputs=tuple(boundary.relation for boundary in template.boundary_outputs),
        offer_nodes=tuple(index[boundary.offer_node] for boundary in template.boundary_outputs),
        slots=tuple((index[s.start_node], index[s.end_node]) for s in template.execute_slots),
    )


def lower_spec(
    program: TemplateProgram,
    schedule_arcs: Iterable[Tuple[str, str, int, str]],
    tables: Mapping[Any, _TabulatedWeight],
    resources: Sequence[str],
    steady: bool = False,
) -> ArrayProgram:
    """Lower one candidate: what its mapping decides, written over the lowered template.

    ``schedule_arcs`` are the candidate's service-order and server-free arcs
    as :func:`~repro.core.builder.resource_schedule_arcs` yields them,
    ``tables`` maps each tabulated slot key to the duration table the
    mapping binds to it, and ``resources`` names each execute slot's
    resource, in template order.  ``steady`` asks for the steady mode of
    :func:`replay_program`: the program carries its inputs' offer periods
    when the certificate can hold (every period constant, every bound
    duration table constant over the horizon); otherwise the fallback is
    counted and the program is swept in full.

    Each plan node's arcs are its template fragment (``arcs_into``), then
    the candidate's schedule arcs into it, then its slot arcs over the
    columns of the bound tables.  A table met for the first time is bound
    into the stream table where the evaluation first reads it.

    Raises what the object-graph path raises, in its order, so these
    candidates are reported infeasible with the same message: the
    :class:`~repro.errors.GraphError` of
    :func:`~repro.tdg.graph.zero_delay_order` (a computed node without
    incoming arc, a zero-delay cycle), missing stimuli
    (:class:`~repro.errors.ModelError`), then an invalid workload duration
    (:class:`~repro.errors.GraphError`, met by the steady gate in template
    arc order, else in evaluation order) and a delay-0 ready arc
    (:class:`~repro.errors.ComputationError`, as
    :meth:`~repro.tdg.evaluator.TDGEvaluator.peek_delayed` raises it).
    """
    index, zero, streams = program.index, program.zero, program.streams
    successors = list(program.successors)
    extra: Dict[int, List[int]] = {}
    for source, target, delay, _ in schedule_arcs:
        head, tail = index[source], index[target]
        if tail in extra:
            extra[tail] += (head, delay, zero)
        else:
            extra[tail] = [head, delay, zero]
        if not delay:
            successors[head] += (tail,)
    unfed = [node for node in program.unfed if node not in extra]
    order = zero_delay_order(program.names, successors, unfed)
    missing = sorted(r for r, s in zip(program.inputs, program.schedules) if s is None)
    if missing:
        raise ModelError(f"missing stimuli for external inputs: {missing}")
    if steady:
        reason = _steady_gate(program, tables)
        if reason is not None:
            # The steady certificate cannot hold (aperiodic inputs or
            # iteration-dependent durations): sweep every iteration.
            telemetry.count("dse.steady.fallbacks")
            telemetry.count(f"dse.steady.fallback.{reason}")
            steady = False
    keys = program.slot_keys
    bound = streams._bound
    try:
        column_of = [bound[tables[key]] for key in keys].__getitem__
    except KeyError:  # a table met for the first time: bound where it is read
        column_of = lambda slot: streams.bind(tables[keys[slot]])
    computed, arcs_into, slot_arcs_into = (
        program.computed,
        program.arcs_into,
        program.slot_arcs_into,
    )
    plan_nodes = [node for node in order if computed[node]]
    arcs: List[int] = []
    arc_ptr = [0]
    for group, node in enumerate([*plan_nodes, *program.ready]):
        first = len(arcs)
        arcs += arcs_into[node]
        if node in extra:
            arcs += extra[node]
        for source, delay, slot in slot_arcs_into[node]:
            arcs += (source, delay, column_of(slot))
        arc_ptr.append(len(arcs))
        if group < len(plan_nodes):
            continue
        for at in range(first + 1, len(arcs), 3):  # an input's ready node: delays only
            if not arcs[at]:
                raise ComputationError(
                    f"peek_delayed({program.names[node]!r}) requires delayed arcs only, "
                    f"but the arc from {program.names[arcs[at - 1]]!r} has delay 0"
                )
    # Slots group by resource in template order, which breaks ties of the
    # span routines' stable slot sort.
    grouped: Dict[str, List[int]] = {}
    for resource, pair in zip(resources, program.slots):
        if resource in grouped:
            grouped[resource] += pair
        else:
            grouped[resource] = list(pair)
    slot_nodes: List[int] = []
    slot_ptr = [0]
    for pairs in grouped.values():
        slot_nodes += pairs
        slot_ptr.append(len(slot_nodes))
    return ArrayProgram(
        streams=streams,
        node_count=len(program.names),
        plan_nodes=plan_nodes,
        arc_ptr=arc_ptr,
        arcs=arcs,
        inputs=program.inputs,
        exchanges=program.exchanges,
        schedules=program.schedules,
        outputs=program.outputs,
        offer_nodes=program.offer_nodes,
        resources=list(grouped),
        slot_ptr=slot_ptr,
        slot_nodes=slot_nodes,
        periods=program.periods if steady else None,
    )


def _steady_gate(
    program: TemplateProgram, tables: Mapping[Any, _TabulatedWeight]
) -> Optional[str]:
    """Why a candidate with duration ``tables`` cannot be swept in steady mode, or ``None``.

    The gate is what makes extrapolation *sound*: every boundary-input
    stimulus must promise a constant offer period, and every duration table
    the candidate binds must be provably constant over the whole horizon
    (every other weight is a constant).  Only then does an observed uniform
    drift certify the future.
    """
    if any(period is None for period in program.periods):
        return "aperiodic_stimulus"
    for slot in program.tabulated:
        if tables[slot].constant_stream_ps(program.streams.horizon) is None:
            return "data_dependent"
    return None


def replay_program(program: ArrayProgram) -> Optional[ProgramResult]:
    """Replay one lowered program with the pure-Python reference loop.

    The Reception/rendezvous protocol of the equivalent model and its
    (max, +) sweep, iteration by iteration, against an always-ready
    observer.  ``None`` means an output went ε or decreased: it would be
    accepted later than computed, and only the event-driven harness can
    feed that back.

    With ``program.periods`` set (the steady mode) the sweep also watches
    for the periodic regime ``x(k+1) = x(k) + c``.  The certificate has two
    halves:

    * every history row drifted by the same ``c >= 0`` for ``max_delay + 1``
      consecutive iteration pairs, with no ε among those entries, so the
      whole state the recurrence reads satisfies ``x(k) = x(k-1) + c`` --
      with constant weights the (max, +) recurrence then reproduces the
      shift forever, because ``max`` commutes with adding ``c`` to every
      operand;
    * each input schedule is *locked*: either its period equals ``c`` (the
      schedule shifts with everything else) or the last exchange already
      overtook the next scheduled offer and ``c`` exceeds the period (the
      schedule term never re-enters the ``max``).

    Together these imply the remaining sweep would produce exactly
    ``value + j*c`` everywhere, so the sweep stops there: the offer and
    output sequences are written out arithmetically and the spans come
    from the replayed prefix plus the ``(extra, c)`` tail in closed form
    (see :func:`_interleaved_span`).  Steady mode returns exactly what the
    full sweep returns, ``None`` included.
    """
    streams = program.streams
    iterations = streams.horizon
    columns, kinds = streams.columns, streams.kinds
    neg = NEG_EPSILON
    eps = EPSILON_THRESHOLD
    periods = program.periods
    flat, ptr = program.arcs, program.arc_ptr
    triples = list(zip(flat[::3], flat[1::3], flat[2::3]))
    groups = [triples[a // 3 : b // 3] for a, b in zip(ptr, ptr[1:])]
    plan_nodes, exchanges = program.plan_nodes, program.exchanges
    plan_arcs, ready_groups = groups[: len(plan_nodes)], groups[len(plan_nodes) :]
    # Every history row starts with `pad` ε entries, so iteration k lives at
    # k + pad and a delayed read k + pad - delay never reaches before the
    # row: iterations before 0 read ε without a bounds check.  A row the
    # sweep writes grows by one entry per iteration, so a certified steady
    # run never allocates the horizon; a row nothing writes stays ε over
    # the whole horizon.
    pad = max((delay for arcs in groups for _, delay, _ in arcs), default=0)
    written = {*plan_nodes, *exchanges}
    hist: List[List[int]] = [
        [neg] * (pad if row in written else pad + iterations) for row in range(program.node_count)
    ]
    offer_lists: List[List[int]] = [[] for _ in exchanges]
    out_lists: List[List[int]] = [[] for _ in program.offer_nodes]
    prev = [neg] * len(exchanges)  # previous exchange instants (ε = neg)
    # Each column of the stream table was classified once when it was added
    # (see _classify): all zero over the horizon (the arc is then a plain
    # max over its source), free of negative weights.
    # Bind history rows into the tables once, so the hot loop below works
    # on list references instead of re-indexing the vocabulary per visit.
    # Each node's arcs are split into zero-weight (row, delay) pairs and
    # weighted (row, delay, stream) triples; a node with a single arc also
    # carries that arc alone, and one with two zero-weight arcs carries them
    # as one flat pair, so the settled sweep computes either without a loop
    # (a zero-weight single arc only on a full sweep, whose zero streams are
    # all zero over the horizon).
    # A zero-weight arc is dropped when it can never decide its node's max:
    # another arc of the node, with a non-negative stream, reads at the same
    # delay a node that is never below the dropped arc's source -- it takes
    # the max over that source plus a non-negative weight, directly or
    # through other nodes of the same iteration.  above[n] is the bitmask of
    # the sources node n is never below.
    above: Dict[int, int] = {}
    for node_idx, arcs in zip(plan_nodes, plan_arcs):
        mask = 0
        for src, delay, w in arcs:
            if not delay and kinds[w][1]:
                mask |= 1 << src | above.get(src, 0)
        above[node_idx] = mask
    # Iterations in a row in which no plan node was ε.  Once they cover
    # every delay, no read can meet ε again: delayed reads land in that
    # window, and same-iteration reads follow the topological order up from
    # the exchange instants, which are never ε; with no negative weight, no
    # sum falls back to ε either.  From then on the sweep skips the ε test.
    can_settle = all(src in written and kinds[w][1] for arcs in plan_arcs for src, _, w in arcs)
    kept = []
    for node_idx, arcs in zip(plan_nodes, plan_arcs):
        if len(arcs) > 1:
            covered: Dict[int, int] = {}  # delay -> sources another arc is never below
            for src, delay, w in arcs:
                if kinds[w][1]:
                    covered[delay] = covered.get(delay, 0) | above.get(src, 0)
            arcs = [
                (src, delay, w)
                for src, delay, w in arcs
                if not (kinds[w][0] and covered.get(delay, 0) >> src & 1)
            ]
        # A node left with one zero-weight arc of the same iteration copies
        # its source, value for value, where every value is ε or an instant
        # (no negative weight, no unwritten source): on a full sweep it
        # shares the source's row and the sweep never visits it.  Rows are
        # bound below, once every copy shares its source's row.
        if can_settle and periods is None and len(arcs) == 1 and not arcs[0][1]:
            src, _, w = arcs[0]
            if kinds[w][0]:
                hist[node_idx] = hist[src]
                continue
        kept.append((node_idx, arcs))
    plan = []
    for node_idx, arcs in kept:
        zero_arcs = tuple((hist[src], delay) for src, delay, w in arcs if kinds[w][0])
        weighted = tuple(
            (hist[src], delay, columns[w]) for src, delay, w in arcs if not kinds[w][0]
        )
        single = pair = None
        if len(arcs) == 1 and (weighted or periods is None):
            src, delay, w = arcs[0]
            single = (hist[src], delay, columns[w])
        elif len(zero_arcs) == 2 and not weighted:
            pair = zero_arcs[0] + zero_arcs[1]
        plan.append((hist[node_idx], zero_arcs, weighted, single, pair))
    settled = 0
    bound_inputs = [
        (
            i,
            hist[exchange_idx],
            columns[schedule],
            tuple((hist[src], delay, columns[w]) for src, delay, w in ready_arcs),
        )
        for i, (exchange_idx, schedule, ready_arcs) in enumerate(
            zip(exchanges, program.schedules, ready_groups)
        )
    ]
    bound_outputs = [
        (hist[offer_idx], emitted) for offer_idx, emitted in zip(program.offer_nodes, out_lists)
    ]
    # Steady mode: the drift of the current run of uniformly drifting
    # iteration pairs, the run's length, and the certified (extra, c) tail.
    streak_drift: Optional[int] = None
    streak = 0
    tail: Optional[Tuple[int, int]] = None
    now = 0  # the Reception process's local clock, persistent across iterations
    for k in range(iterations):
        at = k + pad
        for i, exchange_row, schedule, ready_arcs in bound_inputs:
            # Reception: wait until the abstracted consumer is ready
            # (peek_delayed over the ready node's delayed arcs).
            ready = neg
            for source_row, delay, weights in ready_arcs:
                value = source_row[at - delay]
                if value > eps:
                    candidate = value + weights[k]
                    if candidate > ready:
                        ready = candidate
            if ready > now:
                now = ready
            # Stimulus driver: resumes after its previous exchange, then
            # waits for the scheduled offer time; u(k) is the later one.
            scheduled = schedule[k]
            previous = prev[i]
            arrival = previous if previous > scheduled else scheduled
            offer_lists[i].append(arrival)
            # Rendezvous: the exchange completes when both sides arrived.
            if arrival > now:
                now = arrival
            exchange_row.append(now)
            prev[i] = now
        # ComputeInstant(): the (max, +) sweep in topological order.
        if can_settle and settled > pad:
            for node_row, zero_arcs, weighted, single, pair in plan:
                if single is not None:
                    source_row, delay, weights = single
                    node_row.append(source_row[at - delay] + weights[k])
                    continue
                if pair is not None:
                    row_a, delay_a, row_b, delay_b = pair
                    value = row_a[at - delay_a]
                    best = row_b[at - delay_b]
                    node_row.append(value if value > best else best)
                    continue
                best = neg
                for source_row, delay in zero_arcs:
                    value = source_row[at - delay]
                    if value > best:
                        best = value
                if weighted:  # even an empty loop builds an iterator
                    for source_row, delay, weights in weighted:
                        candidate = source_row[at - delay] + weights[k]
                        if candidate > best:
                            best = candidate
                node_row.append(best)
        else:
            settled += 1
            for node_row, zero_arcs, weighted, _, _ in plan:
                best = neg
                for source_row, delay in zero_arcs:
                    value = source_row[at - delay]
                    if value > best and value > eps:
                        best = value
                for source_row, delay, weights in weighted:
                    value = source_row[at - delay]
                    if value > eps:
                        candidate = value + weights[k]
                        if candidate > best:
                            best = candidate
                node_row.append(best)
                if best <= eps:
                    settled = 0
        for offer_row, emitted in bound_outputs:
            offered = offer_row[at]
            if offered <= eps or (emitted and offered < emitted[-1]):
                return None
            # Always-ready observer: the exchange happens at the offer.
            emitted.append(offered)
        if periods is None or not k:
            continue
        # -- steady mode: certify the periodic regime ----------------------
        drift = _uniform_drift(hist, at)
        if drift is None or drift != streak_drift:
            streak_drift, streak = drift, 0
        if drift is None:
            continue
        streak += 1
        if streak <= pad or drift < 0 or k + 1 >= iterations:
            continue
        if not all(
            drift == period or (drift > period and row[at] > timetable[k] + period)
            for (_, row, timetable, _), period in zip(bound_inputs, periods)
        ):
            continue
        tail = (iterations - k - 1, drift)
        break
    if tail is not None:
        extra, drift = tail
        # The steady mode counts the iterations it swept itself; the caller
        # counts those of full sweeps.
        telemetry.count("dse.compile.replay_steps", iterations - extra)
        for i, period in enumerate(periods):
            # A schedule locked by its period shifts with everything else.
            # On a dominance-locked input every future arrival is the
            # previous exchange; the transition iteration may leave the last
            # replayed arrival on the schedule branch, so anchor on the
            # exchange instant, not on the last offer.
            anchor = offer_lists[i][-1] + drift if drift == period else prev[i]
            offer_lists[i].extend(_arithmetic_tail(anchor, drift, extra))
        for emitted in out_lists:
            emitted.extend(_arithmetic_tail(emitted[-1] + drift, drift, extra))
        telemetry.count("dse.steady.extrapolations")
        telemetry.count("dse.steady.extrapolated_steps", extra)
        telemetry.gauge("dse.steady.cycle_ps", drift)
    elif periods is not None:
        # The horizon ended before the regime settled (or it never does).
        telemetry.count("dse.compile.replay_steps", iterations)
        telemetry.count("dse.steady.exhausted")
    offers = dict(zip(program.inputs, offer_lists))
    actual = dict(zip(program.outputs, out_lists))
    digests = {relation: _output_digest(instants, tail) for relation, instants in actual.items()}
    spans: Dict[str, Span] = {}
    written_out = False
    slot_ptr, slot_nodes = program.slot_ptr, program.slot_nodes
    for resource, a, b in zip(program.resources, slot_ptr, slot_ptr[1:]):
        pairs = zip(slot_nodes[a:b:2], slot_nodes[a + 1 : b : 2])
        rows = [(hist[start][pad:], hist[end][pad:]) for start, end in pairs]
        span = _interleaved_span(rows, tail)  # ε is the int sentinel here, not None
        if span is None or span[1] <= eps:
            if tail is not None:
                # Write the certified tail out on the int rows and merge.
                written_out = True
                rows = [
                    (starts + _tail_of(starts, tail), ends + _tail_of(ends, tail))
                    for starts, ends in rows
                ]
            span = _merged_rows(rows)
        if span is not None:
            spans[resource] = span
    if written_out:
        telemetry.count("dse.steady.tail_materialized")
    return offers, actual, spans, digests


def _uniform_drift(hist: Sequence[Sequence[int]], at: int) -> Optional[int]:
    """The one drift every history row took from entry ``at - 1`` to ``at``, or ``None``.

    ``None`` also while any of those entries is ε: the steady certificate
    needs the whole state vector to shift uniformly.
    """
    eps = EPSILON_THRESHOLD
    drift: Optional[int] = None
    for row in hist:
        new, old = row[at], row[at - 1]
        if new <= eps or old <= eps:
            return None
        if drift is None:
            drift = new - old
        elif new - old != drift:
            return None
    return drift


def _output_digest(instants: List[int], tail: Optional[Tuple[int, int]]) -> Optional[str]:
    """The digest of one output's instants, ``None`` when one leaves int64.

    With numpy, a certified ``(extra, cycle)`` tail is packed from its
    closed form instead of from the written-out list.  Output instants never
    decrease, so a tail that starts at or above 0 and ends within int64
    bounds the whole row.
    """
    extra, cycle = tail or (0, 0)
    head = len(instants) - extra
    if not (extra and numpy_available() and instants[head] >= 0 and instants[-1] < 1 << 63):
        return int64_digest(instants)
    import numpy as np

    steps = np.arange(extra, dtype=np.int64) * cycle + instants[head]
    return packed_digest(pack_instants(instants[:head]), steps.astype("<i8", copy=False).tobytes())


def _arithmetic_tail(start: int, delta_ps: int, count: int) -> Sequence[int]:
    """``count`` values ``start, start + delta_ps, ...`` as a C-speed sequence."""
    if delta_ps:
        return range(start, start + delta_ps * count, delta_ps)
    return [start] * count


def _tail_of(row: List[int], tail: Tuple[int, int]) -> List[int]:
    """The ``(extra, cycle)`` continuation of ``row``: its last value plus ``j * cycle``."""
    extra, cycle = tail
    return list(_arithmetic_tail(row[-1] + cycle, cycle, extra))


def _interleaved_span(
    slots: Sequence[Tuple[Sequence[int], Sequence[int]]],
    tail: Optional[Tuple[int, int]] = None,
) -> Optional[Span]:
    """``(busy, lo, hi)`` of one resource without sorting its intervals, or ``None``.

    ``slots`` holds each execute slot's start and end histories, of equal
    lengths.  The slots are ordered by their first interval and their
    instants interleaved iteration by iteration -- ``s1(0), e1(0), s2(0),
    e2(0), ..., s1(1), ...`` -- into one sequence.  If it never decreases,
    every interval has a non-negative length and starts no earlier than the
    previous one ended, so the intervals are disjoint (touching at most):
    their union is exactly ``sum(ends) - sum(starts)``, ``lo`` is the first
    instant and ``hi`` the last.  No slot, no iteration, or any decrease (an
    overlap, or an order that changes between iterations) returns ``None``
    for the caller to merge instead.  Rows holding the int ε sentinel pass
    through: a sequence that never decreases holds no ε exactly when ``lo``
    is above :data:`EPSILON_THRESHOLD`, which the caller checks.

    A steady ``tail`` ``(extra, c)`` -- ``extra`` more iterations, each the
    last replayed iteration ``K-1`` shifted by one more cycle ``c >= 0`` --
    adds ``extra`` times the busy time of iteration ``K-1`` and moves ``hi``
    by ``extra * c``.  The tail stays disjoint: inside tail iteration
    ``K+j`` the sequence is that of ``K-1`` plus ``(j+1) * c``, so it never
    decreases.  Across iterations, the certificate guarantees ``K >= 2``
    and ``x(K-1) = x(K-2) + c`` for every node, and the checked prefix
    gives ``last_end(K-2) <= first_start(K-1)``; adding ``c`` to both sides
    gives ``last_end(K-1) <= first_start(K)``, and every later boundary is
    that one shifted by a multiple of ``c``.  ``lo`` stays the prefix's,
    because no tail instant is below its value at ``K-1``.
    """
    if not slots or not slots[0][0]:
        return None
    order = sorted(slots, key=lambda slot: (slot[0][0], slot[1][0]))
    stride = 2 * len(order)
    sequence: List[int] = [0] * (stride * len(order[0][0]))
    for offset, (starts, ends) in enumerate(order):
        sequence[2 * offset :: stride] = starts
        sequence[2 * offset + 1 :: stride] = ends
    # Never decreasing == already sorted; timsort confirms that in one pass.
    if sequence != sorted(sequence):
        return None
    busy = sum(sum(ends) - sum(starts) for starts, ends in order)
    hi = sequence[-1]
    if tail is not None:
        extra, cycle = tail
        busy += extra * sum(ends[-1] - starts[-1] for starts, ends in order)
        hi += extra * cycle
    return busy, sequence[0], hi


def _merged_span(
    slots: Sequence[Tuple[Sequence[Optional[int]], Sequence[Optional[int]]]],
) -> Optional[Span]:
    """``(busy, lo, hi)`` of one resource by sort-and-merge, or ``None`` if idle.

    Iterations where either instant of a slot is ε contribute no interval.
    """
    intervals = [
        (start_ps, end_ps)
        for starts, ends in slots
        for start_ps, end_ps in zip(starts, ends)
        if start_ps is not None and end_ps is not None
    ]
    if not intervals:
        return None
    lo = min(start_ps for start_ps, _ in intervals)
    hi = max(end_ps for _, end_ps in intervals)
    return _merged_busy(intervals), lo, hi


def _merged_busy(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` (mirror of ActivityTrace.utilization)."""
    if not intervals:
        return 0
    intervals = sorted(intervals)
    merged_total = 0
    current_start, current_end = intervals[0]
    for interval_start, interval_end in intervals[1:]:
        if interval_start <= current_end:
            if interval_end > current_end:
                current_end = interval_end
        else:
            merged_total += current_end - current_start
            current_start, current_end = interval_start, interval_end
    merged_total += current_end - current_start
    return merged_total


def _merged_rows(rows: Sequence[Tuple[Sequence[int], Sequence[int]]]) -> Optional[Span]:
    """:func:`_merged_span` of int history rows, values at or below ε as ``None``."""
    telemetry.count("dse.engine.span_merges")
    eps = EPSILON_THRESHOLD
    return _merged_span(
        [
            ([v if v > eps else None for v in starts], [v if v > eps else None for v in ends])
            for starts, ends in rows
        ]
    )


def replay_batch(
    programs: Sequence[ArrayProgram],
) -> Tuple[List[Optional[ProgramResult]], List[str]]:
    """Replay a batch of lowered programs; returns ``(results, backends)``.

    Both lists align with ``programs``.  A result is ``None`` exactly when
    the reference replay would fall back to the event-driven harness for
    that candidate; ``backends[p]`` names the path that swept program ``p``:
    ``"numpy"`` for the compiled kernel, ``"python"`` for
    :func:`replay_program`.  The kernel sweeps and scores the full-horizon
    programs of each stream table with one call.  :func:`replay_program`
    sweeps steady-mode programs (their certified prefixes are a few dozen
    iterations, and the kernel only sweeps full horizons), candidates the
    kernel leaves with status 2, and every program when numpy or the kernel
    is unavailable.
    """
    programs = list(programs)
    telemetry.count("dse.engine.batches")
    telemetry.gauge("dse.engine.batch_size", len(programs))
    full = [p for p, program in enumerate(programs) if program.periods is None]
    kernel = _sweep_kernel() if full and numpy_available() else None
    if kernel is None and full:
        telemetry.count("dse.engine.kernel_unavailable", len(full))
    results: List[Optional[ProgramResult]] = [None] * len(programs)
    backends = ["python"] * len(programs)
    groups: Dict[int, List[int]] = {}
    for p, program in enumerate(programs):
        if kernel is None or program.periods is not None:
            results[p] = replay_program(program)
        else:
            groups.setdefault(id(program.streams), []).append(p)
    for positions in groups.values():
        swept = _kernel_sweep(kernel, [programs[p] for p in positions])
        for position, (result, backend) in zip(positions, swept):
            results[position], backends[position] = result, backend
    for backend in BACKENDS:
        if backend in backends:
            telemetry.count(f"dse.engine.backend.{backend}", backends.count(backend))
    return results, backends


#: The int tables of an :class:`ArrayProgram` the kernel reads, in the order of
#: its arguments and of a candidate's lengths (the C ``enum`` after ``NODES``).
_KERNEL_TABLES = (
    "plan_nodes",
    "arc_ptr",
    "arcs",
    "exchanges",
    "schedules",
    "offer_nodes",
    "slot_ptr",
    "slot_nodes",
)


def _kernel_sweep(
    kernel: Any, programs: List[ArrayProgram]
) -> List[Tuple[Optional[ProgramResult], str]]:
    """Sweep and score programs sharing a stream table with one kernel call.

    The batch is the programs' own tables concatenated, plus one row of
    table lengths per candidate (the kernel walks its offsets from them) and
    the stream table's ``[K, streams]`` matrix.  Each candidate gets its
    own iteration-major ``[K, nodes]`` history block, which the kernel
    ε-fills row by row, and contiguous offer and output rows.  The kernel
    leaves a status per candidate: 0 swept, 1 an output went ε or decreased
    (``None``), 2 a sum left int64, or an index, delay or column was out of
    range or unusable -- the reference re-runs it.  It scores every
    resource's busy span iteration by iteration as it sweeps; a resource it
    flags is merged on Python integers.  Returns each program's result with
    the path that swept it (``"python"`` for a status-2 re-run).
    """
    import numpy as np

    streams = programs[0].streams
    iterations = streams.horizon
    weights, usable = streams.matrix()
    tables: List[List[int]] = [[] for _ in _KERNEL_TABLES]
    own_tables = operator.attrgetter(*_KERNEL_TABLES)
    head: List[int] = []  # per candidate: its node count and the length of each table
    status: List[int] = []
    places = []  # per candidate: (history offset, first input, first output, first resource)
    rows = inputs = outputs = resources = slots = widest = 0
    for program in programs:
        places.append((rows, inputs, outputs, resources))
        own = own_tables(program)
        nodes = program.node_count
        head += (nodes, *map(len, own))
        for table, values in zip(tables, own):
            table += values
        status.append(0 if _in_bounds(program) else 2)
        # The kernel walks its offsets with the same arithmetic.
        rows += iterations * max(nodes, 0)
        widest = max(widest, nodes)
        inputs += len(program.exchanges)
        outputs += len(program.offer_nodes)
        resources += max(len(program.slot_ptr) - 1, 0)
        slots += len(program.slot_nodes) // 2

    int64 = np.int64
    hist = np.empty(rows, dtype=int64)
    offers = np.empty((inputs, iterations), dtype=int64)
    output = np.empty((outputs, iterations), dtype=int64)
    spans = np.empty((resources, 4), dtype=int64)  # (flag, busy, lo, hi)
    states = np.array(status, dtype=int64)
    buffers = [np.array(head, dtype=int64)]
    buffers += [np.array(table, dtype=int64) for table in tables]
    buffers += [weights, usable, hist, offers, output, spans]
    buffers += [np.empty(slots, dtype=int64), np.empty(widest, dtype=int64), states]  # scratch
    kernel(len(programs), iterations, len(usable), *[buffer.ctypes.data for buffer in buffers])
    telemetry.count("dse.engine.kernel_swept", len(programs))

    statuses = states.tolist()
    span_rows = spans.tolist()
    output_values = output.tolist()
    output_bytes = output.astype("<i8", copy=False)  # the digests' byte order
    results: List[Tuple[Optional[ProgramResult], str]] = [(None, "numpy")] * len(programs)
    for c, code in enumerate(statuses):
        program = programs[c]
        if code == 2:
            telemetry.count("dse.engine.kernel_overflow_fallbacks")
            results[c] = (replay_program(program), "python")
            continue
        if code:
            continue
        base, first_input, first_output, first_resource = places[c]
        resource_spans: Dict[str, Span] = {}
        for r, resource in enumerate(program.resources):
            flag, busy, lo, hi = span_rows[first_resource + r]
            if not flag:
                resource_spans[resource] = (busy, lo, hi)
                continue
            block = hist[base : base + iterations * program.node_count]
            block = block.reshape(iterations, program.node_count)
            pairs = program.slot_nodes[program.slot_ptr[r] : program.slot_ptr[r + 1]]
            merged = _merged_rows(
                [
                    (block[:, start].tolist(), block[:, end].tolist())
                    for start, end in zip(pairs[::2], pairs[1::2])
                ]
            )
            if merged is not None:
                resource_spans[resource] = merged
        outs = range(first_output, first_output + len(program.outputs))
        digests = (packed_digest(output_bytes[o].tobytes()) for o in outs)
        results[c] = (
            (
                dict(zip(program.inputs, offers[first_input : first_input + len(program.inputs)])),
                dict(zip(program.outputs, (output_values[o] for o in outs))),
                resource_spans,
                dict(zip(program.outputs, digests)),
            ),
            "numpy",
        )
    return results


def _in_bounds(program: ArrayProgram) -> bool:
    """Whether the program's relation and resource names match its int tables.

    The kernel checks every index, delay, column and table length itself and
    leaves a candidate that fails with status 2.
    """
    return (
        len(program.inputs) == len(program.exchanges)
        and len(program.outputs) == len(program.offer_nodes)
        and len(program.resources) + 1 == len(program.slot_ptr)
    )


#: The compiled kernel over :func:`_kernel_sweep`'s tables:
#: :func:`replay_program`'s masked sweep transcribed line for line, with
#: the span scoring of :func:`_interleaved_span` fused into it.  The sha256
#: of the source keys the build cache.
_KERNEL_SOURCE = r"""
#include <stdint.h>

#define NEG (-(INT64_C(1) << 62))
#define EPS (-(INT64_C(1) << 61))

/* The lengths of one candidate's tables: head[HEAD * c + ...]. */
enum { NODES, PLAN, ARC_PTR, ARCS, EXCHANGES, SCHEDULES, OUTPUTS, SLOT_PTR, SLOTS, HEAD };

/* Whether the kernel can sweep a candidate without reading out of range.
   Every pointer table must be well formed, every index in range, every delay
   non-negative and every column usable.  Each node is written at most once
   per iteration -- input i's exchange at step i, plan node p at step
   inputs + p -- and an arc of delay 0 may only read a node written at an
   earlier step, or never (its row stays epsilon).  step is scratch. */
static int well_formed(const int64_t *len, int64_t S, const int64_t *plan,
                       const int64_t *ptr, const int64_t *arcs, const int64_t *exchange,
                       const int64_t *schedule, const int64_t *out_node, const int64_t *slot_ptr,
                       const int64_t *slot, const int64_t *usable, int64_t *step)
{
    int64_t N = len[NODES], P = len[PLAN], I = len[EXCHANGES], R = len[SLOT_PTR] - 1;
    if (N < 0 || P < 0 || I < 0 || R < 0 || len[ARC_PTR] != P + I + 1 ||
        len[ARCS] % 3 || len[SCHEDULES] != I || len[SLOTS] % 2)
        return 0;
    if (ptr[0] != 0 || ptr[P + I] != len[ARCS] || slot_ptr[0] != 0 || slot_ptr[R] != len[SLOTS])
        return 0;
    for (int64_t g = 0; g < P + I; g++)
        if (ptr[g + 1] < ptr[g] || (ptr[g + 1] - ptr[g]) % 3)
            return 0;
    for (int64_t r = 0; r < R; r++)
        if (slot_ptr[r + 1] < slot_ptr[r] || (slot_ptr[r + 1] - slot_ptr[r]) % 2)
            return 0;
    for (int64_t n = 0; n < N; n++)
        step[n] = -1;
    for (int64_t i = 0; i < I; i++) {
        if (exchange[i] < 0 || exchange[i] >= N || step[exchange[i]] >= 0 ||
            schedule[i] < 0 || schedule[i] >= S || !usable[schedule[i]])
            return 0;
        step[exchange[i]] = i;
    }
    for (int64_t p = 0; p < P; p++) {
        if (plan[p] < 0 || plan[p] >= N || step[plan[p]] >= 0)
            return 0;
        step[plan[p]] = I + p;
    }
    for (int64_t g = 0; g < P + I; g++) {
        int64_t at = g < P ? I + g : g - P;
        for (const int64_t *arc = arcs + ptr[g]; arc < arcs + ptr[g + 1]; arc += 3)
            if (arc[0] < 0 || arc[0] >= N || arc[1] < 0 || arc[2] < 0 || arc[2] >= S ||
                !usable[arc[2]] || (arc[1] == 0 && step[arc[0]] >= at))
                return 0;
    }
    for (int64_t o = 0; o < len[OUTPUTS]; o++)
        if (out_node[o] < 0 || out_node[o] >= N)
            return 0;
    for (int64_t s = 0; s < len[SLOTS]; s++)
        if (slot[s] < 0 || slot[s] >= N)
            return 0;
    return 1;
}

/* (max, +) over the arcs [arc, stop): h[k - delay][source] + w[column] for
   every defined (> EPS) source value, NEG when none.  1 on int64 overflow. */
static int best_of(const int64_t *arc, const int64_t *stop, int64_t k, int64_t N,
                   const int64_t *h, const int64_t *w, int64_t *out)
{
    int64_t best = NEG, value, sum;
    for (; arc < stop; arc += 3)
        if (k >= arc[1] && (value = h[(k - arc[1]) * N + arc[0]]) > EPS) {
            if (__builtin_add_overflow(value, w[arc[2]], &sum))
                return 1;
            if (sum > best)
                best = sum;
        }
    *out = best;
    return 0;
}

/* _interleaved_span, one iteration at a time, on the row just swept: the
   resource's slots (n start/end pairs) are ordered stably by their first
   (start, end), like Python's sorted, and their instants must never decrease
   from one to the next, across iterations too.  span = (flag, busy, lo,
   last); a flag of 1 (epsilon, a decrease, an overflow of busy) leaves the
   resource to the caller's merge.  order is the resource's sort scratch. */
static void span_step(int64_t k, const int64_t *row, const int64_t *pair, int64_t n,
                      int64_t *order, int64_t *span)
{
    int64_t length;
    if (k == 0) {
        for (int64_t i = 0, j; i < n; i++) { /* insertion sort: stable */
            int64_t s0 = row[pair[2 * i]], e0 = row[pair[2 * i + 1]];
            for (j = i; j > 0; j--) {
                int64_t t0 = row[pair[2 * order[j - 1]]];
                if (t0 < s0 || (t0 == s0 && row[pair[2 * order[j - 1] + 1]] <= e0))
                    break;
                order[j] = order[j - 1];
            }
            order[j] = i;
        }
        span[2] = row[pair[2 * order[0]]];
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t start = row[pair[2 * order[i]]], end = row[pair[2 * order[i] + 1]];
        /* last starts just above EPS: the first start must be an instant, and
           a sequence that never decreases keeps every later one so. */
        if (start < span[3] || end < start || __builtin_sub_overflow(end, start, &length) ||
            __builtin_add_overflow(span[1], length, &span[1])) {
            span[0] = 1;
            return;
        }
        span[3] = end;
    }
}

/* One candidate over its [K, N] history block h: 0 swept, 1 an output went
   epsilon or decreased, 2 int64 overflow.  Plan node p reads arc group p,
   input i's ready node group P + i; the previous exchange of input i is its
   row one iteration back. */
static int64_t sweep(const int64_t *len, int64_t K, int64_t S, const int64_t *plan,
                     const int64_t *ptr, const int64_t *arcs, const int64_t *exchange,
                     const int64_t *schedule, const int64_t *out_node, const int64_t *slot_ptr,
                     const int64_t *slot, const int64_t *weights, int64_t *h, int64_t *offers,
                     int64_t *outputs, int64_t *spans, int64_t *order)
{
    int64_t N = len[NODES], P = len[PLAN], I = len[EXCHANGES], R = len[SLOT_PTR] - 1;
    int64_t now = 0, value;
    for (int64_t r = 0; r < R; r++) {
        int64_t *span = spans + 4 * r;
        span[0] = K == 0 || slot_ptr[r] == slot_ptr[r + 1];
        span[1] = 0;
        span[3] = EPS + 1;
    }
    for (int64_t k = 0; k < K; k++) {
        int64_t *row = h + k * N;
        const int64_t *w = weights + k * S;
        for (int64_t n = 0; n < N; n++)
            row[n] = NEG;
        for (int64_t i = 0; i < I; i++) {
            /* Reception: wait until the abstracted consumer is ready. */
            if (best_of(arcs + ptr[P + i], arcs + ptr[P + i + 1], k, N, h, w, &value))
                return 2;
            if (value > now)
                now = value;
            /* Stimulus driver: u(k) = max(previous exchange, offer time). */
            int64_t previous = k ? row[exchange[i] - N] : NEG;
            int64_t arrival = previous > w[schedule[i]] ? previous : w[schedule[i]];
            offers[i * K + k] = arrival;
            /* Rendezvous: the exchange completes when both sides arrived. */
            if (arrival > now)
                now = arrival;
            row[exchange[i]] = now;
        }
        /* ComputeInstant(): the (max, +) sweep in topological order. */
        for (int64_t p = 0; p < P; p++)
            if (best_of(arcs + ptr[p], arcs + ptr[p + 1], k, N, h, w, row + plan[p]))
                return 2;
        for (int64_t o = 0; o < len[OUTPUTS]; o++) {
            int64_t *out = outputs + o * K;
            out[k] = row[out_node[o]];
            if (out[k] <= EPS || (k > 0 && out[k] < out[k - 1]))
                return 1;
        }
        for (int64_t r = 0; r < R; r++)
            if (!spans[4 * r])
                span_step(k, row, slot + slot_ptr[r], (slot_ptr[r + 1] - slot_ptr[r]) / 2,
                          order + slot_ptr[r] / 2, spans + 4 * r);
    }
    return 0;
}

/* Sweeps and scores n candidates over one [K, S] weight matrix.  Each
   candidate's tables follow the previous one's in every table, with the
   lengths in head; its history block, offer rows, output rows, spans and
   sort scratch likewise.  Candidates entering with a non-zero status, or
   whose tables are not well formed (status 2), are skipped. */
void repro_sweep(int64_t n, int64_t K, int64_t S, const int64_t *head, const int64_t *plan,
                 const int64_t *ptr, const int64_t *arcs, const int64_t *exchange,
                 const int64_t *schedule, const int64_t *out_node, const int64_t *slot_ptr,
                 const int64_t *slot, const int64_t *weights, const int64_t *usable,
                 int64_t *hist, int64_t *offers, int64_t *outputs, int64_t *spans,
                 int64_t *order, int64_t *step, int64_t *status)
{
    for (int64_t c = 0; c < n; c++) {
        const int64_t *len = head + HEAD * c;
        if (!status[c] && !well_formed(len, S, plan, ptr, arcs, exchange, schedule, out_node,
                                       slot_ptr, slot, usable, step))
            status[c] = 2;
        if (!status[c])
            status[c] = sweep(len, K, S, plan, ptr, arcs, exchange, schedule, out_node, slot_ptr,
                              slot, weights, hist, offers, outputs, spans, order);
        hist += K * (len[NODES] > 0 ? len[NODES] : 0);
        offers += K * len[EXCHANGES];
        outputs += K * len[OUTPUTS];
        spans += 4 * (len[SLOT_PTR] > 1 ? len[SLOT_PTR] - 1 : 0);
        order += len[SLOTS] / 2;
        plan += len[PLAN];
        ptr += len[ARC_PTR];
        arcs += len[ARCS];
        exchange += len[EXCHANGES];
        schedule += len[SCHEDULES];
        out_node += len[OUTPUTS];
        slot_ptr += len[SLOT_PTR];
        slot += len[SLOTS];
    }
}
"""

_LOG = logging.getLogger("repro.dse.engine")
_KERNEL_LOCK = threading.Lock()
#: ``None`` until the first numpy sweep; then the kernel's entry point, or
#: ``False`` when it could not be built or loaded in this process.
_kernel: Any = None


def _sweep_kernel() -> Any:
    """The compiled kernel, built and loaded on first use; ``None`` if unavailable."""
    global _kernel
    with _KERNEL_LOCK:
        if _kernel is None:
            try:
                _kernel = _load_kernel()
            except (OSError, AttributeError, subprocess.SubprocessError) as error:
                _kernel = False
                _LOG.warning(
                    "compiled sweep kernel unavailable (%s); every program "
                    "is swept by the pure-Python reference",
                    error,
                )
        return _kernel or None


def _load_kernel() -> Any:
    """Load the cached kernel, (re)building it once if missing or unloadable."""
    import ctypes

    key = f"{sysconfig.get_platform()}\n{_KERNEL_SOURCE}".encode()
    path = os.path.join(_cache_dir(), f"sweep-{hashlib.sha256(key).hexdigest()[:20]}.so")
    if not os.path.exists(path):
        _build_kernel(path)
    try:
        kernel = ctypes.CDLL(path).repro_sweep
    except (OSError, AttributeError):  # truncated, foreign or stale object
        _build_kernel(path)
        kernel = ctypes.CDLL(path).repro_sweep
    kernel.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 18
    kernel.restype = None
    return kernel


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``) if private, else a mkdtemp."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
        owner = getattr(os, "getuid", lambda: info.st_uid)()
        if info.st_uid == owner and not info.st_mode & 0o022:
            return path
    except OSError:
        pass
    path = tempfile.mkdtemp(prefix="repro-kernel-")
    atexit.register(shutil.rmtree, path, True)
    return path


def _compiler_command() -> List[str]:
    """Python's own C compiler (``sysconfig`` ``CC``), else ``cc``."""
    command = shlex.split(sysconfig.get_config_var("CC") or "")
    return command if command and shutil.which(command[0]) else ["cc"]


def _build_kernel(path: str) -> None:
    """Compile the kernel to a temp file beside ``path``, then rename it in place."""
    handle, target = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(handle)
    try:
        command = _compiler_command() + ["-O2", "-shared", "-fPIC", "-o", target, "-x", "c", "-"]
        subprocess.run(
            command, input=_KERNEL_SOURCE, text=True, check=True, capture_output=True, timeout=300
        )
        os.replace(target, path)
    finally:
        if os.path.exists(target):
            os.unlink(target)
