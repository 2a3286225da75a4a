"""Array-lowered replay: flat int64 tables behind ``CompiledProblem.evaluate_batch``.

A design problem's allocation-independent TDG template is lowered once
(:func:`lower_template`) into a :class:`TemplateProgram`: a node index
vocabulary, every allocation-independent arc with its constant stream or
the execute slot whose duration table it reads, the stimulus offer
schedules as plain int lists, and the execute slots' node indices.
:func:`lower_spec` writes what one candidate's mapping decides over it
-- its service-order and server-free arcs, the duration table bound to
each slot and each slot's resource -- orders and checks the patched
tables, and turns them into an :class:`ArrayProgram`: per-node
predecessor arc lists over per-iteration duration streams, and per
resource the rows of its execute slots.  Replaying the Reception/Emission
protocol is then a tight loop over list indices -- and, when ``numpy``
imports and the kernel loads, one call of a compiled C transcription of
that loop over the whole batch in int64 numpy buffers, followed by a
second call that scores every resource's busy span in the same buffers.
Every candidate the compiled path scores goes through here; the protocol
is written twice, in :func:`replay_program` and in the C kernel.

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

This module also owns :class:`_TabulatedWeight` and :class:`_TokenTable`
(shared per-iteration duration/token streams) and the span routines
(:func:`_interleaved_span`, :func:`_merged_span`, :func:`_merged_busy`).
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import logging
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
    "TemplateProgram",
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


#: One lowered dependency: (source node index, delay, per-iteration weight
#: stream).  The stream is always a materialised int list of length >= the
#: program horizon, so the replay loop indexes instead of calling.
Arc = Tuple[int, int, Sequence[int]]


class ArrayProgram(NamedTuple):
    """One candidate's model lowered onto flat integer tables.

    Everything the replay needs, with every name resolved to an index and
    every weight resolved to a per-iteration int stream:

    * ``plan_nodes[p]`` / ``plan_arcs[p]`` -- the computed (non-input) nodes
      in this candidate's topological order, each with its predecessor arcs;
    * ``inputs`` -- per boundary input, in protocol order: the relation, the
      exchange node's index, the stimulus offer schedule (ps per iteration)
      and the *delayed* arcs of the ready node (the ``peek_delayed`` set);
    * ``outputs`` -- per boundary output: the relation and offer node index;
    * ``slots`` -- per resource, in template execute-slot order: its name
      and the (start node index, end node index) of each execute slot it
      serves, from which the replay scores the resource's busy span;
    * ``periods`` -- per input, the constant offer period of its stimulus
      when the program is to be replayed in steady mode, else ``None``.
      Steady mode presumes every weight stream constant over the horizon.

    Programs share the template's streams and schedules read-only, so the
    programs of a whole batch coexist.
    """

    iterations: int
    node_count: int
    plan_nodes: List[int]
    plan_arcs: List[Tuple[Arc, ...]]
    inputs: List[Tuple[str, int, List[int], Tuple[Arc, ...]]]
    outputs: List[Tuple[str, int]]
    slots: List[Tuple[str, List[Tuple[int, int]]]]
    periods: Optional[Tuple[int, ...]] = None


#: One resource's (busy, lo, hi): the union length of its execute intervals
#: and the earliest start and latest end among them, in picoseconds.
Span = Tuple[int, int, int]

#: replay result: (offer instants per input relation, output instants per
#: output relation, span per resource with at least one interval, and per
#: output relation the :func:`~repro.campaign.results.instants_digest` of
#: its instants -- ``None`` when one leaves int64).
ProgramResult = Tuple[
    Dict[str, List[int]], Dict[str, List[int]], Dict[str, Span], Dict[str, Optional[str]]
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


class TemplateProgram(NamedTuple):
    """A problem's allocation-independent TDG template, lowered once onto index tables.

    Node ``i`` is the template's ``i``-th node (the index order of every
    graph specialised from it).  Every template arc is one of two kinds:

    * ``arcs_into[i]`` -- the constant-weight arcs into node ``i``, as
      :data:`Arc` triples over materialised constant streams;
    * ``slot_arcs_into[i]`` -- the weight arcs of tabulated execute slots
      into node ``i``, as ``(source, delay, slot key)``: the duration stream
      they read is the one the candidate's mapping binds to that slot.

    ``tabulated`` lists those slot keys in template arc order,
    ``successors[i]`` the targets of node ``i``'s zero-delay template arcs
    and ``unfed`` the computed nodes without any template arc.  Per boundary
    input, ``inputs`` holds the relation, the exchange node, the stimulus
    offer schedule (``None`` without a stimulus), the ready node and the
    stimulus offer period (``None`` when aperiodic).  ``outputs`` holds
    each boundary output's relation and offer node, ``slots`` each execute
    slot's (start, end) nodes in template order, and ``zero`` the
    zero-weight stream every schedule arc reads.
    """

    iterations: int
    names: Tuple[str, ...]
    index: Mapping[str, int]
    computed: Tuple[bool, ...]
    arcs_into: Tuple[Tuple[Arc, ...], ...]
    slot_arcs_into: Tuple[Tuple[Tuple[int, int, Any], ...], ...]
    tabulated: Tuple[Any, ...]
    successors: Tuple[Tuple[int, ...], ...]
    unfed: Tuple[int, ...]
    inputs: Tuple[Tuple[str, int, Optional[List[int]], int, Optional[int]], ...]
    outputs: Tuple[Tuple[str, int], ...]
    slots: Tuple[Tuple[int, int], ...]
    zero: List[int]


def lower_template(template: Any, stimuli: Mapping[str, Stimulus]) -> TemplateProgram:
    """Lower an :class:`~repro.core.spec.EquivalentModelTemplate` onto index tables.

    Runs once per problem.  The horizon is the shortest boundary-input
    stimulus; constant streams and offer schedules are materialised for it
    here and shared by every candidate's program.  A template arc whose
    weight is neither ``None`` nor a :class:`~repro.kernel.simtime.Duration`
    is an execute slot's workload weight (the builder lays no other
    non-constant arc), so it is lowered as a reference to its slot.
    """
    names = tuple(node.name for node in template.nodes)
    index = {name: i for i, name in enumerate(names)}
    stimulus_of = [stimuli.get(boundary.relation) for boundary in template.boundary_inputs]
    iterations = min((len(s) for s in stimulus_of if s is not None), default=0)
    constants: Dict[int, List[int]] = {}
    arcs_into: List[List[Arc]] = [[] for _ in names]
    slot_arcs_into: List[List[Tuple[int, int, Any]]] = [[] for _ in names]
    successors: List[List[int]] = [[] for _ in names]
    tabulated: List[Any] = []
    for arc in template.arcs:
        source, target = index[arc.source], index[arc.target]
        if arc.delay == 0:
            successors[source].append(target)
        if arc.weight is None or isinstance(arc.weight, Duration):
            value = 0 if arc.weight is None else arc.weight.picoseconds
            stream = constants.setdefault(value, [value] * iterations)
            arcs_into[target].append((source, arc.delay, stream))
        else:
            slot_arcs_into[target].append((source, arc.delay, arc.slot))
            tabulated.append(arc.slot)
    computed = tuple(node.kind is not NodeKind.INPUT for node in template.nodes)
    inputs = []
    for boundary, stimulus in zip(template.boundary_inputs, stimulus_of):
        schedule = period = None
        if stimulus is not None:
            schedule = [stimulus.offer_time(k).picoseconds for k in range(iterations)]
            period = stimulus.offer_period_ps()
        ready = index[boundary.ready_node]
        inputs.append((boundary.relation, index[boundary.exchange_node], schedule, ready, period))
    return TemplateProgram(
        iterations=iterations,
        names=names,
        index=index,
        computed=computed,
        arcs_into=tuple(map(tuple, arcs_into)),
        slot_arcs_into=tuple(map(tuple, slot_arcs_into)),
        tabulated=tuple(tabulated),
        successors=tuple(map(tuple, successors)),
        unfed=tuple(
            i for i in range(len(names)) if computed[i] and not arcs_into[i] + slot_arcs_into[i]
        ),
        inputs=tuple(inputs),
        outputs=tuple((b.relation, index[b.offer_node]) for b in template.boundary_outputs),
        slots=tuple((index[s.start_node], index[s.end_node]) for s in template.execute_slots),
        zero=constants.setdefault(0, [0] * iterations),
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
    iterations, index, zero = program.iterations, program.index, program.zero
    slot_arcs_into = program.slot_arcs_into
    arcs_into = list(program.arcs_into)
    successors = list(program.successors)
    for source, target, delay, _ in schedule_arcs:
        arcs_into[index[target]] += ((index[source], delay, zero),)
        if not delay:
            successors[index[source]] += (index[target],)
    unfed = [node for node in program.unfed if not arcs_into[node]]
    order = zero_delay_order(program.names, successors, unfed)
    missing = sorted(relation for relation, _, offers, _, _ in program.inputs if offers is None)
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

    def arcs_of(node: int) -> Tuple[Arc, ...]:
        arcs = arcs_into[node]
        if slot_arcs_into[node]:
            arcs += tuple(
                (source, delay, tables[slot].stream_ps(iterations))
                for source, delay, slot in slot_arcs_into[node]
            )
        return arcs

    plan_nodes = [node for node in order if program.computed[node]]
    plan_arcs = [arcs_of(node) for node in plan_nodes]
    inputs: List[Tuple[str, int, List[int], Tuple[Arc, ...]]] = []
    for relation, exchange, schedule, ready, _ in program.inputs:
        ready_arcs = arcs_of(ready)
        for source, delay, _ in ready_arcs:
            if delay == 0:
                raise ComputationError(
                    f"peek_delayed({program.names[ready]!r}) requires delayed arcs only, "
                    f"but the arc from {program.names[source]!r} has delay 0"
                )
        inputs.append((relation, exchange, schedule, ready_arcs))
    # Slots group by resource in template order, which breaks ties of the
    # span routines' stable slot sort.
    slots: Dict[str, List[Tuple[int, int]]] = {}
    for resource, pair in zip(resources, program.slots):
        slots.setdefault(resource, []).append(pair)
    return ArrayProgram(
        iterations=iterations,
        node_count=len(program.names),
        plan_nodes=plan_nodes,
        plan_arcs=plan_arcs,
        inputs=inputs,
        outputs=list(program.outputs),
        slots=list(slots.items()),
        periods=tuple(entry[4] for entry in program.inputs) if steady else None,
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
    if any(period is None for *_, period in program.inputs):
        return "aperiodic_stimulus"
    for slot in program.tabulated:
        if tables[slot].constant_stream_ps(program.iterations) is None:
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
    iterations = program.iterations
    neg = NEG_EPSILON
    eps = EPSILON_THRESHOLD
    inputs = program.inputs
    periods = program.periods
    # Every history row starts with `pad` ε entries, so iteration k lives at
    # k + pad and a delayed read k + pad - delay never reaches before the
    # row: iterations before 0 read ε without a bounds check.  A row the
    # sweep writes grows by one entry per iteration, so a certified steady
    # run never allocates the horizon; a row nothing writes stays ε over
    # the whole horizon.
    arc_groups = [*program.plan_arcs, *(ready_arcs for _, _, _, ready_arcs in inputs)]
    pad = max((delay for arcs in arc_groups for _, delay, _ in arcs), default=0)
    written = {*program.plan_nodes, *(exchange_idx for _, exchange_idx, _, _ in inputs)}
    hist: List[List[int]] = [
        [neg] * (pad if row in written else pad + iterations) for row in range(program.node_count)
    ]
    offer_lists: List[List[int]] = [[] for _ in inputs]
    out_lists: List[List[int]] = [[] for _ in program.outputs]
    prev = [neg] * len(inputs)  # previous exchange instants (ε = neg)
    # Each distinct weight stream is classified once: is it all zero over the
    # horizon (the arc is then a plain max over its source) and free of
    # negative weights?  A stream shorter than the horizon stays weighted and
    # fails where it is read.  The steady mode presumes constant streams (its
    # certificate does), so their first weight stands for the horizon.
    kinds: Dict[int, Tuple[bool, bool]] = {}
    for weights in {id(w): w for arcs in program.plan_arcs for _, _, w in arcs}.values():
        sample = weights if periods is None else weights[:1]
        zero = len(weights) >= iterations and not any(sample)
        kinds[id(weights)] = (zero, min(sample, default=0) >= 0)
    # Bind history rows into the tables once, so the hot loop below works
    # on list references instead of re-indexing the vocabulary per visit.
    # Each node's arcs are split into zero-weight (row, delay) pairs and
    # weighted (row, delay, stream) triples; a node with a single arc also
    # carries that arc alone, so the settled sweep computes it without a loop
    # (a zero-weight one only on a full sweep, whose zero streams are all
    # zero over the horizon).
    # A zero-weight arc is dropped when it can never decide its node's max:
    # another arc of the node, with a non-negative stream, reads at the same
    # delay a node that is never below the dropped arc's source -- it takes
    # the max over that source plus a non-negative weight, directly or
    # through other nodes of the same iteration.  above[n] is the bitmask of
    # the sources node n is never below.
    above: Dict[int, int] = {}
    for node_idx, arcs in zip(program.plan_nodes, program.plan_arcs):
        mask = 0
        for src, delay, w in arcs:
            if not delay and kinds[id(w)][1]:
                mask |= 1 << src | above.get(src, 0)
        above[node_idx] = mask
    plan = []
    for node_idx, arcs in zip(program.plan_nodes, program.plan_arcs):
        if len(arcs) > 1:
            covered: Dict[int, int] = {}  # delay -> sources another arc is never below
            for src, delay, w in arcs:
                if kinds[id(w)][1]:
                    covered[delay] = covered.get(delay, 0) | above.get(src, 0)
            arcs = [
                (src, delay, w)
                for src, delay, w in arcs
                if not (kinds[id(w)][0] and covered.get(delay, 0) >> src & 1)
            ]
        zero_arcs = tuple((hist[src], delay) for src, delay, w in arcs if kinds[id(w)][0])
        weighted = tuple((hist[src], delay, w) for src, delay, w in arcs if not kinds[id(w)][0])
        single = None
        if len(arcs) == 1 and (weighted or periods is None):
            src, delay, w = arcs[0]
            single = (hist[src], delay, w)
        plan.append((hist[node_idx], zero_arcs, weighted, single))
    # Iterations in a row in which no plan node was ε.  Once they cover
    # every delay, no read can meet ε again: delayed reads land in that
    # window, and same-iteration reads follow the topological order up from
    # the exchange instants, which are never ε; with no negative weight, no
    # sum falls back to ε either.  From then on the sweep skips the ε test.
    can_settle = all(
        src in written and kinds[id(w)][1] for arcs in program.plan_arcs for src, _, w in arcs
    )
    settled = 0
    bound_inputs = [
        (
            i,
            hist[exchange_idx],
            schedule,
            tuple((hist[src], delay, weights) for src, delay, weights in ready_arcs),
        )
        for i, (_, exchange_idx, schedule, ready_arcs) in enumerate(inputs)
    ]
    bound_outputs = [
        (hist[offer_idx], out_lists[out_i])
        for out_i, (_, offer_idx) in enumerate(program.outputs)
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
            for node_row, zero_arcs, weighted, single in plan:
                if single is not None:
                    source_row, delay, weights = single
                    node_row.append(source_row[at - delay] + weights[k])
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
            for node_row, zero_arcs, weighted, _ in plan:
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
    offers = {relation: offer_lists[i] for i, (relation, _, _, _) in enumerate(inputs)}
    actual = {relation: out_lists[i] for i, (relation, _) in enumerate(program.outputs)}
    digests = {relation: _output_digest(instants, tail) for relation, instants in actual.items()}
    spans: Dict[str, Span] = {}
    written_out = False
    for resource, pairs in program.slots:
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
    :func:`replay_program`.  The kernel sweeps and scores each horizon
    group of full-horizon programs with one call of each entry point.
    :func:`replay_program` sweeps steady-mode programs (their certified
    prefixes are a few dozen iterations, and the kernel only sweeps full
    horizons), candidates whose sums leave int64, and every program when
    numpy or the kernel is unavailable.
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
    for p, program in enumerate(programs):
        if kernel is None or program.periods is not None:
            results[p] = replay_program(program)
    for horizon in {programs[p].iterations for p in full} if kernel else ():
        positions = [p for p in full if programs[p].iterations == horizon]
        try:
            swept = _kernel_sweep(kernel, [programs[p] for p in positions])
        except OverflowError:  # a duration or offer time beyond int64
            telemetry.count("dse.engine.kernel_overflow_fallbacks", len(positions))
            swept = [(replay_program(programs[p]), "python") for p in positions]
        for position, (result, backend) in zip(positions, swept):
            results[position], backends[position] = result, backend
    for backend in BACKENDS:
        if backend in backends:
            telemetry.count(f"dse.engine.backend.{backend}", backends.count(backend))
    return results, backends


def _kernel_sweep(
    kernel: Any, programs: List[ArrayProgram]
) -> List[Tuple[Optional[ProgramResult], str]]:
    """Sweep and score programs sharing a horizon with one call of each kernel.

    Every candidate's nodes get a row block of one ``[nodes, K]`` history
    buffer; plan nodes, arcs, inputs (with their ready arcs), outputs and
    resource slots become CSR tables of global rows, and every distinct
    weight stream or offer schedule (by ``id()``) one row of a
    ``[streams, K]`` matrix.  The sweep leaves a status per candidate: 0
    swept, 1 an output went ε or decreased (``None``), 2 a sum left int64
    (or an index or stream length was out of range) -- the reference re-runs
    it.  The span kernel then scores every resource of each swept candidate
    in place; a resource it flags is merged on Python integers.  Returns
    each program's result with the path that swept it (``"python"`` for a
    status-2 re-run).  Raises :class:`OverflowError` when a stream does not
    fit int64.
    """
    import numpy as np

    iterations = programs[0].iterations
    streams: List[Any] = []
    stream_of: Dict[int, int] = {}
    src, delay, stream, arc_ptr = [], [], [], [0]

    def stream_row(values: Sequence[int]) -> int:
        row = stream_of.get(id(values))
        if row is None:
            row = stream_of[id(values)] = len(streams)
            streams.append(values[:iterations])
        return row

    def add_arcs(arcs: Sequence[Arc], base: int) -> None:
        for source, arc_delay, weights in arcs:
            src.append(base + source)
            delay.append(arc_delay)
            stream.append(stream_row(weights))
        arc_ptr.append(len(src))

    # Per candidate, one arc group per input (its ready arcs), then one per
    # plan node.  A program with an index the kernel could not follow
    # safely stays empty here and is left to the reference.
    bases, rows = [], 0
    plan_ptr, plan_node, in_ptr, in_exchange, in_schedule = [0], [], [0], [], []
    out_ptr, out_node = [0], []
    res_ptr, slot_ptr, slot_start, slot_end = [0], [0], [], []
    status = np.zeros(len(programs), dtype=np.int64)  # the kernel skips status 2
    for c, program in enumerate(programs):
        bases.append(rows)
        fit = _in_bounds(program)
        for _, exchange, schedule, ready_arcs in program.inputs if fit else ():
            in_exchange.append(rows + exchange)
            in_schedule.append(stream_row(schedule))
            add_arcs(ready_arcs, rows)
        for node, arcs in zip(program.plan_nodes, program.plan_arcs) if fit else ():
            plan_node.append(rows + node)
            add_arcs(arcs, rows)
        out_node.extend(rows + offer for _, offer in program.outputs if fit)
        for _, pairs in program.slots if fit else ():
            slot_start.extend(rows + start for start, _ in pairs)
            slot_end.extend(rows + end for _, end in pairs)
            slot_ptr.append(len(slot_start))
        status[c] = 0 if fit else 2
        rows += program.node_count if fit else 0
        plan_ptr.append(len(plan_node))
        in_ptr.append(len(in_exchange))
        out_ptr.append(len(out_node))
        res_ptr.append(len(slot_ptr) - 1)

    hist = np.full((rows, iterations), NEG_EPSILON, dtype=np.int64)
    offers = np.empty((len(in_exchange), iterations), dtype=np.int64)
    tables = (plan_ptr, plan_node, in_ptr, in_exchange, in_schedule, out_ptr, out_node)
    buffers = [np.asarray(t, dtype=np.int64) for t in tables + (arc_ptr, src, delay, stream)]
    buffers += [
        np.array(streams, dtype=np.int64).reshape(len(streams), iterations),  # OverflowError
        hist,
        offers,
        np.full(len(in_exchange), NEG_EPSILON, dtype=np.int64),  # prev exchange: ε
        status,
    ]
    kernel.sweep(len(programs), iterations, *[buffer.ctypes.data for buffer in buffers])
    telemetry.count("dse.engine.kernel_swept", len(programs))
    # Per resource: (0, busy, lo, hi) in closed form, or 1 -> merged below.
    spans = np.empty((len(slot_ptr) - 1, 4), dtype=np.int64)
    tables = [np.asarray(t, dtype=np.int64) for t in (res_ptr, slot_ptr, slot_start, slot_end)]
    order = np.empty(len(slot_start), dtype=np.int64)  # the kernel's sort scratch
    buffers = [status, *tables, hist, order, spans]
    kernel.spans(len(programs), iterations, *[buffer.ctypes.data for buffer in buffers])

    statuses = status.tolist()
    span_rows = spans.tolist()
    output_rows = hist[np.asarray(out_node, dtype=np.intp)]
    output_values = output_rows.tolist()
    output_bytes = output_rows.astype("<i8", copy=False)  # the digests' byte order
    offer_values = offers.tolist()
    results: List[Tuple[Optional[ProgramResult], str]] = [(None, "numpy")] * len(programs)
    for c, code in enumerate(statuses):
        program = programs[c]
        if code == 2:
            telemetry.count("dse.engine.kernel_overflow_fallbacks")
            results[c] = (replay_program(program), "python")
            continue
        if code:
            continue
        resource_spans: Dict[str, Span] = {}
        for (resource, pairs), (flag, busy, lo, hi) in zip(
            program.slots, span_rows[res_ptr[c] : res_ptr[c + 1]]
        ):
            if not flag:
                resource_spans[resource] = (busy, lo, hi)
                continue
            base = bases[c]
            merged = _merged_rows(
                [(hist[base + s].tolist(), hist[base + e].tolist()) for s, e in pairs]
            )
            if merged is not None:
                resource_spans[resource] = merged
        outputs = [(r, out_ptr[c] + o) for o, (r, _) in enumerate(program.outputs)]
        results[c] = (
            (
                {r: offer_values[in_ptr[c] + i] for i, (r, _, _, _) in enumerate(program.inputs)},
                {r: output_values[row] for r, row in outputs},
                resource_spans,
                {r: packed_digest(output_bytes[row].tobytes()) for r, row in outputs},
            ),
            "numpy",
        )
    return results


def _in_bounds(program: ArrayProgram) -> bool:
    """Whether every row index, delay and stream length the kernel would follow is in range."""
    arcs = [arc for arcs in program.plan_arcs for arc in arcs]
    arcs += [arc for entry in program.inputs for arc in entry[3]]
    rows = [source for source, _, _ in arcs] + [entry[1] for entry in program.inputs]
    rows += [*program.plan_nodes, *(node for _, node in program.outputs)]
    rows += [row for _, pairs in program.slots for pair in pairs for row in pair]
    streams = [weights for _, _, weights in arcs] + [entry[2] for entry in program.inputs]
    n, k = program.node_count, program.iterations
    return (
        all(delay >= 0 for _, delay, _ in arcs)
        and all(0 <= row < n for row in rows)
        and all(len(values) >= k for values in streams)
    )


#: The compiled kernels over :func:`_kernel_sweep`'s tables: the sweep,
#: :func:`replay_program`'s masked form transcribed line for line, and the
#: per-resource span scoring of :func:`_interleaved_span`.  The sha256 of the
#: source keys the build cache.
_KERNEL_SOURCE = r"""
#include <stdint.h>

#define NEG (-(INT64_C(1) << 62))
#define EPS (-(INT64_C(1) << 61))

/* (max, +) over arcs [a, stop): hist[src][k - delay] + weights[stream][k] for
   every defined (> EPS) source value, NEG when none.  1 on int64 overflow. */
static int best_of(int64_t a, int64_t stop, int64_t k, int64_t K, const int64_t *src,
                   const int64_t *delay, const int64_t *stream, const int64_t *weights,
                   const int64_t *hist, int64_t *out)
{
    int64_t best = NEG, value, sum;
    for (; a < stop; a++)
        if (k >= delay[a] && (value = hist[src[a] * K + k - delay[a]]) > EPS) {
            if (__builtin_add_overflow(value, weights[stream[a] * K + k], &sum))
                return 1;
            if (sum > best)
                best = sum;
        }
    *out = best;
    return 0;
}

/* status[c]: 0 swept, 1 an output went epsilon or decreased, 2 int64 overflow.
   Candidates entering with a non-zero status are skipped.  Arc groups run per
   candidate, inputs' ready arcs first: input i reads group plan_ptr[c] + i
   and plan node p group in_ptr[c + 1] + p. */
void repro_sweep(int64_t n_candidates, int64_t K, const int64_t *plan_ptr,
                 const int64_t *plan_node, const int64_t *in_ptr, const int64_t *in_exchange,
                 const int64_t *in_schedule, const int64_t *out_ptr, const int64_t *out_node,
                 const int64_t *arc_ptr, const int64_t *src, const int64_t *delay,
                 const int64_t *stream, const int64_t *weights, int64_t *hist,
                 int64_t *offers, int64_t *prev, int64_t *status)
{
    for (int64_t c = 0; c < n_candidates; c++) {
        if (status[c])
            continue;
        int64_t now = 0, ready;
        for (int64_t k = 0; k < K; k++) {
            for (int64_t i = in_ptr[c]; i < in_ptr[c + 1]; i++) {
                /* Reception: wait until the abstracted consumer is ready. */
                int64_t g = plan_ptr[c] + i;
                if (best_of(arc_ptr[g], arc_ptr[g + 1], k, K, src, delay, stream, weights,
                            hist, &ready))
                    goto overflow;
                if (ready > now)
                    now = ready;
                /* Stimulus driver: u(k) = max(previous exchange, offer time). */
                int64_t scheduled = weights[in_schedule[i] * K + k];
                int64_t arrival = prev[i] > scheduled ? prev[i] : scheduled;
                offers[i * K + k] = arrival;
                /* Rendezvous: the exchange completes when both sides arrived. */
                if (arrival > now)
                    now = arrival;
                hist[in_exchange[i] * K + k] = prev[i] = now;
            }
            /* ComputeInstant(): the (max, +) sweep in topological order. */
            for (int64_t p = plan_ptr[c], g = in_ptr[c + 1] + p; p < plan_ptr[c + 1]; p++, g++)
                if (best_of(arc_ptr[g], arc_ptr[g + 1], k, K, src, delay, stream, weights,
                            hist, &hist[plan_node[p] * K + k]))
                    goto overflow;
            for (int64_t o = out_ptr[c]; o < out_ptr[c + 1]; o++) {
                const int64_t *row = hist + out_node[o] * K;
                if (row[k] <= EPS || (k > 0 && row[k] < row[k - 1])) {
                    status[c] = 1;
                    goto next;
                }
            }
        }
        continue;
    overflow:
        status[c] = 2;
    next:;
    }
}

/* _interleaved_span transcribed, per resource r of each candidate whose status is
   0 (resources res_ptr[c] to res_ptr[c + 1], slots slot_ptr[r] to
   slot_ptr[r + 1]).  The slots are ordered stably by their first (start, end),
   like Python's sorted, and their instants interleaved iteration by iteration.
   spans[r] = (0, busy, lo, hi) when that sequence never decreases and starts
   above EPS (so no instant is epsilon), else (1, ...): also for no slot,
   K == 0 and an int64 overflow of busy; the caller then merges.  order is
   scratch for the sorted slots. */
void repro_spans(int64_t n_candidates, int64_t K, const int64_t *status,
                 const int64_t *res_ptr, const int64_t *slot_ptr, const int64_t *slot_start,
                 const int64_t *slot_end, const int64_t *hist, int64_t *order, int64_t *spans)
{
    for (int64_t c = 0; c < n_candidates; c++) {
        if (status[c])
            continue;
        for (int64_t r = res_ptr[c]; r < res_ptr[c + 1]; r++) {
            int64_t a = slot_ptr[r], n = slot_ptr[r + 1] - a, *ord = order + a;
            int64_t *out = spans + 4 * r;
            out[0] = 1;
            if (n == 0 || K == 0)
                continue;
            for (int64_t i = 0, j; i < n; i++) { /* insertion sort: stable */
                int64_t s0 = hist[slot_start[a + i] * K], e0 = hist[slot_end[a + i] * K];
                for (j = i; j > 0; j--) {
                    int64_t t0 = hist[slot_start[ord[j - 1]] * K];
                    if (t0 < s0 || (t0 == s0 && hist[slot_end[ord[j - 1]] * K] <= e0))
                        break;
                    ord[j] = ord[j - 1];
                }
                ord[j] = a + i;
            }
            /* last starts just above EPS: the first start must be an instant,
               and a sequence that never decreases keeps every later one so. */
            int64_t last = EPS + 1, busy = 0, length;
            for (int64_t k = 0; k < K; k++)
                for (int64_t i = 0; i < n; i++) {
                    int64_t start = hist[slot_start[ord[i]] * K + k];
                    int64_t end = hist[slot_end[ord[i]] * K + k];
                    if (start < last || end < start ||
                        __builtin_sub_overflow(end, start, &length) ||
                        __builtin_add_overflow(busy, length, &busy))
                        goto merge;
                    last = end;
                }
            out[0] = 0;
            out[1] = busy;
            out[2] = hist[slot_start[ord[0]] * K];
            out[3] = last;
        merge:;
        }
    }
}
"""

_LOG = logging.getLogger("repro.dse.engine")
_KERNEL_LOCK = threading.Lock()
#: ``None`` until the first numpy sweep; then the kernel, or ``False`` when it
#: could not be built or loaded in this process.
_kernel: Any = None


class _Kernel(NamedTuple):
    """The two entry points of one loaded kernel object."""

    sweep: Any
    spans: Any


def _sweep_kernel() -> Optional[_Kernel]:
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


def _load_kernel() -> _Kernel:
    """Load the cached kernel, (re)building it once if missing or unloadable."""
    import ctypes

    key = f"{sysconfig.get_platform()}\n{_KERNEL_SOURCE}".encode()
    path = os.path.join(_cache_dir(), f"sweep-{hashlib.sha256(key).hexdigest()[:20]}.so")
    if not os.path.exists(path):
        _build_kernel(path)
    try:
        library = ctypes.CDLL(path)
        kernel = _Kernel(library.repro_sweep, library.repro_spans)
    except (OSError, AttributeError):  # truncated, foreign or stale object
        _build_kernel(path)
        library = ctypes.CDLL(path)
        kernel = _Kernel(library.repro_sweep, library.repro_spans)
    kernel.sweep.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 16
    kernel.spans.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 8
    kernel.sweep.restype = kernel.spans.restype = None
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
