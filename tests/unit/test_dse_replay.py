"""``replay_program`` against the fully masked sweep it was derived from.

The pure-Python reference sweep pads every history row with ε instead of
bounds-checking delayed reads, skips the add on zero-weight arcs, drops a
zero-weight arc another arc of its node provably never falls below, and --
once no plan node has been ε for more than ``max_delay`` iterations in a
row, in a program with no negative weight and no arc from a row nothing
writes -- drops the ε test altogether.  :func:`masked_replay` below is
the previous sweep, which tests every read; on random programs (ε rows,
arc-less nodes, zero, huge and negative weight streams, delays 0-4) both
must return the same result.

The steady mode (a program carrying its inputs' ``periods``) stops at
the certified periodic regime and writes the rest in closed form; on
random programs with constant streams and arithmetic offer schedules it
must return exactly what the full sweep returns, ``None`` included.
Needs no numpy and no C compiler.
"""

import random
from collections import Counter
from typing import List, Optional

import pytest

from repro import telemetry
from repro.campaign.results import int64_digest
from repro.dse import engine
from repro.dse.engine import (
    EPSILON_THRESHOLD,
    NEG_EPSILON,
    ArrayProgram,
    ProgramResult,
    Span,
    _interleaved_span,
    _merged_rows,
    replay_program,
)


def masked_replay(program: ArrayProgram) -> Optional[ProgramResult]:
    """The sweep before padding, zero-arc and settling (kept verbatim, plus
    the output digests of the written-out lists)."""
    iterations = program.iterations
    neg = NEG_EPSILON
    eps = EPSILON_THRESHOLD
    hist: List[List[int]] = [[neg] * iterations for _ in range(program.node_count)]
    inputs = program.inputs
    offer_lists: List[List[int]] = [[] for _ in inputs]
    out_lists: List[List[int]] = [[] for _ in program.outputs]
    prev = [neg] * len(inputs)  # previous exchange instants (ε = neg)
    plan = [
        (
            hist[node_idx],
            tuple((hist[src], delay, weights) for src, delay, weights in arcs),
        )
        for node_idx, arcs in zip(program.plan_nodes, program.plan_arcs)
    ]
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
    now = 0  # the Reception process's local clock, persistent across iterations
    for k in range(iterations):
        for i, exchange_row, schedule, ready_arcs in bound_inputs:
            ready = neg
            for source_row, delay, weights in ready_arcs:
                j = k - delay
                if j >= 0:
                    value = source_row[j]
                    if value > eps:
                        candidate = value + weights[k]
                        if candidate > ready:
                            ready = candidate
            if ready > now:
                now = ready
            scheduled = schedule[k]
            previous = prev[i]
            arrival = previous if previous > scheduled else scheduled
            offer_lists[i].append(arrival)
            if arrival > now:
                now = arrival
            exchange_row[k] = now
            prev[i] = now
        for node_row, arcs in plan:
            best = neg
            for source_row, delay, weights in arcs:
                j = k - delay
                if j >= 0:
                    value = source_row[j]
                    if value > eps:
                        candidate = value + weights[k]
                        if candidate > best:
                            best = candidate
            node_row[k] = best
        for offer_row, emitted in bound_outputs:
            offered = offer_row[k]
            if offered <= eps or (emitted and offered < emitted[-1]):
                return None
            emitted.append(offered)
    offers = {relation: offer_lists[i] for i, (relation, _, _, _) in enumerate(inputs)}
    actual = {relation: out_lists[i] for i, (relation, _) in enumerate(program.outputs)}
    spans = {}
    for resource, pairs in program.slots:
        rows = [(hist[start], hist[end]) for start, end in pairs]
        span: Optional[Span] = _interleaved_span(rows)
        if span is None or span[1] <= EPSILON_THRESHOLD:
            span = _merged_rows(rows)
        if span is not None:
            spans[resource] = span
    return offers, actual, spans, {relation: int64_digest(row) for relation, row in actual.items()}


def random_program(rng: random.Random, iterations: int) -> ArrayProgram:
    """A random lowered program over a weight pool chosen for this draw."""
    pools = {
        "plain": lambda: [rng.randint(0, 400) for _ in range(iterations)],
        "zero": lambda: [0] * iterations,
        "constant": lambda: [rng.randint(1, 60)] * iterations,
        # ε + 2**61 + x is above the ε threshold: an unmasked ε read shows.
        "huge": lambda: [2**61 + rng.randint(1, 9)] * iterations,
        # Beyond int64: an ε read plus this beats every real candidate.
        "giant": lambda: [2**63 + rng.randint(1, 9)] * iterations,
        # An instant plus this lands in the ε range.
        "negative": lambda: [-(2**61) - rng.randint(0, 9)] * iterations,
        # Mostly small, now and then into the ε range: a node that was an
        # instant for many iterations can fall back to ε.
        "dips": lambda: [
            -(2**62) if rng.random() < 0.2 else rng.randint(0, 50) for _ in range(iterations)
        ],
    }
    kinds = ["plain", "zero", "constant"]
    kinds += rng.sample(["huge", "giant", "negative", "dips"], rng.randint(1, 3))
    streams = [pools[rng.choice(kinds)]() for _ in range(5)]
    n_inputs = rng.randint(1, 2)
    never = rng.choice([0, 1])
    n_plan = rng.randint(1, 9)
    vocabulary = list(range(n_inputs + never + n_plan))
    rng.shuffle(vocabulary)
    exchange = vocabulary[:n_inputs]
    unwritten = vocabulary[n_inputs : n_inputs + never]
    plan_nodes = vocabulary[n_inputs + never :]
    plan_arcs = []
    for position, node in enumerate(plan_nodes):
        arcs = []
        for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
            roll = rng.random()
            if roll < 0.35:
                source, delay = rng.choice(exchange), rng.randint(0, 4)
            elif roll < 0.5 and unwritten:
                source, delay = rng.choice(unwritten), rng.randint(0, 4)
            elif roll < 0.75 and position:
                source, delay = rng.choice(plan_nodes[:position]), rng.randint(0, 4)
            else:
                source, delay = rng.choice(plan_nodes), rng.randint(1, 4)
            arcs.append((source, delay, rng.choice(streams)))
        plan_arcs.append(tuple(arcs))
    inputs = []
    for i, exchange_idx in enumerate(exchange):
        schedule = sorted(rng.randint(0, 50 * iterations + 1) for _ in range(iterations))
        ready = tuple(
            (rng.choice(plan_nodes), rng.randint(1, 4), rng.choice(streams))
            for _ in range(rng.randint(0, 1))
        )
        inputs.append((f"in{i}", exchange_idx, schedule, ready))
    outputs = [(f"out{o}", rng.choice(plan_nodes)) for o in range(rng.randint(1, 2))]
    slots = [
        (f"R{r}", [(rng.choice(vocabulary), rng.choice(vocabulary)) for _ in range(2)])
        for r in range(rng.randint(1, 2))
    ]
    return ArrayProgram(
        iterations=iterations,
        node_count=len(vocabulary),
        plan_nodes=plan_nodes,
        plan_arcs=plan_arcs,
        inputs=inputs,
        outputs=outputs,
        slots=slots,
    )


def test_replay_program_equals_the_masked_sweep():
    completed = 0
    for seed in range(1500):
        rng = random.Random(seed)
        program = random_program(rng, rng.choice([0, 1, 3, 8, 20, 45]))
        expected = masked_replay(program)
        assert replay_program(program) == expected, seed
        completed += expected is not None
    # Enough programs run to their horizon for the settled sweep to matter.
    assert completed >= 300, completed


def _two_node_program(arcs_b, arcs_c, node_count=3, output=2, slots=()):
    """Exchange row 0 (offers at 0, 10, 20, ...) and plan nodes 1 (B), 2 (C)."""
    iterations = 12
    return ArrayProgram(
        iterations=iterations,
        node_count=node_count,
        plan_nodes=[1, 2],
        plan_arcs=[tuple(arcs_b), tuple(arcs_c)],
        inputs=[("in", 0, [10 * k for k in range(iterations)], ())],
        outputs=[("out", output)],
        slots=list(slots),
    )


def test_a_negative_weight_keeps_the_eps_test():
    # B = E + dips falls into the ε range at iteration 6, long after every
    # node became an instant.  C = B + 2**61 + 7 must then read B as ε and
    # stay ε itself, which the span of C's execute slot shows.
    dips = [0] * 6 + [-(2**62)] + [0] * 5
    program = _two_node_program(
        [(0, 0, dips)], [(1, 0, [2**61 + 7] * 12)], output=0, slots=[("R", [(2, 2)])]
    )
    result = replay_program(program)
    assert result == masked_replay(program)
    assert result[2]["R"] == (0, 2**61 + 7, 110 + 2**61 + 7)


def test_a_row_nothing_writes_keeps_the_eps_test():
    # B = max(E, U + 2**63) with U (row 3) never written: B is E throughout.
    giant = [2**63] * 12
    program = _two_node_program([(0, 0, [0] * 12), (3, 0, giant)], [(1, 0, [5] * 12)], 4)
    result = replay_program(program)
    assert result == masked_replay(program)
    assert result[1]["out"] == [10 * k + 5 for k in range(12)]


def test_zero_and_weighted_arcs_of_one_node_both_count():
    # B = max(E(k), E(k-1) + 3): the zero-weight arc wins once E(k-1) exists.
    program = _two_node_program([(0, 0, [0] * 12), (0, 1, [3] * 12)], [(1, 0, [5] * 12)])
    result = replay_program(program)
    assert result == masked_replay(program)
    assert result[1]["out"] == [10 * k + 5 for k in range(12)]


def test_a_zero_arc_below_another_source_never_decides():
    # C = max(E, B) with B = E + 4: B is never below E, so the sweep may drop
    # C's arc from E -- but only at the delay B is read at.
    for arcs_c, expected in (
        ([(0, 0, [0] * 12), (1, 0, [0] * 12)], [10 * k + 4 for k in range(12)]),
        ([(0, 1, [0] * 12), (1, 0, [0] * 12)], [10 * k + 4 for k in range(12)]),
        ([(0, 0, [0] * 12), (1, 1, [0] * 12)], [0] + [10 * k for k in range(1, 12)]),
    ):
        program = _two_node_program([(0, 0, [4] * 12)], arcs_c)
        result = replay_program(program)
        assert result == masked_replay(program)
        assert result[1]["out"] == expected


def test_a_negative_weight_dominates_nothing():
    # C = max(E, B) with B = E - 5, and C = max(E, B - 10) with B = E + 4:
    # either way C's arc from E decides.
    for arcs_b, arcs_c in (
        ([(0, 0, [-5] * 12)], [(0, 0, [0] * 12), (1, 0, [0] * 12)]),
        ([(0, 0, [4] * 12)], [(0, 0, [0] * 12), (1, 0, [-10] * 12)]),
    ):
        program = _two_node_program(arcs_b, arcs_c)
        result = replay_program(program)
        assert result == masked_replay(program)
        assert result[1]["out"] == [10 * k for k in range(12)]


def test_a_short_zero_stream_still_fails_where_read():
    # Malformed on purpose: the stream stops before the horizon.
    program = _two_node_program([(0, 0, [0] * 5)], [(1, 0, [0] * 12)])
    for replay in (masked_replay, replay_program):
        with pytest.raises(IndexError):
            replay(program)


# ----------------------------------------------------------------------
# steady mode
# ----------------------------------------------------------------------
def steady_program(rng: random.Random) -> ArrayProgram:
    """A random program for the steady mode: constant weight streams and
    arithmetic offer schedules.

    Mixed in: back-pressure from ready arcs (an input whose exchanges
    outrun its schedule is dominance-locked), zero periods and weights
    (zero drift), long execute slots (overlapping intervals, so the tail
    is written out and merged), horizons too short to certify, a row
    nothing writes, a node that stays in the ε range until the instants
    grow past an offset and then takes over an output, and an output fed
    by a falling stream, which decreases before any certificate.
    """
    iterations = rng.choice([1, 2, 3, 6, 12, 30, 60])
    # Now and then every weight and period is zero: the state cannot drift.
    still = rng.random() < 0.1

    def constant(value):
        return [value] * iterations

    def weight():
        if still:
            return constant(0)
        return constant(rng.choice([0, 0, rng.randint(1, 30), rng.randint(30, 300)]))

    n_inputs = rng.randint(1, 2)
    never = int(rng.random() < 0.1)
    n_plan = rng.randint(1, 6)
    vocabulary = list(range(n_inputs + never + n_plan))
    rng.shuffle(vocabulary)
    exchange = vocabulary[:n_inputs]
    plan_nodes = vocabulary[n_inputs + never :]
    plan_arcs = []
    for position in range(n_plan):
        arcs = []
        if rng.random() < 0.95:  # a row already written this iteration
            arcs.append((rng.choice(exchange + plan_nodes[:position]), 0, weight()))
        for _ in range(rng.randint(0, 2)):  # feedback, up to three iterations back
            arcs.append((rng.choice(plan_nodes), rng.randint(1, 3), weight()))
        plan_arcs.append(tuple(arcs))
    outputs = [(f"out{o}", rng.choice(plan_nodes)) for o in range(rng.randint(1, 2))]
    node_count = len(vocabulary)
    if rng.random() < 0.25:
        # B = E - 2**61 - r is ε until E passes r; C = max(E + a, B + 2**61 + s)
        # then jumps to E - r + s.
        b, c = node_count, node_count + 1
        node_count += 2
        offset = rng.randint(0, 400)
        plan_nodes += [b, c]
        plan_arcs.append(((exchange[0], 0, constant(-(2**61) - offset)),))
        plan_arcs.append(
            ((exchange[0], 0, weight()), (b, 0, constant(2**61 + offset + rng.randint(1, 50))))
        )
        outputs.append(("crossing", c))
    if rng.random() < 0.1:
        falling = node_count
        node_count += 1
        plan_nodes.append(falling)
        plan_arcs.append(((exchange[0], 0, [10**6 - 10**5 * k for k in range(iterations)]),))
        outputs.append(("falling", falling))
    inputs, periods = [], []
    for i, row in enumerate(exchange):
        period = 0 if still else rng.choice([0, rng.randint(1, 40), rng.randint(40, 300)])
        start = rng.randint(0, 100)
        ready = tuple(
            (rng.choice(plan_nodes), rng.randint(1, 3), weight())
            for _ in range(rng.choice([0, 1, 1, 2]))
        )
        inputs.append((f"in{i}", row, [start + period * k for k in range(iterations)], ready))
        periods.append(period)
    rows = list(range(node_count))
    slots = [
        (f"R{r}", [(rng.choice(rows), rng.choice(rows)) for _ in range(rng.randint(1, 3))])
        for r in range(rng.randint(1, 2))
    ]
    return ArrayProgram(
        iterations=iterations,
        node_count=node_count,
        plan_nodes=plan_nodes,
        plan_arcs=plan_arcs,
        inputs=inputs,
        outputs=outputs,
        slots=slots,
        periods=tuple(periods),
    )


def test_steady_mode_equals_the_full_sweep():
    seen: Counter = Counter()
    for seed in range(1500):
        program = steady_program(random.Random(seed))
        with telemetry.collect(enable=True) as scope:
            steady = replay_program(program)
            snapshot = scope.snapshot()
        assert steady == replay_program(program._replace(periods=None)), seed
        counters = snapshot["counters"]
        seen["none"] += steady is None
        if counters.get("dse.steady.extrapolations"):
            cycle = snapshot["gauges"]["dse.steady.cycle_ps"]
            seen["certified"] += 1
            seen["zero drift"] += cycle == 0
            seen["dominance lock"] += any(cycle != period for period in program.periods)
            seen["merged tail"] += bool(counters.get("dse.steady.tail_materialized"))
            seen["crossing"] += any(name == "crossing" for name, _ in program.outputs)
        if counters.get("dse.steady.exhausted"):
            seen["short horizon"] += program.iterations <= 3
    # Every shape the certificate has to get right is reached, repeatedly.
    shapes = (
        "none",
        "certified",
        "zero drift",
        "dominance lock",
        "merged tail",
        "crossing",
        "short horizon",
    )
    assert all(seen[shape] >= 10 for shape in shapes), seen


def test_steady_digests_without_numpy_equal_the_full_sweep(monkeypatch):
    """Without numpy the steady tail is digested from the written-out list;
    the digests are the same bytes either way."""
    programs = [steady_program(random.Random(seed)) for seed in range(300)]
    with_numpy = [replay_program(program) for program in programs]
    monkeypatch.setattr(engine, "numpy_available", lambda: False)
    for seed, (program, expected) in enumerate(zip(programs, with_numpy)):
        assert replay_program(program) == expected, seed
        assert expected == replay_program(program._replace(periods=None)), seed


@pytest.mark.parametrize("cycle", [0, 1, 25, 2**40])
def test_closed_form_tail_digest_equals_the_list_digest(cycle):
    head = [0, 3, 3, 90]
    tail = [head[-1] + cycle * (j + 1) for j in range(50)]
    digest = engine._output_digest(head + tail, (len(tail), cycle))
    assert digest is not None and digest == int64_digest(head + tail)


def test_tail_beyond_int64_has_no_digest():
    """A tail leaving int64 is not truncated: the sweep leaves the digest to
    the campaign record, which raises."""
    cycle = 2**61
    row = [0] + [cycle * (j + 1) for j in range(4)]
    assert row[-1] >= 2**63
    assert engine._output_digest(row, (4, cycle)) is None
    assert engine._output_digest(row, None) is None


def test_steady_mode_returns_the_full_result_object_for_object():
    # A chain E -> B -> C with feedback C(k-1) -> ready: the exchange is
    # paced by the consumer (cycle 25 > period 10), so the input locks by
    # dominance and the sweep stops after a few iterations.
    iterations = 40
    program = ArrayProgram(
        iterations=iterations,
        node_count=3,
        plan_nodes=[1, 2],
        plan_arcs=[((0, 0, [5] * iterations),), ((1, 0, [20] * iterations),)],
        inputs=[("in", 0, [10 * k for k in range(iterations)], ((2, 1, [0] * iterations),))],
        outputs=[("out", 2)],
        slots=[("R", [(0, 1), (1, 2)])],
        periods=(10,),
    )
    with telemetry.collect(enable=True) as scope:
        steady = replay_program(program)
        counters = scope.snapshot()["counters"]
    assert counters["dse.steady.extrapolations"] == 1
    assert counters["dse.compile.replay_steps"] < 10
    assert steady == replay_program(program._replace(periods=None))
    assert steady[1]["out"] == [25 * k + 25 for k in range(iterations)]

