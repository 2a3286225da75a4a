"""The span and utilisation routines behind ``CompiledProblem._assemble``.

The sweep scores each resource's ``(busy, lo, hi)`` on its int history
rows (ε as the :data:`NEG_EPSILON` sentinel) and ``_utilization`` is the
one window/rounding epilogue of every path.  Properties under test: the
sort-free closed form (interleave each resource's slots, check the
sequence never decreases, subtract the sums) equals the sort-and-merge
reference exactly -- as integer busy totals and as the rounded fraction
-- on random multi-slot interval sets with overlaps, touching and
zero-length intervals and ε gaps; a steady run's closed-form periodic
tail equals the same tail written out arithmetically on the rows; and a
resource whose intervals overlap takes the write-out-and-merge fallback
while staying bit-identical to replay.
"""

import dataclasses
import random

import pytest

from repro import telemetry
from repro.archmodel.platform import PlatformModel, ProcessingResource
from repro.dse import CompiledProblem, get_problem
from repro.dse.compile import _CACHE, _utilization
from repro.dse.engine import (
    EPSILON_THRESHOLD,
    NEG_EPSILON,
    _interleaved_span,
    _merged_busy,
    _merged_span,
    replay_program,
)
from repro.errors import ReproError

from array_programs import program as lowered


@pytest.fixture(autouse=True)
def clear_compile_cache():
    _CACHE.clear()
    yield
    _CACHE.clear()


def union_length(intervals):
    """Independent oracle: count the covered picoseconds one by one."""
    covered = set()
    for start, end in intervals:
        covered.update(range(start, end))
    return len(covered)


def random_slots(rng, iterations, slots, overlap=0.0, epsilon=0.0, shuffle=0.0):
    """Start/end histories of ``slots`` slots sharing one resource.

    Back-to-back by default, with zero gaps (touching intervals) and
    zero-length intervals mixed in; ``overlap`` pulls a start back before
    the previous end, ``epsilon`` blanks an instant, ``shuffle`` serves an
    iteration's slots in a different order.
    """
    histories = [([], []) for _ in range(slots)]
    now = rng.randrange(0, 50)
    for _ in range(iterations):
        order = list(range(slots))
        if rng.random() < shuffle:
            rng.shuffle(order)
        for slot in order:
            start = now + rng.choice((0, 0, rng.randrange(1, 20)))
            if rng.random() < overlap:
                start = max(0, start - rng.randrange(1, 30))
            end = start + rng.choice((0, rng.randrange(1, 25)))
            now = max(now, end)
            starts, ends = histories[slot]
            starts.append(None if rng.random() < epsilon else start)
            ends.append(None if rng.random() < epsilon else end)
    return histories


def live_intervals(histories):
    return [
        (start, end)
        for starts, ends in histories
        for start, end in zip(starts, ends)
        if start is not None and end is not None
    ]


def int_row(values):
    """A history as a sweep row: ε (``None``) becomes the int sentinel."""
    return [NEG_EPSILON if v is None else v for v in values]


def closed_form(histories, tail=None):
    """The sweep's closed form on int rows; ``None`` where it must merge."""
    rows = [(int_row(starts), int_row(ends)) for starts, ends in histories]
    span = _interleaved_span(rows, tail)
    return None if span is None or span[1] <= EPSILON_THRESHOLD else span


def span_program(resources, iterations):
    """A program whose plan rows replay the given slot histories verbatim.

    Row 0 is the exchange (always 0); every history becomes a plan node
    reading it with the history itself as weight stream, so ε (``None``)
    stays ε.
    """
    plan_nodes, plan_arcs = [], []

    def row(values):
        plan_nodes.append(len(plan_nodes) + 1)
        plan_arcs.append(((0, 0, int_row(values)),))
        return plan_nodes[-1]

    slots = [
        (name, [(row(starts), row(ends)) for starts, ends in histories])
        for name, histories in resources
    ]
    return lowered(
        iterations=iterations,
        node_count=1 + len(plan_nodes),
        plan_nodes=plan_nodes,
        plan_arcs=plan_arcs,
        inputs=[("in0", 0, [0] * iterations, ())],
        outputs=[("out", 0)],
        slots=slots,
    )


def shaped(case):
    """Random resource shapes: (iterations, slots, overlap, epsilon, shuffle)."""
    rng = random.Random(case)
    return rng, (
        rng.randrange(1, 12),
        rng.randrange(1, 5),
        rng.choice((0.0, 0.0, 0.1, 0.5)),
        rng.choice((0.0, 0.0, 0.05)),
        rng.choice((0.0, 0.0, 0.3)),
    )


class TestClosedFormMatchesMerge:
    def test_integer_busy_totals(self):
        fast = slow = 0
        for case in range(400):
            rng, (iterations, slots, overlap, epsilon, shuffle) = shaped(case)
            histories = random_slots(rng, iterations, slots, overlap, epsilon, shuffle)
            intervals = live_intervals(histories)
            merged = _merged_span(histories)
            if not intervals:
                assert merged is None
                continue
            assert merged == (
                union_length(intervals),
                min(start for start, _ in intervals),
                max(end for _, end in intervals),
            )
            assert _merged_busy(intervals) == merged[0]
            closed = closed_form(histories)
            if closed is None:
                slow += 1
            else:
                fast += 1
                assert closed == merged, case
        # Both branches are exercised, not just one of them.
        assert fast > 50 and slow > 50

    def test_rounded_fractions_over_several_resources(self):
        for case in range(200):
            rng = random.Random(10_000 + case)
            iterations = rng.randrange(1, 12)
            reference, slot_histories = {}, []
            resources = [f"R{index}" for index in range(rng.randrange(1, 4))]
            for resource in resources:
                _, (_, *shape) = shaped(rng.randrange(10**6))
                histories = random_slots(rng, iterations, *shape)
                reference[resource] = live_intervals(histories)
                slot_histories.append((resource, histories))
            everything = [pair for pairs in reference.values() for pair in pairs]
            requested = resources + ["idle"]  # a used resource with no slot
            spans = replay_program(span_program(slot_histories, iterations))[2]
            got = _utilization(requested, spans)
            if not everything:
                assert got == {resource: 0.0 for resource in requested}
                continue
            lo = min(start for start, _ in everything)
            hi = max(end for _, end in everything)
            expected = {
                resource: 0.0
                if hi <= lo
                else round(_merged_busy(reference.get(resource, [])) / (hi - lo), 4)
                for resource in requested
            }
            assert got == expected, case


def periodic_prefix(rng, iterations, slots):
    """A disjoint prefix whose last iteration is the one before it plus ``c``."""
    histories = random_slots(rng, iterations - 1, slots)
    first = min(starts[-1] for starts, _ in histories)
    last = max(ends[-1] for _, ends in histories)
    cycle = last - first + rng.choice((0, rng.randrange(1, 40)))
    for starts, ends in histories:
        starts.append(starts[-1] + cycle)
        ends.append(ends[-1] + cycle)
    return histories, cycle


def written_out(histories, extra, cycle):
    """The tail written out arithmetically: last value plus j * cycle."""
    return [
        (
            starts + [starts[-1] + j * cycle for j in range(1, extra + 1)],
            ends + [ends[-1] + j * cycle for j in range(1, extra + 1)],
        )
        for starts, ends in histories
    ]


class TestClosedFormTail:
    def test_tail_equals_the_written_out_tail(self):
        for case in range(300):
            rng = random.Random(20_000 + case)
            histories, cycle = periodic_prefix(rng, rng.randrange(2, 8), rng.randrange(1, 5))
            if closed_form(histories) is None:
                continue  # an overlapping prefix takes the merge fallback
            extra = rng.randrange(1, 30)
            full = written_out(histories, extra, cycle)
            assert closed_form(histories, (extra, cycle)) == _merged_span(full), case
            assert closed_form(full) == _merged_span(full), case

    @pytest.mark.parametrize("name", ["chain-periodic", "didactic-periodic"])
    def test_steady_runs_match_the_written_out_rows(self, name):
        # The steady mode scores the certified tail in closed form; the full
        # sweep writes every row out.  Both must give the same spans.
        params = {"items": 60}
        compiled = CompiledProblem(get_problem(name), params)
        candidates = list(
            get_problem(name).space(params).enumerate_candidates(limit=6)
        )
        certified = 0
        for candidate in candidates:
            try:
                program = compiled._lower(candidate, "auto")
            except ReproError:
                continue  # infeasible service order
            assert program.periods is not None  # the steady gate admitted it
            with telemetry.collect(enable=True) as scope:
                steady = replay_program(program)
                counters = scope.snapshot()["counters"]
            if not counters.get("dse.steady.extrapolations"):
                continue
            certified += 1
            assert counters.get("dse.steady.tail_materialized", 0) == 0
            assert steady == replay_program(program._replace(periods=None))
        assert certified > 0


def dual_server_platform(parameters):
    platform = PlatformModel("dual-server-bank")
    platform.add_resource(ProcessingResource("D1", concurrency=2))
    return platform


def steady_replay_pair(compiled, candidate):
    with telemetry.collect(enable=True) as scope:
        steady = compiled.evaluate(candidate, evaluator="auto")
        counters = scope.snapshot()["counters"]
    replay = compiled.evaluate(candidate, evaluator="replay")
    return steady, replay, counters


def assert_same_objectives(steady, replay):
    for field in dataclasses.fields(steady):
        if field.name not in ("wall_seconds", "evaluator", "backend"):
            assert getattr(steady, field.name) == getattr(replay, field.name), field.name


class TestMaterializeFallback:
    def test_overlapping_resource_materializes_the_tail(self):
        # Every function on one concurrency-2 processor: consecutive
        # executions overlap, so the closed form cannot prove disjointness.
        problem = dataclasses.replace(
            get_problem("chain-periodic"),
            name="chain-periodic-dual",
            platform_factory=dual_server_platform,
        )
        params = {"items": 40, "stages": 1, "processors": 1}
        compiled = CompiledProblem(problem, params)
        candidate = problem.space(params).default_candidate()
        steady, replay, counters = steady_replay_pair(compiled, candidate)
        assert steady.evaluator == "steady"
        assert counters["dse.steady.extrapolations"] == 1
        assert counters["dse.steady.tail_materialized"] == 1
        assert_same_objectives(steady, replay)

    def test_chain_periodic_never_materializes(self):
        params = {"items": 200}
        problem = get_problem("chain-periodic")
        compiled = CompiledProblem(problem, params)
        extrapolations = 0
        for candidate in problem.space(params).enumerate_candidates(limit=8):
            steady, replay, counters = steady_replay_pair(compiled, candidate)
            assert counters.get("dse.steady.tail_materialized", 0) == 0
            extrapolations += counters.get("dse.steady.extrapolations", 0)
            assert_same_objectives(steady, replay)
        assert extrapolations > 0
