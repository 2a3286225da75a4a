"""The compiled sweep kernels against the pure-Python reference.

With the kernel loaded, ``replay_batch(programs)`` flattens a batch into
int64 buffers, sweeps it with one call of a C transcription of
``replay_program`` and scores every resource's busy span with a second
call.  These tests hold it to the reference result for result on random
lowered programs, hold the spans to a brute-force union oracle (with the
Python merge taking every resource the closed form refuses), check the
per-candidate overflow fallback onto Python integers and the sweep each
result names, and check that a missing compiler, a corrupt cached object
and two concurrent builds all end in exact results.
"""

import dataclasses
import itertools
import logging
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import repro  # noqa: E402
from repro import telemetry  # noqa: E402
from repro.dse import engine, get_problem  # noqa: E402
from repro.dse.engine import (  # noqa: E402
    EPSILON_THRESHOLD,
    NEG_EPSILON,
    ArrayProgram,
    _interleaved_span,
    _merged_span,
    replay_batch,
    replay_program,
)
from repro.dse.evaluate import evaluate_candidates  # noqa: E402

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def fresh_kernel(tmp_path, monkeypatch):
    """An empty per-test cache and a process that has not loaded a kernel yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(engine, "_kernel", None)
    return tmp_path / "repro"


def random_streams(rng, iterations, count):
    """Weight pools: constant, random, steeply decreasing and, rarely, huge
    streams (ε + 2**61 would pass for an instant if a read were unmasked) or
    negative ones (an instant plus -2**61 lands in the ε range, not on ε)."""
    streams = []
    for _ in range(count):
        kind = rng.choice(("constant", "random", "decreasing") * 3 + ("huge", "negative"))
        length = iterations + rng.randint(0, 3)  # streams may outrun the horizon
        if kind == "huge":
            streams.append([2**61 + rng.randint(0, 9)] * length)
        elif kind == "negative":
            streams.append([-(2**61) - rng.randint(0, 9)] * length)
        elif kind == "constant":
            streams.append([rng.randint(0, 50)] * length)
        elif kind == "random":
            streams.append([rng.randint(0, 400) for _ in range(length)])
        else:
            streams.append([max(0, 5000 - 900 * k) for k in range(length)])
    return streams


def random_program(rng, iterations, streams, schedules):
    """One lowered program with levels of varying width, delays 0-4, 1-3
    inputs, never-written (ε) sources and outputs that may go ε or drop."""
    n_inputs = len(schedules)
    never = rng.randint(0, 2)
    widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
    n_plan = sum(widths)
    node_count = n_inputs + never + n_plan
    vocabulary = list(range(node_count))
    rng.shuffle(vocabulary)
    exchange = vocabulary[:n_inputs]
    unwritten = vocabulary[n_inputs : n_inputs + never]
    plan_nodes = vocabulary[n_inputs + never :]

    plan_arcs, earlier, start = [], [], 0
    for width in widths:
        for node in plan_nodes[start : start + width]:
            arcs = []
            for _ in range(rng.randint(0, 3)):
                roll = rng.random()
                if roll < 0.3:
                    source, delay = rng.choice(exchange), rng.randint(0, 4)
                elif roll < 0.4 and unwritten:
                    source, delay = rng.choice(unwritten), rng.randint(0, 4)
                elif roll < 0.7 and earlier:
                    source, delay = rng.choice(earlier), rng.randint(0, 4)
                else:  # any plan node, itself included, one or more iterations back
                    source, delay = rng.choice(plan_nodes), rng.randint(1, 4)
                arcs.append((source, delay, rng.choice(streams)))
            plan_arcs.append(tuple(arcs))
        earlier.extend(plan_nodes[start : start + width])
        start += width

    inputs = []
    for i, schedule in enumerate(schedules):
        ready = tuple(
            (rng.choice(vocabulary), rng.randint(1, 4), rng.choice(streams))
            for _ in range(rng.randint(0, 2))
        )
        inputs.append((f"in{i}", exchange[i], schedule, ready))
    outputs = [
        (f"out{o}", rng.choice(plan_nodes + exchange + unwritten))
        for o in range(rng.randint(1, 2))
    ]
    slots = []
    for r in range(rng.randint(1, 3)):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:  # an exchange row never decreases: disjoint
                node = rng.choice(exchange)
                pairs.append((node, node))
            else:
                pairs.append((rng.choice(vocabulary), rng.choice(vocabulary)))
        slots.append((f"R{r}", pairs))
    return ArrayProgram(
        iterations=iterations,
        node_count=node_count,
        plan_nodes=plan_nodes,
        plan_arcs=plan_arcs,
        inputs=inputs,
        outputs=outputs,
        slots=slots,
    )


def random_schedule(rng, iterations):
    if rng.random() < 0.5:
        return sorted(rng.randint(0, 40 * iterations + 1) for _ in range(iterations))
    return [rng.randint(-100, 3000) for _ in range(iterations)]  # not monotonic


def random_batch(seed):
    rng = random.Random(seed)
    batch = []
    for iterations in rng.sample([0, 1, 2, 3, 5, 9, 17], rng.randint(1, 2)):
        streams = random_streams(rng, iterations, 5)
        n_inputs = rng.randint(1, 3)
        shared = [random_schedule(rng, iterations) for _ in range(n_inputs)]
        for _ in range(rng.randint(1, 5)):
            schedules = [
                schedule if rng.random() < 0.6 else random_schedule(rng, iterations)
                for schedule in shared
            ]
            batch.append(random_program(rng, iterations, streams, schedules))
    rng.shuffle(batch)
    return batch


def sweep(programs):
    """``replay_batch`` with the kernel loaded: results, the sweep that
    produced each, and the counters it left behind."""
    with telemetry.collect(enable=True) as scope:
        results, backends = replay_batch(programs)
        counters = scope.snapshot()["counters"]
    return results, backends, counters


class TestKernelEqualsReference:
    def test_random_batches(self, kernel_sweep):
        seen = {"none": 0, "swept": 0, "empty": 0, "closed_spans": 0, "span_merges": 0}
        for seed in range(300):
            batch = random_batch(seed)
            results, backends, counters = sweep(batch)
            assert results == [replay_program(program) for program in batch], seed
            assert counters["dse.engine.kernel_swept"] == len(batch)
            assert counters.get("dse.engine.kernel_unavailable", 0) == 0
            # Only a candidate the kernel leaves with status 2 names the reference.
            overflowed = counters.get("dse.engine.kernel_overflow_fallbacks", 0)
            assert backends.count("python") == overflowed
            assert backends.count("numpy") == len(batch) - overflowed
            merges = counters.get("dse.engine.span_merges", 0)
            seen["span_merges"] += merges
            spans = 0
            for program, result in zip(batch, results):
                if result is None:
                    seen["none"] += 1
                    continue
                seen["swept"] += 1
                seen["empty"] += program.iterations == 0
                spans += len(result[2])
            # Every span the merge did not produce came from the closed form.
            seen["closed_spans"] += max(0, spans - merges)
        # The generator reaches every branch the reference has.
        assert all(seen.values()), seen

    def test_eps_reads_stay_masked(self, kernel_sweep):
        # Node 2 reads only the never-written node 1, through a weight that
        # would lift ε above the threshold if the read were not masked.
        program = ArrayProgram(
            iterations=3,
            node_count=4,
            plan_nodes=[2, 3],
            plan_arcs=[((1, 0, [2**61 + 5] * 3),), ((0, 0, [1] * 3), (2, 0, [1] * 3))],
            inputs=[("in0", 0, [0, 10, 20], ())],
            outputs=[("out", 3)],
            slots=[("R0", [(2, 2)]), ("R1", [(0, 3)])],
        )
        results, _, counters = sweep([program])
        assert results == [replay_program(program)]
        # R0 never holds an instant (idle, merged); R1 is busy 0-1, 10-11, 20-21.
        assert results[0][2] == {"R1": (3, 0, 21)}
        assert counters["dse.engine.span_merges"] == 1

    @pytest.mark.parametrize(
        "name, parameters",
        [
            ("chain", {"items": 40}),
            ("lte", {"items": 3, "subframes": 2}),
            ("fork", {"items": 6}),
        ],
    )
    def test_registered_problems(self, kernel_sweep, request, name, parameters):
        problem = get_problem(name)
        space = problem.space(parameters)
        candidates = list(itertools.islice(space.enumerate_candidates(), 12))
        with telemetry.collect(enable=True) as scope:
            batched = evaluate_candidates(problem, candidates, parameters)
            counters = scope.snapshot()["counters"]
        request.getfixturevalue("reference_sweep")
        reference = evaluate_candidates(problem, candidates, parameters)
        assert counters.get("dse.engine.kernel_swept", 0) > 0
        assert {slow.backend for slow in reference} == {"python"}
        for fast, slow in zip(batched, reference):
            assert_same_evaluation(fast, slow)


INT64_MAX = 2**63 - 1
#: the lowest instant (just above the ε threshold)
LOWEST = EPSILON_THRESHOLD + 1


def span_program(resources, iterations):
    """A program whose plan rows are exactly the histories of ``resources``.

    ``resources`` is ``[(name, [(starts, ends), ...])]`` with ``None`` for ε.
    Node 0 is the only input; its schedule is all 0, so its row stays 0 and
    every history becomes a plan node reading node 0 through a weight stream
    equal to the wanted values (ε as ``NEG_EPSILON``).
    """
    plan_nodes, plan_arcs = [], []

    def row(values):
        plan_nodes.append(len(plan_nodes) + 1)
        plan_arcs.append(((0, 0, [NEG_EPSILON if v is None else v for v in values]),))
        return plan_nodes[-1]

    slots = [
        (name, [(row(starts), row(ends)) for starts, ends in histories])
        for name, histories in resources
    ]
    return ArrayProgram(
        iterations=iterations,
        node_count=1 + len(plan_nodes),
        plan_nodes=plan_nodes,
        plan_arcs=plan_arcs,
        inputs=[("in0", 0, [0] * iterations, ())],
        outputs=[("out", 0)],
        slots=slots,
    )


def union_oracle(histories):
    """Brute force: the elementary segments between distinct endpoints that
    some interval covers, summed (no sort-and-merge, no closed form)."""
    intervals = [
        (start, end)
        for starts, ends in histories
        for start, end in zip(starts, ends)
        if start is not None and end is not None
    ]
    if not intervals:
        return None
    points = sorted({point for interval in intervals for point in interval})
    busy = sum(
        b - a
        for a, b in zip(points, points[1:])
        if any(start <= a and b <= end for start, end in intervals)
    )
    return busy, min(s for s, _ in intervals), max(e for _, e in intervals)


def random_histories(rng, iterations):
    """One resource's slot histories: back-to-back by default, with touching
    and zero-length intervals, and optionally overlaps, ε, order changes
    between iterations, equal first intervals, and instants near the ends of
    int64 (just above ε, or close to 2**62 and 2**63)."""
    slots = rng.choice((0, 1, 1, 2, 3, 4))
    overlap = rng.choice((0.0, 0.0, 0.2))
    epsilon = rng.choice((0.0, 0.0, 0.05))
    shuffle = rng.choice((0.0, 0.0, 0.3))
    now = rng.choice((0, 50, LOWEST, 2**62 - 500, INT64_MAX - 10**4))
    histories = [([], []) for _ in range(slots)]
    for _ in range(iterations):
        order = list(range(slots))
        if rng.random() < shuffle:
            rng.shuffle(order)
        for slot in order:
            start = now + rng.choice((0, 0, rng.randrange(1, 20)))
            if rng.random() < overlap:
                start = max(LOWEST, start - rng.randrange(1, 30))
            start = min(start, INT64_MAX)
            end = min(INT64_MAX, start + rng.choice((0, rng.randrange(1, 25))))
            now = max(now, end)
            starts, ends = histories[slot]
            starts.append(None if rng.random() < epsilon else start)
            ends.append(None if rng.random() < epsilon else end)
    if slots >= 2 and iterations and rng.random() < 0.3:  # tie on (start[0], end[0])
        histories[1][0][0], histories[1][1][0] = histories[0][0][0], histories[0][1][0]
    return histories


#: Resources the closed form must refuse: busy leaves int64 by subtraction
#: (one interval longer than 2**63) or by addition (two shorter ones).
OVERFLOW_CASES = {
    "sub": [([LOWEST], [INT64_MAX])],
    "add": [([LOWEST, 2**62], [2**62, INT64_MAX])],
}


def closed_form_holds(histories):
    """Whether the kernel must score this resource itself: the Python closed
    form holds on the int rows (stable slot order, no ε, no decrease) and
    busy fits int64."""
    rows = [
        (
            [NEG_EPSILON if v is None else v for v in starts],
            [NEG_EPSILON if v is None else v for v in ends],
        )
        for starts, ends in histories
    ]
    span = _interleaved_span(rows)
    return span is not None and span[1] > EPSILON_THRESHOLD and span[0] <= INT64_MAX


class TestKernelSpans:
    def test_spans_equal_the_union_oracle(self, kernel_sweep):
        closed = merged = 0
        for case in range(150):
            rng = random.Random(case)
            iterations = rng.choice((0, 1, 2, 3, 5, 8))
            resources = [
                (f"R{r}", random_histories(rng, iterations)) for r in range(rng.randint(1, 4))
            ]
            program = span_program(resources, iterations)
            results, _, counters = sweep([program])
            ((_, _, spans, _),) = results
            assert results == [replay_program(program)], case
            for name, histories in resources:
                expected = union_oracle(histories)
                assert _merged_span(histories) == expected, case
                assert spans.get(name) == expected, case
            # Each resource takes the branch the Python ladder takes.
            merges = counters.get("dse.engine.span_merges", 0)
            holds = sum(closed_form_holds(histories) for _, histories in resources)
            assert merges == len(resources) - holds, case
            merged += merges
            closed += holds
        assert closed > 50 and merged > 50, (closed, merged)

    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_int64_overflow_merges_on_python_ints(self, kernel_sweep, case):
        histories = OVERFLOW_CASES[case]
        program = span_program([("R", histories)], len(histories[0][0]))
        results, _, counters = sweep([program])
        assert results == [replay_program(program)]
        assert results[0][2]["R"] == union_oracle(histories)
        assert results[0][2]["R"][0] > INT64_MAX
        assert counters["dse.engine.span_merges"] == 1

    def test_degenerate_resources(self, kernel_sweep):
        # K == 0, a resource with no slot, a resource with one slot, and one
        # whose first start sits on the ε threshold itself (so it is ε).
        empty = span_program([("R", [([], [])]), ("none", [])], 0)
        single = span_program([("R", [([0, 5], [5, 9])]), ("none", [])], 2)
        threshold = span_program([("R", [([EPSILON_THRESHOLD, 5], [0, 9])])], 2)
        programs = [empty, single, threshold]
        results, _, counters = sweep(programs)
        assert results == [replay_program(program) for program in programs]
        spans = [result[2] for result in results]
        assert spans == [{}, {"R": (9, 0, 9)}, {"R": (4, 5, 9)}]
        assert counters["dse.engine.span_merges"] == 4  # all but the single slot


def overflow_batch(value):
    """Four random programs; candidate 2 is a three-hop chain whose arcs all
    carry ``value``, so its sums leave int64 (or ``value`` alone does not fit)."""
    rng = random.Random(7)
    streams = random_streams(rng, 6, 4)
    schedule = list(range(0, 60, 10))
    batch = [random_program(rng, 6, streams, [schedule]) for _ in range(4)]
    huge = [value] * 6
    batch[2] = ArrayProgram(
        iterations=6,
        node_count=4,
        plan_nodes=[1, 2, 3],
        plan_arcs=[((0, 0, huge),), ((1, 0, huge),), ((2, 0, huge),)],
        inputs=[("in0", 0, schedule, ())],
        outputs=[("out", 3)],
        slots=[("R0", [(0, 1), (2, 3)]), ("R1", [(1, 2)])],
    )
    return batch


class TestOverflowFallback:
    @pytest.mark.parametrize("value", [2**62 - 7, 2**62])
    def test_only_the_overflowing_candidate_replays(self, kernel_sweep, monkeypatch, value):
        batch = overflow_batch(value)
        expected = [replay_program(program) for program in batch]
        calls = []
        reference = engine.replay_program
        monkeypatch.setattr(
            engine, "replay_program", lambda program: calls.append(program) or reference(program)
        )
        results, backends, counters = sweep(batch)
        assert results == expected
        assert calls == [batch[2]]  # every other candidate came from the kernel
        assert backends == ["numpy", "numpy", "python", "numpy"]
        assert counters["dse.engine.kernel_overflow_fallbacks"] == 1
        assert counters["dse.engine.kernel_swept"] == len(batch)
        assert max(expected[2][1]["out"]) > 2**63 - 1

    def test_durations_beyond_int64_replay_their_group(self, kernel_sweep):
        # A duration that int64 cannot even hold: the whole horizon group
        # goes to the reference, exactly.
        batch = overflow_batch(2**64 + 3)
        expected = [replay_program(program) for program in batch]
        results, backends, counters = sweep(batch)
        assert results == expected
        assert backends == ["python"] * len(batch)
        assert counters["dse.engine.kernel_overflow_fallbacks"] == len(batch)
        assert "dse.engine.kernel_swept" not in counters

    def test_out_of_range_indices_fail_like_the_reference(self, kernel_sweep):
        batch = overflow_batch(1)
        bad = batch[1]._replace(plan_arcs=[((99, 0, [1] * 6),)] + list(batch[1].plan_arcs[1:]))
        with pytest.raises(IndexError):
            replay_program(bad)
        with pytest.raises(IndexError):
            sweep([batch[0], bad])

    def test_short_streams_fail_like_the_reference(self, kernel_sweep):
        # A weight stream or offer schedule shorter than the horizon: the
        # kernel must not read past it, so the reference decides.
        base = ArrayProgram(
            iterations=3,
            node_count=2,
            plan_nodes=[1],
            plan_arcs=[((0, 0, [1, 1]),)],
            inputs=[("in0", 0, [0, 10, 20], ())],
            outputs=[("out", 1)],
            slots=[("R", [(0, 1)])],
        )
        short_schedule = base._replace(
            plan_arcs=[((0, 0, [1, 1, 1]),)], inputs=[("in0", 0, [0, 10], ())]
        )
        for program in (base, short_schedule):
            with pytest.raises(IndexError):
                replay_program(program)
            with pytest.raises(IndexError):
                sweep([program])
        # A short stream behind a never-written source is never read.
        unread = base._replace(node_count=3, plan_arcs=[((2, 0, [1]),)])
        full = base._replace(plan_arcs=[((0, 0, [1, 1, 1]),)])
        results, _, counters = sweep([unread, full])
        assert results == [replay_program(unread), replay_program(full)]
        assert results[0] is None  # its output never holds an instant
        assert results[1][2] == {"R": (3, 0, 21)}
        assert counters["dse.engine.kernel_overflow_fallbacks"] == 1


def assert_same_evaluation(fast, slow):
    for field in dataclasses.fields(fast):
        if field.name not in ("wall_seconds", "backend"):
            assert getattr(fast, field.name) == getattr(slow, field.name), field.name


class TestKernelUnavailable:
    @pytest.mark.parametrize(
        "command",
        [["/nonexistent/cc"], [sys.executable, "-c", "raise SystemExit(1)"]],
        ids=["missing-compiler", "failing-build"],
    )
    def test_build_failure_falls_back_exactly(self, fresh_kernel, monkeypatch, caplog, command):
        monkeypatch.setattr(engine, "_compiler_command", lambda: list(command))
        problem = get_problem("chain")
        parameters = {"items": 20}
        space = problem.space(parameters)
        candidates = list(itertools.islice(space.enumerate_candidates(), 6))
        reference = evaluate_candidates(problem, candidates, parameters, compiled=False)
        with caplog.at_level(logging.WARNING, logger="repro.dse.engine"):
            with telemetry.collect(enable=True) as scope:
                first = evaluate_candidates(problem, candidates, parameters)
                second = evaluate_candidates(problem, candidates, parameters)
                counters = scope.snapshot()["counters"]
        for batch in (first, second):
            for fast, slow in zip(batch, reference):
                assert_same_evaluation(fast, slow)
                # The reference swept it, and the record says so.
                assert fast.backend == "python"
        assert counters["dse.engine.kernel_unavailable"] == 2 * len(candidates)
        assert "dse.engine.kernel_swept" not in counters
        warnings = [r for r in caplog.records if r.name == "repro.dse.engine"]
        assert len(warnings) == 1 and "unavailable" in warnings[0].getMessage()
        assert not fresh_kernel.exists() or not list(fresh_kernel.glob("*.so"))

    def test_shared_cache_dir_is_refused(self, fresh_kernel):
        fresh_kernel.mkdir(mode=0o700)
        assert engine._cache_dir() == str(fresh_kernel)
        fresh_kernel.chmod(0o777)
        elsewhere = engine._cache_dir()
        assert elsewhere != str(fresh_kernel) and os.path.isdir(elsewhere)


#: Loads the kernel in a fresh interpreter and sweeps a random batch.
CHILD = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, sys.argv[1])
    from repro.dse import engine
    from repro.dse.engine import replay_batch, replay_program
    sys.path.insert(0, sys.argv[2])
    from test_dse_kernel import random_batch
    assert engine._sweep_kernel() is not None, "kernel unavailable"
    batch = random_batch(11)
    assert replay_batch(batch)[0] == [replay_program(p) for p in batch]
    print("ok")
    """
)


def spawn(cache):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, SRC, str(Path(__file__).parent)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finished(process):
    out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err
    return out.strip()


class TestKernelCache:
    def test_garbage_object_is_rebuilt(self, kernel_sweep, tmp_path):
        assert finished(spawn(tmp_path)) == "ok"
        (built,) = (tmp_path / "repro").glob("sweep-*.so")
        built.write_bytes(b"not a shared object")
        assert finished(spawn(tmp_path)) == "ok"
        assert built.read_bytes() != b"not a shared object"

    def test_concurrent_builds_into_an_empty_cache(self, kernel_sweep, tmp_path):
        processes = [spawn(tmp_path), spawn(tmp_path)]
        assert [finished(process) for process in processes] == ["ok", "ok"]
        leftovers = sorted(path.name for path in (tmp_path / "repro").iterdir())
        assert len(leftovers) == 1 and leftovers[0].endswith(".so"), leftovers
