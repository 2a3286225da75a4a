"""DSE evaluator throughput: candidates scored per second.

The exploration loop is only as strong as its inner evaluation, which
builds the equivalent model for a candidate mapping and computes -- never
simulates -- its instants.  These benchmarks pin down

* ``evaluate`` -- scoring one feasible candidate end to end (graph
  construction + instant computation + usage reconstruction);
* ``encode`` -- candidate canonicalisation and digesting (the cache key
  of the result store, paid once per proposed candidate);
* ``explore`` -- a whole seeded random exploration served from a warm
  in-memory store (the orchestration overhead with zero evaluation cost);
* ``compiled speedup`` -- template-compiled evaluation
  (:class:`~repro.dse.compile.CompiledProblem`) versus the from-scratch
  build on the ``chain`` problem, asserted to be >= 3x candidates/second;
* ``order feasibility`` -- the fraction of randomly proposed candidates
  whose service orders are schedulable, asserted to be >= 95% under the
  default feasibility-aware sampling.

``candidates_per_second`` lands in ``extra_info`` next to the timings.
The per-candidate ``evaluate`` cases run once on the compiled path and
once on the from-scratch build (``compiled=False``), so both stay
importable and correct.

Two cases run as plain timing assertions (no pytest-benchmark), so they
hold under ``--benchmark-disable``:

* ``throughput matrix`` -- candidates/second per problem x evaluator
  mode, plus telemetry-derived cache-hit rates, appended to the shared
  ``dse_bench`` collector and written to ``BENCH_dse.json`` at session
  end (see ``conftest.pytest_sessionfinish``);
* ``steady speedup`` -- certified steady-state extrapolation
  (``evaluator="auto"``) versus compiled replay on the periodic
  problems, targeting >= 5x measured (asserted >= 4x against runner
  noise), with both modes' rows in ``BENCH_dse.json``;
* ``telemetry overhead`` -- enabling telemetry must cost < 5% on the
  compiled inner loop (the observability subsystem's headline budget);
* ``batch speedup`` -- the array-backed batch engine
  (:meth:`~repro.dse.compile.CompiledProblem.evaluate_batch`) versus the
  paper's event-driven equivalent model and the per-candidate
  ``evaluate`` loop, per problem x sweep, with ``batch_speedup`` and
  ``end_to_end_speedup`` rows in ``BENCH_dse.json``; the pure-Python
  reference sweep must be >= 4.3x the equivalent model on chain, the
  compiled kernel >= 8.6x (skipped, not failed, without numpy or a C
  compiler).
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from repro import telemetry
from repro.campaign import ResultStore
from repro.dse import MappingExplorer, compiled_problem, evaluate_candidate, get_problem
from repro.dse.compile import _CACHE
from repro.errors import ReproError

#: Data items driven through each scored candidate; small on purpose -- the
#: point of DSE is many cheap evaluations, not one long one.
DSE_ITEMS = 50
BATCH = 8


@pytest.mark.benchmark(group="dse")
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
def test_dse_evaluate_throughput(benchmark, compiled):
    """Scoring a batch of feasible candidates with the equivalent model only."""
    problem = get_problem("didactic")
    parameters = {"items": DSE_ITEMS}
    space = problem.space(parameters, explore_orders=False)
    candidates = list(space.enumerate_candidates(limit=BATCH))
    assert len(candidates) == BATCH

    def score_batch():
        return [
            evaluate_candidate(problem, candidate, parameters, compiled=compiled)
            for candidate in candidates
        ]

    evaluations = benchmark(score_batch)
    assert all(evaluation.feasible for evaluation in evaluations)
    if benchmark.stats:  # absent under --benchmark-disable (CI smoke mode)
        mean_seconds = benchmark.stats.stats.mean
        benchmark.extra_info["candidates_per_second"] = round(BATCH / mean_seconds, 1)
    benchmark.extra_info["items_per_candidate"] = DSE_ITEMS


@pytest.mark.benchmark(group="dse")
def test_dse_candidate_encoding(benchmark):
    """Canonicalising + digesting one random candidate (per-proposal overhead)."""
    space = get_problem("didactic").space({"items": DSE_ITEMS})
    rng = random.Random(7)

    def encode():
        return space.random_candidate(rng).digest()

    digest = benchmark(encode)
    assert len(digest) == 64


def test_dse_compiled_speedup_on_chain():
    """Template compilation buys >= 3x candidates/second on the chain problem.

    Times the same candidate batch through the compiled path (template
    specialisation, shared duration tables, no event kernel) and the
    from-scratch path (full ``build_equivalent_spec`` + event-driven harness
    per candidate); best-of-three rounds damps scheduler noise.  This is a
    plain timing assertion, not a pytest-benchmark case, so it holds under
    ``--benchmark-disable`` too.
    """
    problem = get_problem("chain")
    parameters = {"items": DSE_ITEMS}
    space = problem.space(parameters, explore_orders=False)
    candidates = list(space.enumerate_candidates(limit=BATCH))
    compiled = compiled_problem(problem, parameters)
    for candidate in candidates:  # warm the template and duration tables
        assert compiled.evaluate(candidate).feasible

    best_compiled = best_scratch = float("inf")
    for _ in range(3):
        tick = time.perf_counter()
        for candidate in candidates:
            compiled.evaluate(candidate)
        tock = time.perf_counter()
        for candidate in candidates:
            evaluate_candidate(problem, candidate, parameters, compiled=False)
        done = time.perf_counter()
        best_compiled = min(best_compiled, tock - tick)
        best_scratch = min(best_scratch, done - tock)

    speedup = best_scratch / best_compiled
    assert speedup >= 3.0, (
        f"compiled evaluation is only {speedup:.2f}x faster "
        f"({BATCH / best_compiled:.0f} vs {BATCH / best_scratch:.0f} candidates/s)"
    )


def test_dse_random_proposals_are_order_feasible_on_chain():
    """>= 95% of random proposals must be order-feasible (strict sampling: all)."""
    problem = get_problem("chain")
    parameters = {"items": 2}
    space = problem.space(parameters)
    compiled = compiled_problem(problem, parameters)
    rng = random.Random(13)
    proposals = 200
    feasible = 0
    for _ in range(proposals):
        candidate = space.random_candidate(rng)
        try:
            compiled.specialize(candidate)
        except ReproError:
            continue
        feasible += 1
    assert feasible / proposals >= 0.95


@pytest.mark.benchmark(group="dse")
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
def test_dse_heterogeneous_evaluate_throughput(benchmark, compiled):
    """Scoring random candidates of the mixed-bank ``lte`` problem.

    Exercises the kind-aware inner loop: eligibility-constrained sampling,
    per-(slot, resource-class) duration tables and per-kind utilisation
    metrics.  Every proposal must be feasible (eligibility + strict orders).
    """
    problem = get_problem("lte")
    parameters = {"items": 14}
    space = problem.space(parameters)
    rng = random.Random(19)
    candidates = [space.random_candidate(rng) for _ in range(BATCH)]

    def score_batch():
        return [
            evaluate_candidate(problem, candidate, parameters, compiled=compiled)
            for candidate in candidates
        ]

    evaluations = benchmark(score_batch)
    assert all(evaluation.feasible for evaluation in evaluations)
    assert all(evaluation.utilization_by_kind for evaluation in evaluations)
    if benchmark.stats:  # absent under --benchmark-disable (CI smoke mode)
        mean_seconds = benchmark.stats.stats.mean
        benchmark.extra_info["candidates_per_second"] = round(BATCH / mean_seconds, 1)


@pytest.mark.benchmark(group="dse")
def test_dse_cached_exploration(benchmark):
    """A full random exploration re-run against a warm store (no evaluation)."""
    store = ResultStore.in_memory()

    def explore():
        return MappingExplorer(
            problem="didactic",
            strategy="random",
            budget=40,
            seed=11,
            parameters={"items": 10},
            store=store,
        ).run()

    warmup = explore()
    # Feasibility-aware sampling saturates the didactic feasible subspace
    # (25 candidates) before the 40-candidate budget is spent.
    assert 20 <= warmup.explored <= 40

    report = benchmark(explore)
    assert report.evaluated == 0
    assert report.cache_hits == warmup.explored
    assert len(report.front) >= 2


def _counter(snapshot, name):
    return int(snapshot.get("counters", {}).get(name, 0))


@pytest.fixture
def fresh_compile_cache():
    """Drop the big steady-horizon compilations once the case is over.

    The steady cases tabulate duration streams over thousands of items; left
    in the per-process compile cache they dominate the live heap and tax every
    later garbage-collection pass, which the telemetry-overhead assertion
    below would misread as telemetry cost.
    """
    yield
    _CACHE.clear()
    gc.collect()


#: (problem, items) pairs for the steady-state speedup matrix.  The horizons
#: are long enough for the certified-extrapolation win to dominate the fixed
#: replayed prefix; on an idle machine the measured speedup is ~5-6x per
#: problem (the >= 5x target of the steady evaluator), and the assertion floor
#: of 4x damps shared-runner scheduler noise the same way the 3x floor of
#: ``test_dse_compiled_speedup_on_chain`` does for its ~5x measurement.
STEADY_CASES = [
    ("didactic-periodic", 3000),
    ("chain-periodic", 4000),
    ("lte-periodic", 2800),
]


@pytest.mark.parametrize("problem_name,items", STEADY_CASES)
def test_dse_steady_speedup(
    problem_name, items, dse_bench, fresh_compile_cache, reference_sweep
):
    """Steady-state evaluation vs compiled replay on the periodic problems.

    Scores the same candidate batch through ``evaluator="auto"`` (replay
    until the periodic regime is certified, then exact arithmetic
    extrapolation) and ``evaluator="replay"`` (every iteration computed),
    both on the pure-Python reference sweep that steady mode runs on, so
    the ratio is the extrapolation's own; best-of-three plain timing,
    holds under ``--benchmark-disable``.  Every
    steady evaluation must actually have taken the steady path -- a silent
    fallback to replay would make the timing comparison meaningless -- and
    every evaluation must have patched the template exactly once.  Both
    modes' rows land in ``BENCH_dse.json``.
    """
    problem = get_problem(problem_name)
    parameters = {"items": items}
    space = problem.space(parameters)
    compiled = compiled_problem(problem, parameters)
    candidates = []  # warm-up doubles as selection: feasible + steady-capable
    for candidate in space.enumerate_candidates(limit=4 * BATCH):
        evaluation = compiled.evaluate(candidate, evaluator="auto")
        if evaluation.feasible and evaluation.evaluator == "steady":
            candidates.append(candidate)
        if len(candidates) == BATCH:
            break
    assert len(candidates) == BATCH

    best = {}
    with telemetry.collect(enable=True) as scope:
        # rows are labelled by the path the records name
        for mode, evaluator in (("replay", "replay"), ("steady", "auto")):
            best[mode] = float("inf")
            for _ in range(3):
                tick = time.perf_counter()
                for candidate in candidates:
                    compiled.evaluate(candidate, evaluator=evaluator)
                best[mode] = min(best[mode], time.perf_counter() - tick)
        snapshot = scope.snapshot()

    assert _counter(snapshot, "dse.steady.extrapolations") >= 3 * len(candidates)
    assert _counter(snapshot, "dse.steady.fallbacks") == 0
    assert _counter(snapshot, "dse.compile.specializations") == 6 * len(candidates)

    speedup = best["replay"] / best["steady"]
    for mode in ("replay", "steady"):
        dse_bench.append(
            {
                "problem": problem_name,
                "mode": mode,
                "batch": len(candidates),
                "items": items,
                "candidates_per_second": round(len(candidates) / best[mode], 1),
                "steady_speedup": round(speedup, 2) if mode == "steady" else None,
            }
        )
    assert speedup >= 4.0, (
        f"steady evaluation is only {speedup:.2f}x faster than compiled replay "
        f"on {problem_name} ({len(candidates) / best['steady']:.1f} vs "
        f"{len(candidates) / best['replay']:.1f} candidates/s)"
    )


#: (problem, items, batch size) for the batch-engine speedup matrix.  The
#: chain problem carries the assertion: its near-sequential pipeline is the
#: *worst* case for vectorisation (33 dependency levels, at most 2 positions
#: wide), so a speedup here is a floor, not a cherry-picked peak.  The batch
#: is large because the numpy sweep's per-iteration cost is independent of
#: the candidate count -- exactly the regime an NSGA-II generation hits.
BATCH_CASES = [
    ("didactic", 50, 64),
    ("chain", 200, 256),
]

#: Feasible candidates + lowered programs per problem, shared between the
#: two sweeps' parametrisations.
_batch_fixtures = {}

#: Interleaved (equivalent model, array sweep) timing pairs per case.
BATCH_PAIRS = 7

#: Specs the event-driven equivalent model runs per timing pair (and programs
#: the sweep replays against it): the model costs ~17 ms per chain candidate
#: at 200 items, so the whole batch would dominate the benchmark run.
MODEL_SPECS = 32


def _batch_fixture(problem_name, items, batch):
    if problem_name in _batch_fixtures:
        return _batch_fixtures[problem_name]
    problem = get_problem(problem_name)
    parameters = {"items": items}
    space = problem.space(parameters, explore_orders=False)
    compiled = compiled_problem(problem, parameters)
    base = []
    for candidate in space.enumerate_candidates():
        if compiled.evaluate(candidate).feasible:
            base.append(candidate)
        if len(base) == BATCH:
            break
    # An NSGA-II generation is larger than the enumerable feasible prefix;
    # cycling candidates keeps the sweep workload realistic (timing only --
    # the identity properties are asserted elsewhere on distinct candidates).
    candidates = (base * (batch // len(base) + 1))[:batch]
    # The equivalent model runs on each candidate's object graph (the
    # reference specialisation); the sweep replays the candidate's patch
    # over the lowered template, exactly as evaluate_batch lowers it.
    fresh = {id(c): compiled.specialize(c) for c in base}
    specs = [fresh[id(c)] for c in candidates]
    programs = [compiled._lower(candidate, "replay") for candidate in candidates]
    fixture = (compiled, candidates, specs, programs)
    _batch_fixtures[problem_name] = fixture
    return fixture


@pytest.mark.parametrize("backend", ["python", "numpy"], indirect=True)
@pytest.mark.parametrize("problem_name,items,batch", BATCH_CASES)
def test_dse_batch_speedup(problem_name, items, batch, backend, dse_bench):
    """The batched array sweep vs the paper's event-driven equivalent model.

    Runs once per sweep (the ``backend`` fixture of the repository
    ``conftest.py``): ``python`` marks the kernel unavailable, so every
    program is swept by the pure-Python reference; ``numpy`` sweeps with
    the compiled kernel.  Two ratios per problem x sweep, both into
    ``BENCH_dse.json``:

    * ``batch_speedup`` -- the scoring *stage* alone: one
      :func:`~repro.dse.engine.replay_batch` sweep over the first
      ``MODEL_SPECS`` lowered programs against running the paper's
      :class:`~repro.core.EquivalentArchitectureModel` (simulation kernel,
      Reception/Emission processes, ``ComputeInstant()`` per iteration) on
      the same specs.  This is the engine's own win, asserted on chain
      (worst-case, near sequential pipeline): pure Python >= 4.3x,
      kernel >= 8.6x.
    * ``end_to_end_speedup`` -- ``evaluate_batch`` against the
      per-candidate ``evaluate`` loop (batches of one) on the same sweep,
      including the per-candidate specialise/lower/assemble work batching
      cannot remove (Amdahl bound around 2.5x on chain), so throughput
      readers see the whole story and not just the kernel figure.

    Plain best-of-N timing; holds under ``--benchmark-disable``.  The model
    and the sweep are timed in interleaved pairs inside the test, so a slow
    spell of a shared host stretches both sides of ``batch_speedup`` alike.
    The kernel parametrisation skips (not fails) without numpy or a C
    compiler -- the pure-Python path is the reference and keeps the install
    zero-dependency.
    """
    from repro.core import EquivalentArchitectureModel
    from repro.dse.engine import replay_batch

    compiled, candidates, specs, programs = _batch_fixture(problem_name, items, batch)
    best_model = best_sweep = float("inf")
    for _ in range(BATCH_PAIRS):
        tick = time.perf_counter()
        for spec in specs[:MODEL_SPECS]:  # the paper's event-driven equivalent model
            EquivalentArchitectureModel(
                spec.architecture,
                compiled.stimuli,
                spec=spec,
                observe_resources=True,
                record_activity=False,
            ).run()
        best_model = min(best_model, time.perf_counter() - tick)
        tick = time.perf_counter()
        replay_batch(programs[:MODEL_SPECS])
        best_sweep = min(best_sweep, time.perf_counter() - tick)
    best_single = best_batch = float("inf")
    for _ in range(3):
        tick = time.perf_counter()
        for candidate in candidates:  # the pre-batch-engine inner loop
            compiled.evaluate(candidate)
        best_single = min(best_single, time.perf_counter() - tick)
        tick = time.perf_counter()
        evaluations = compiled.evaluate_batch(candidates)
        best_batch = min(best_batch, time.perf_counter() - tick)
    assert all(evaluation.feasible for evaluation in evaluations)
    assert {evaluation.backend for evaluation in evaluations} == {backend}

    batch_speedup = best_model / best_sweep
    end_to_end = best_single / best_batch
    dse_bench.append(
        {
            "problem": problem_name,
            "mode": "batch",
            "backend": backend,
            "batch": len(candidates),
            "items": items,
            "candidates_per_second": round(len(candidates) / best_batch, 1),
            "batch_speedup": round(batch_speedup, 2),
            "end_to_end_speedup": round(end_to_end, 2),
        }
    )
    if problem_name == "chain":
        floor = 8.6 if backend == "numpy" else 4.3
        assert batch_speedup >= floor, (
            f"the {backend} array sweep is only {batch_speedup:.2f}x the "
            f"equivalent model on chain (floor {floor}x; "
            f"end-to-end {end_to_end:.2f}x)"
        )


@pytest.mark.parametrize("mode", ["compiled", "explicit"])
@pytest.mark.parametrize("problem_name", ["didactic", "chain"])
def test_dse_throughput_matrix(problem_name, mode, dse_bench):
    """Candidates/second per problem x evaluator mode, into ``BENCH_dse.json``.

    Best-of-three plain timing (holds under ``--benchmark-disable``); the
    batch is scored inside a telemetry scope so the entry carries the
    observed evaluation count and template-cache hit rate next to the
    throughput figure.
    """
    assert not telemetry.enabled()  # off by default -- the zero-cost baseline
    problem = get_problem(problem_name)
    parameters = {"items": DSE_ITEMS}
    space = problem.space(parameters, explore_orders=False)
    candidates = list(space.enumerate_candidates(limit=BATCH))
    compiled = mode == "compiled"
    for candidate in candidates:  # warm the template cache outside the timing
        assert evaluate_candidate(problem, candidate, parameters, compiled=compiled).feasible

    best = float("inf")
    with telemetry.collect(enable=True) as scope:
        for _ in range(3):
            tick = time.perf_counter()
            for candidate in candidates:
                evaluate_candidate(problem, candidate, parameters, compiled=compiled)
            best = min(best, time.perf_counter() - tick)
        snapshot = scope.snapshot()

    hits = _counter(snapshot, "dse.compile.cache_hits")
    misses = _counter(snapshot, "dse.compile.cache_misses")
    dse_bench.append(
        {
            "problem": problem_name,
            "mode": mode,
            "batch": BATCH,
            "items": DSE_ITEMS,
            "candidates_per_second": round(BATCH / best, 1),
            "evaluations": _counter(snapshot, "dse.evaluate.evaluations"),
            "cache_hit_rate": round(hits / (hits + misses), 4) if hits + misses else None,
        }
    )


def test_dse_telemetry_overhead_under_five_percent(dse_bench, monkeypatch):
    """Enabled telemetry must cost < 5% on the compiled inner loop.

    The estimator measures the telemetry calls themselves instead of the
    difference between two whole-loop timings (that difference is a few
    tenths of a percent, far below a shared host's loop-to-loop noise).  One
    enabled batch runs with recording wrappers around ``telemetry.count``,
    ``gauge``, ``observe_ns`` and ``span``, which capture every call it
    makes, arguments included.  The overhead is then the best-of-N time of
    replaying exactly those calls in an enabled scope, divided by the
    best-of-N time of the batch with telemetry disabled.  The replay times
    enabled calls, not their disabled no-op cost that the disabled batch
    already pays, so the estimate is an upper bound.  The batch replays
    more items than the throughput cases so the workload dominates the
    timer granularity.
    """
    assert not telemetry.enabled()
    problem = get_problem("didactic")
    parameters = {"items": 6 * DSE_ITEMS}
    space = problem.space(parameters, explore_orders=False)
    candidates = list(space.enumerate_candidates(limit=BATCH))
    compiled = compiled_problem(problem, parameters)
    for candidate in candidates:  # warm the template and duration tables
        assert compiled.evaluate(candidate).feasible

    best_off = float("inf")
    for _ in range(7):
        with telemetry.collect(enable=False):
            tick = time.perf_counter()
            for candidate in candidates:
                compiled.evaluate(candidate)
            best_off = min(best_off, time.perf_counter() - tick)

    calls = []
    for name in ("count", "gauge", "observe_ns", "span"):
        original = getattr(telemetry, name)

        def recording(*args, _original=original, **kwargs):
            calls.append((_original, args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(telemetry, name, recording)
    with telemetry.collect(enable=True):
        for candidate in candidates:
            compiled.evaluate(candidate)
    monkeypatch.undo()
    spans = [(call, args, kwargs) for call, args, kwargs in calls if call is telemetry.span]
    points = [(call, args, kwargs) for call, args, kwargs in calls if call is not telemetry.span]
    assert spans and points  # the loop is instrumented

    best_calls = float("inf")
    for _ in range(15):
        with telemetry.collect(enable=True):
            tick = time.perf_counter()
            for call, args, kwargs in points:
                call(*args, **kwargs)
            for call, args, kwargs in spans:
                with call(*args, **kwargs):
                    pass
            best_calls = min(best_calls, time.perf_counter() - tick)

    overhead = best_calls / best_off
    best_on = best_off + best_calls  # for the failure message
    dse_bench.append(
        {
            "problem": "didactic",
            "mode": "compiled",
            "metric": "telemetry_overhead",
            "overhead_fraction": round(overhead, 4),
        }
    )
    assert overhead < 0.05, (
        f"telemetry costs {overhead:.1%} on the compiled inner loop "
        f"({best_on * 1e3:.2f} ms vs {best_off * 1e3:.2f} ms per batch)"
    )
