"""Integration tests for steady-state evaluation (the ISSUE acceptance criteria).

* the (max, +) spectral predictor agrees with replay: across the whole
  didactic-periodic design space, the asymptotic inter-output time of a
  replayed evaluation equals ``max(lambda, T)`` from the candidate's
  spectral analysis -- Karp's eigenvalue against the measured regime;
* a steady-mode exploration produces the **bit-identical** Pareto front
  of a replay-mode exploration under the same seed and budget, while
  actually extrapolating (not silently falling back);
* steady-mode job records carry their provenance into the store and
  ``front_from_store`` reports the modes per candidate.
"""

from fractions import Fraction

import pytest

from repro import telemetry
from repro.campaign import ResultStore
from repro.dse import CompiledProblem, MappingExplorer, front_from_store, get_problem
from repro.dse.compile import _CACHE, _TabulatedWeight
from repro.maxplus import spectral_analysis

PROBLEM = "didactic-periodic"
ITEMS = 30


@pytest.fixture(autouse=True)
def clear_compile_cache():
    _CACHE.clear()
    yield
    _CACHE.clear()


class TestSpectralPredictsReplay:
    def test_asymptotic_output_rate_equals_the_spectral_cycle_time(self):
        """Property over the full didactic-periodic space: for every feasible
        candidate the replayed regime settles on exactly ``max(lambda, T)``."""
        params = {"items": ITEMS}
        problem = get_problem(PROBLEM)
        compiled = CompiledProblem(problem, params)
        horizon = min(len(s) for s in compiled.stimuli.values())
        period = max(s.offer_period_ps() for s in compiled.stimuli.values())

        def weight_of(arc):
            if arc.is_constant:
                return arc.constant_weight.picoseconds
            table = arc.weight_callable
            assert isinstance(table, _TabulatedWeight)
            constant = table.constant_stream_ps(horizon)
            assert constant is not None  # the steady gate proved this problem
            return constant

        checked = 0
        for candidate in problem.space(params).enumerate_candidates():
            evaluation = compiled.evaluate(candidate, evaluator="replay")
            if not evaluation.feasible:
                continue
            spec = compiled.specialize(candidate)
            analysis = spectral_analysis(spec.graph, weight_of=weight_of)
            instants = evaluation.output_instants
            observed = Fraction(instants[-1] - instants[-2])
            assert analysis.cycle_time_ps(period) == observed, candidate.describe()
            checked += 1
        assert checked >= 20  # the property quantified over a real space


def explore(evaluator, store=None):
    return MappingExplorer(
        problem=PROBLEM,
        strategy="nsga2",
        budget=64,
        seed=11,
        parameters={"items": ITEMS},
        evaluator=evaluator,
        store=store,
    ).run()


@pytest.fixture(scope="module")
def replay():
    """The replay-mode exploration, swept as this process sweeps by default
    (module-scoped, so it is built before any test forces a sweep)."""
    return explore("replay")


class TestSteadyFrontIdentity:
    def test_steady_front_is_bit_identical_to_replay(self, replay):
        with telemetry.collect(enable=True) as scope:
            steady = explore("auto")
            counters = scope.snapshot()["counters"]
        assert counters.get("dse.steady.extrapolations", 0) > 0
        assert steady.front.digests() == replay.front.digests()
        assert steady.front.vectors() == replay.front.vectors()
        assert [d for d, _ in steady.entries()] == [d for d, _ in replay.entries()]
        for (_, steady_metrics), (_, replay_metrics) in zip(
            steady.entries(), replay.entries()
        ):
            assert steady_metrics == replay_metrics

    def test_steady_interop_with_the_array_backends(self, replay, backend):
        """Steady certificates and both sweeps cooperate: a steady
        exploration on either sweep (steady extrapolation where the
        certificate holds, that sweep where it does not) reproduces the
        default-sweep replay-mode front bit for bit."""
        steady = explore("auto")
        assert steady.front.digests() == replay.front.digests()
        assert steady.front.vectors() == replay.front.vectors()
        for (_, steady_metrics), (_, replay_metrics) in zip(
            steady.entries(), replay.entries()
        ):
            assert steady_metrics == replay_metrics

    def test_store_records_carry_the_mode_into_the_front(self, tmp_path):
        store = ResultStore(tmp_path / "steady.jsonl")
        report = explore("auto", store=store)
        front, entries, problems, contexts, evaluators = front_from_store(store)
        assert problems == {PROBLEM}
        assert len(contexts) == 1
        assert front.vectors() == report.front.vectors()
        assert set(evaluators) == {digest for digest, _ in entries}
        assert set(evaluators.values()) <= {"steady", "replay"}
        assert "steady" in evaluators.values()
