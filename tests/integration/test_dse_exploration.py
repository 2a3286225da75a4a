"""Integration tests for design-space exploration (the ISSUE acceptance criteria).

* ``repro.cli dse run`` on the didactic problem explores the feasible
  subspace deterministically under a fixed seed and reports a non-trivial
  Pareto front (>= 2 points trading latency against resources used).  With
  feasibility-aware order sampling (``strict=True``, the default) random
  search proposes *no* order-infeasible candidate and saturates the
  feasible subspace (25 of the 315 didactic candidates) instead of
  spending most of the budget on zero-delay cycles;
* re-running against the same store evaluates 0 new candidates;
* the DSE evaluator's best-candidate instants exactly match an explicit
  event-driven simulation of that same mapping.
"""

import re


from repro.archmodel import ArchitectureModel
from repro.campaign import ResultStore
from repro.cli import main
from repro.dse import MappingExplorer, evaluate_mapping, get_problem
from repro.explicit import ExplicitArchitectureModel

BUDGET = 110
ITEMS = 12
SEED = 7


def explorer(store=None, strategy: str = "random") -> MappingExplorer:
    return MappingExplorer(
        problem="didactic",
        strategy=strategy,
        budget=BUDGET,
        seed=SEED,
        parameters={"items": ITEMS},
        store=store,
    )


class TestCliAcceptance:
    def test_dse_run_explores_and_caches(self, tmp_path, capsys):
        store = str(tmp_path / "dse.jsonl")
        argv = [
            "dse", "run", "--problem", "didactic", "--strategy", "random",
            "--budget", str(BUDGET), "--items", str(ITEMS), "--seed", str(SEED),
            "--store", store,
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        match = re.search(r"(\d+) candidates in \d+ rounds, (\d+) evaluated", output)
        assert match, output
        explored, evaluated = int(match.group(1)), int(match.group(2))
        # Feasibility-aware sampling: the random walk saturates the feasible
        # subspace (25 candidates) without proposing a single infeasible one.
        assert explored >= 20
        assert evaluated == explored  # cold store: everything was scored fresh
        assert re.search(r"\b0 infeasible", output)
        front_size = int(re.search(r"front size (\d+)", output).group(1))
        assert front_size >= 2

        # Second run, same store: identical exploration, zero new evaluations.
        assert main(argv) == 0
        rerun = capsys.readouterr().out
        assert f"{explored} candidates" in rerun
        assert re.search(r"0 evaluated", rerun)
        assert f"{explored} cache hits" in rerun

    def test_front_trades_latency_against_resources(self):
        report = explorer().run()
        points = report.front.points()
        assert len(points) >= 2
        latencies = [point.metrics["latency_ps"] for point in points]
        resources = [point.metrics["resources_used"] for point in points]
        # sorted by latency ascending, the resource counts must strictly fall:
        # every extra front point buys latency with more resources.
        assert latencies == sorted(latencies)
        assert resources == sorted(resources, reverse=True)
        assert len(set(resources)) == len(resources)


class TestDeterminism:
    def test_same_seed_same_exploration(self):
        first = explorer().run()
        second = explorer().run()
        assert [d for d, _ in first.entries()] == [d for d, _ in second.entries()]
        assert [p.digest for p in first.front.points()] == [
            p.digest for p in second.front.points()
        ]
        for (_, a), (_, b) in zip(first.entries(), second.entries()):
            assert a.get("latency_ps") == b.get("latency_ps")


class TestAccuracyAnchor:
    def test_best_candidate_matches_explicit_simulation(self):
        """The equivalent-model instants of the best mapping are exact."""
        report = explorer(strategy="exhaustive").run()
        best = report.best_candidate()
        assert best is not None

        problem = get_problem("didactic")
        resolved = problem.parameters({"items": ITEMS})
        computed = evaluate_mapping(
            problem.application_factory(resolved),
            problem.platform_factory(resolved),
            best,
            problem.stimuli_factory(resolved),
        )
        assert computed.feasible

        explicit = ExplicitArchitectureModel(
            ArchitectureModel(
                "dse-best-explicit",
                problem.application_factory(resolved),
                problem.platform_factory(resolved),
                best.build_mapping("best"),
            ),
            problem.stimuli_factory(resolved),
        )
        explicit.run()
        explicit_instants = [
            instant.picoseconds for instant in explicit.output_instants("M6")
        ]
        assert len(explicit_instants) == ITEMS
        assert list(computed.output_instants) == explicit_instants

    def test_every_front_point_matches_explicit_simulation(self):
        """Not just the best: each non-dominated mapping is instant-exact,
        over the *whole* output sequence, not just the final instant."""
        report = explorer().run()
        problem = get_problem("didactic")
        resolved = problem.parameters({"items": ITEMS})
        for point in report.front.points():
            candidate = point.payload
            computed = evaluate_mapping(
                problem.application_factory(resolved),
                problem.platform_factory(resolved),
                candidate,
                problem.stimuli_factory(resolved),
            )
            explicit = ExplicitArchitectureModel(
                ArchitectureModel(
                    "front-explicit",
                    problem.application_factory(resolved),
                    problem.platform_factory(resolved),
                    candidate.build_mapping("front"),
                ),
                problem.stimuli_factory(resolved),
            )
            explicit.run()
            explicit_instants = [
                instant.picoseconds for instant in explicit.output_instants("M6")
            ]
            assert list(computed.output_instants) == explicit_instants
            assert explicit_instants[-1] == point.metrics["latency_ps"]


class TestStoreInterop:
    def test_different_strategies_share_the_store(self, tmp_path):
        store_path = tmp_path / "dse.jsonl"
        # Cover the whole space (315 candidates) so any later proposal hits.
        exhaustive = MappingExplorer(
            problem="didactic",
            strategy="exhaustive",
            budget=400,
            parameters={"items": ITEMS},
            store=ResultStore(store_path),
        ).run()
        assert exhaustive.evaluated == exhaustive.explored == 315
        # Random search over the same problem + store: every candidate it
        # proposes was already scored by the exhaustive pass.
        random_run = explorer(store=ResultStore(store_path)).run()
        assert random_run.evaluated == 0
        assert random_run.cache_hits == random_run.explored
