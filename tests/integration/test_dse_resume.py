"""Integration tests for resumable exploration (the ISSUE acceptance criteria).

* an exploration interrupted at a round boundary (``max_rounds``) and then
  resumed from its checkpoint is **bit-identical** to an uninterrupted run
  with the same seed -- same candidate digest sequence, same metrics, same
  front -- for every shipped strategy (exhaustive, random, annealing, nsga2);
* the CLI round-trips the same guarantee through ``dse run
  --checkpoint/--resume`` and ``dse front`` rebuilds the identical front
  from the store alone;
* an nsga2 run cut right after an observe that truncated its population
  resumes to the uninterrupted store, and its checkpoint holds no cached
  ranks or crowding distances;
* resume validation refuses mismatched configurations and missing stores;
* ``NsgaSearch`` reaches a 2D hypervolume at least as large as the
  annealing baseline on the didactic problem under an equal budget.
"""

import json
import re

import pytest

from repro.campaign import ResultStore
from repro.cli import main
from repro.dse import CheckpointFile, MappingExplorer, front_from_store, hypervolume_2d
from repro.errors import ModelError

ITEMS = 8
SEED = 7
BUDGET = 96

#: Round-boundary interruption points (strategy -> rounds before the cut).
INTERRUPTS = {"exhaustive": 2, "random": 2, "annealing": 5, "nsga2": 3}


def explorer(strategy: str, **overrides) -> MappingExplorer:
    options = dict(
        problem="didactic",
        strategy=strategy,
        budget=BUDGET,
        seed=SEED,
        parameters={"items": ITEMS},
    )
    options.update(overrides)
    return MappingExplorer(**options)


def digest_sequence(report):
    return [digest for digest, _ in report.entries()]


class TestInterruptAndResume:
    @pytest.mark.parametrize("strategy", sorted(INTERRUPTS))
    def test_resumed_run_is_bit_identical(self, tmp_path, strategy):
        straight = explorer(strategy).run()

        store_path = tmp_path / f"{strategy}.store.jsonl"
        ck_path = tmp_path / f"{strategy}.ck.jsonl"
        interrupted = explorer(
            strategy,
            max_rounds=INTERRUPTS[strategy],
            store=ResultStore(store_path),
            checkpoint=ck_path,
        ).run()
        assert 0 < interrupted.explored < straight.explored

        resumed = explorer(
            strategy,
            store=ResultStore(store_path),
            checkpoint=ck_path,
            resume=True,
        ).run()
        assert resumed.resumed

        # The combined candidate sequence matches the uninterrupted run...
        assert digest_sequence(resumed) == digest_sequence(straight)
        # ... with identical metrics candidate for candidate ...
        for (_, resumed_metrics), (_, straight_metrics) in zip(
            resumed.entries(), straight.entries()
        ):
            assert resumed_metrics == straight_metrics
        # ... and the identical front.
        assert resumed.front.digests() == straight.front.digests()
        assert resumed.front.vectors() == straight.front.vectors()
        assert resumed.rounds == straight.rounds

    def test_interrupted_prefix_matches_the_straight_run(self, tmp_path):
        straight = explorer("nsga2").run()
        interrupted = explorer(
            "nsga2",
            max_rounds=INTERRUPTS["nsga2"],
            store=ResultStore(tmp_path / "s.jsonl"),
            checkpoint=tmp_path / "ck.jsonl",
        ).run()
        prefix = digest_sequence(interrupted)
        assert prefix == digest_sequence(straight)[: len(prefix)]

    def test_checkpoint_tracks_the_newest_round(self, tmp_path):
        ck_path = tmp_path / "ck.jsonl"
        report = explorer(
            "random", store=ResultStore(tmp_path / "s.jsonl"), checkpoint=ck_path
        ).run()
        # Atomic per-round replace: one snapshot on disk, covering everything.
        assert len(ck_path.read_text().strip().splitlines()) == 1
        newest = CheckpointFile(ck_path).load()
        assert newest.rounds == report.rounds
        assert [entry[0] for entry in newest.results] == digest_sequence(report)
        assert newest.front == report.front.digests()


#: The keys of a checkpoint snapshot and of an nsga2 strategy state.  Ranks
#: carried from one round's observe to the next propose are a cache, never
#: part of the checkpoint.
CHECKPOINT_KEYS = {
    "budget", "cache_hits", "errors", "evaluated", "explore_orders", "front",
    "infeasible", "max_resources", "objectives", "parameters", "problem",
    "results", "rounds", "seed", "spent", "stale_rounds", "strategy",
    "strategy_options", "strategy_state", "strict", "version",
}
NSGA_STATE_KEYS = {"generation", "population", "rng", "strategy"}
POPULATION = 16  # NsgaSearch's default population_size


class TestResumeAfterTruncation:
    """nsga2 interrupted right after an observe that truncated its population."""

    @pytest.mark.parametrize(
        "problem, parameters, rounds",
        [
            ("chain", {"items": ITEMS}, 3),
            ("lte", {"items": 4, "processors": 3, "dsps": 3}, 2),  # three objectives
        ],
        ids=["chain", "lte"],
    )
    def test_resumed_store_equals_the_straight_store(
        self, tmp_path, problem, parameters, rounds
    ):
        def run(store_path, **options):
            return MappingExplorer(
                problem,
                strategy="nsga2",
                budget=BUDGET,
                seed=SEED,
                parameters=parameters,
                store=ResultStore(store_path),
                **options,
            ).run()

        straight = run(tmp_path / "straight.jsonl")
        ck_path = tmp_path / "ck.jsonl"
        run(tmp_path / "resumed.jsonl", max_rounds=rounds, checkpoint=ck_path)

        snapshot = json.loads(ck_path.read_text())
        assert set(snapshot) == CHECKPOINT_KEYS
        state = snapshot["strategy_state"]
        assert set(state) == NSGA_STATE_KEYS
        assert all(set(entry) == {"candidate", "vector"} for entry in state["population"])
        # Each round proposes at most POPULATION candidates, so more feasible
        # candidates than the earlier rounds could hold means the last round
        # brought fresh ones into a full population: its observe truncated.
        feasible = len(snapshot["results"]) - snapshot["infeasible"] - snapshot["errors"]
        assert len(state["population"]) == POPULATION
        assert feasible > (rounds - 1) * POPULATION

        resumed = run(tmp_path / "resumed.jsonl", checkpoint=ck_path, resume=True)
        assert resumed.resumed
        assert digest_sequence(resumed) == digest_sequence(straight)
        assert resumed.front.digests() == straight.front.digests()
        stores = [ResultStore(tmp_path / name) for name in ("straight.jsonl", "resumed.jsonl")]
        assert stores[0].digests() == stores[1].digests()
        for key in stores[0].digests():
            first, second = (store.get(key) for store in stores)
            for field in ("metrics", "instants_digest", "backend", "job_digest"):
                assert first[field] == second[field], (key, field)


class TestResumeValidation:
    def test_resume_needs_checkpoint_and_store(self, tmp_path):
        with pytest.raises(ModelError, match="checkpoint"):
            explorer("random", resume=True).run()
        with pytest.raises(ModelError, match="store"):
            explorer("random", resume=True, checkpoint=tmp_path / "ck.jsonl").run()

    def test_resume_rejects_a_missing_checkpoint(self, tmp_path):
        with pytest.raises(ModelError, match="absent or empty"):
            explorer(
                "random",
                resume=True,
                checkpoint=tmp_path / "nope.jsonl",
                store=ResultStore(tmp_path / "s.jsonl"),
            ).run()

    def test_resume_rejects_a_mismatched_configuration(self, tmp_path):
        store_path, ck_path = tmp_path / "s.jsonl", tmp_path / "ck.jsonl"
        explorer(
            "random", max_rounds=1, store=ResultStore(store_path), checkpoint=ck_path
        ).run()
        with pytest.raises(ModelError, match="seed"):
            explorer(
                "random",
                seed=SEED + 1,
                resume=True,
                store=ResultStore(store_path),
                checkpoint=ck_path,
            ).run()
        with pytest.raises(ModelError, match="strategy"):
            explorer(
                "annealing",
                resume=True,
                store=ResultStore(store_path),
                checkpoint=ck_path,
            ).run()

    def test_resume_rejects_a_store_missing_the_results(self, tmp_path):
        store_path, ck_path = tmp_path / "s.jsonl", tmp_path / "ck.jsonl"
        explorer(
            "random", max_rounds=1, store=ResultStore(store_path), checkpoint=ck_path
        ).run()
        with pytest.raises(ModelError, match="missing job"):
            explorer(
                "random",
                resume=True,
                store=ResultStore(tmp_path / "other.jsonl"),
                checkpoint=ck_path,
            ).run()


class TestCliResume:
    def argv(self, tmp_path, *extra):
        return [
            "dse", "run", "--problem", "didactic", "--strategy", "nsga2",
            "--budget", str(BUDGET), "--items", str(ITEMS), "--seed", str(SEED),
            "--store", str(tmp_path / "s.jsonl"),
            "--checkpoint", str(tmp_path / "ck.jsonl"),
            *extra,
        ]

    def test_cli_interrupt_resume_and_front(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, "--rounds", "3")) == 0
        capsys.readouterr()
        assert main(self.argv(tmp_path, "--resume")) == 0
        resumed_out = capsys.readouterr().out
        assert "# resumed from checkpoint" in resumed_out

        # An uninterrupted CLI run in a fresh directory matches exactly.
        straight_dir = tmp_path / "straight"
        straight_dir.mkdir()
        assert main(self.argv(straight_dir)) == 0
        capsys.readouterr()
        resumed_ck = CheckpointFile(tmp_path / "ck.jsonl").load()
        straight_ck = CheckpointFile(straight_dir / "ck.jsonl").load()
        assert [e[0] for e in resumed_ck.results] == [e[0] for e in straight_ck.results]
        assert resumed_ck.front == straight_ck.front

        # 'dse front' rebuilds the same front from the store alone.
        assert main(["dse", "front", "--store", str(tmp_path / "s.jsonl")]) == 0
        front_out = capsys.readouterr().out
        match = re.search(r"front size (\d+), hypervolume", front_out)
        assert match
        assert int(match.group(1)) == len(straight_ck.front)
        # The store scan visits digest-sorted, not first-evaluation, order, so
        # objective ties may elect a different representative -- the front's
        # vector set is the well-defined invariant.
        front, _, problems, contexts, _ = front_from_store(ResultStore(tmp_path / "s.jsonl"))
        straight_front, _, _, _, _ = front_from_store(ResultStore(straight_dir / "s.jsonl"))
        assert problems == {"didactic"}
        assert len(contexts) == 1  # one problem parameterisation in the store
        assert front.vectors() == straight_front.vectors()


class TestFrontQuality:
    def test_nsga2_hypervolume_at_least_matches_annealing(self):
        """Equal budget, shared reference point: population search must not
        lose to the single-ray annealing baseline on front quality."""
        annealing = explorer("annealing", parameters={"items": 12}).run()
        nsga = explorer("nsga2", parameters={"items": 12}).run()
        union = annealing.front.vectors() + nsga.front.vectors()
        assert union
        reference = tuple(
            max(vector[axis] for vector in union) + 1.0 for axis in range(2)
        )
        annealing_volume = hypervolume_2d(annealing.front.vectors(), reference)
        nsga_volume = hypervolume_2d(nsga.front.vectors(), reference)
        assert nsga_volume >= annealing_volume > 0.0
        # The population spreads over the trade-off: its front covers at
        # least as many distinct resource counts as the annealing ray found.
        nsga_resources = {vector[1] for vector in nsga.front.vectors()}
        annealing_resources = {vector[1] for vector in annealing.front.vectors()}
        assert len(nsga_resources) >= len(annealing_resources)
