"""Unit tests for exploration checkpoints and strategy state round-trips."""

import json
import logging

import pytest

from repro.dse import (
    CheckpointFile,
    ExplorationCheckpoint,
    Observation,
    get_problem,
    make_strategy,
)
from repro.dse.checkpoint import CHECKPOINT_VERSION
from repro.errors import ModelError

STRATEGIES = ["exhaustive", "random", "annealing", "nsga2"]


@pytest.fixture()
def space():
    return get_problem("didactic").space({"items": 6})


def drive(strategy, rounds: int = 3, budget_left: int = 64):
    """Run a few propose/observe rounds with synthetic objective vectors."""
    proposed = []
    for round_index in range(rounds):
        batch = strategy.propose(budget_left)
        if not batch:
            break
        proposed.extend(batch)
        strategy.observe(
            [
                Observation(
                    candidate=candidate,
                    vector=(1000.0 * (round_index + 1) + 10.0 * position, float(position % 4 + 1)),
                    feasible=True,
                )
                for position, candidate in enumerate(batch)
            ]
        )
    return proposed


class TestStrategyStateRoundTrip:
    """restore(state()) continues the identical proposal stream."""

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_state_restores_the_proposal_stream(self, space, name):
        original = make_strategy(name, space, seed=11)
        drive(original, rounds=2)
        snapshot = original.state()

        clone = make_strategy(name, space, seed=11)
        clone.restore(json.loads(json.dumps(snapshot)))  # through JSON, like disk

        next_original = [c.digest() for c in original.propose(32)]
        next_clone = [c.digest() for c in clone.propose(32)]
        assert next_original == next_clone

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_restore_into_a_used_strategy_matches_a_fresh_restore(self, space, name):
        # nsga2 with a population of 6 truncates in its second round, so the
        # used strategy holds ranks cached for a population restore replaces.
        options = {"population_size": 6} if name == "nsga2" else {}
        source = make_strategy(name, space, seed=11, **options)
        drive(source, rounds=1)
        snapshot = source.state()

        used = make_strategy(name, space, seed=11, **options)
        drive(used, rounds=3)
        used.restore(snapshot)
        fresh = make_strategy(name, space, seed=11, **options)
        fresh.restore(snapshot)
        assert [c.digest() for c in drive(used)] == [c.digest() for c in drive(fresh)]

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_state_is_json_safe(self, space, name):
        strategy = make_strategy(name, space, seed=3)
        drive(strategy, rounds=2)
        text = json.dumps(strategy.state(), sort_keys=True)
        assert json.loads(text)["strategy"] == name

    def test_restore_rejects_a_mismatched_strategy(self, space):
        annealing = make_strategy("annealing", space, seed=0)
        random_state = make_strategy("random", space, seed=0).state()
        with pytest.raises(ModelError, match="random.*annealing|annealing.*random"):
            annealing.restore(random_state)

    def test_exhaustive_cursor_replay_checks_the_space(self, space):
        strategy = make_strategy("exhaustive", space, seed=0)
        oversized = {"strategy": "exhaustive", "cursor": 10_000, "exhausted": False}
        with pytest.raises(ModelError, match="cursor"):
            strategy.restore(oversized)

    def test_exhaustive_cursor_resumes_mid_enumeration(self, space):
        strategy = make_strategy("exhaustive", space, seed=0)
        first = strategy.propose(10)
        snapshot = strategy.state()
        assert snapshot["cursor"] == 10

        clone = make_strategy("exhaustive", space, seed=0)
        clone.restore(snapshot)
        continued = [c.digest() for c in clone.propose(10)]
        reference = [c.digest() for c in strategy.propose(10)]
        assert continued == reference
        assert {c.digest() for c in first}.isdisjoint(continued)

    def test_annealing_state_keeps_current_point_and_temperature(self, space):
        strategy = make_strategy("annealing", space, seed=5)
        drive(strategy, rounds=2)
        snapshot = strategy.state()
        assert snapshot["current"] is not None
        clone = make_strategy("annealing", space, seed=5)
        clone.restore(snapshot)
        assert clone.temperature == strategy.temperature
        assert clone._current == strategy._current
        assert clone._current_score == strategy._current_score

    def test_nsga_state_keeps_the_population(self, space):
        strategy = make_strategy("nsga2", space, seed=5, population_size=6)
        drive(strategy, rounds=2)
        snapshot = strategy.state()
        assert snapshot["generation"] == 2
        clone = make_strategy("nsga2", space, seed=5, population_size=6)
        clone.restore(snapshot)
        assert [(c.digest(), v) for c, v in clone.population()] == [
            (c.digest(), v) for c, v in strategy.population()
        ]


def checkpoint(**overrides) -> ExplorationCheckpoint:
    base = dict(
        problem="didactic",
        strategy="random",
        seed=7,
        parameters={"items": 6},
        objectives=[["latency_ps", "latency"], ["resources_used", "resources"]],
        max_resources=None,
        explore_orders=True,
        strict=True,
        strategy_options={},
        budget=64,
        spent=12,
        rounds=2,
        stale_rounds=0,
        evaluated=12,
        cache_hits=0,
        infeasible=0,
        errors=0,
        results=[["cand1", "job1", True], ["cand2", "job2", True]],
        front=["cand1"],
        strategy_state={"strategy": "random", "rng": [3, [0] * 625, None]},
    )
    base.update(overrides)
    return ExplorationCheckpoint(**base)


class TestExplorationCheckpoint:
    def test_record_round_trip(self):
        original = checkpoint()
        rebuilt = ExplorationCheckpoint.from_record(
            json.loads(json.dumps(original.to_record()))
        )
        assert rebuilt == original

    def test_from_record_rejects_other_versions(self):
        record = checkpoint().to_record()
        record["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ModelError, match="version"):
            ExplorationCheckpoint.from_record(record)

    def test_from_record_rejects_missing_fields(self):
        record = checkpoint().to_record()
        del record["strategy_state"]
        with pytest.raises(ModelError, match="missing or malformed"):
            ExplorationCheckpoint.from_record(record)

    def test_validate_against_names_every_mismatch(self):
        ck = checkpoint()
        expected = ck.config()
        ck.validate_against(expected)  # identical: fine
        expected = dict(expected)
        expected["strategy"] = "annealing"
        expected["seed"] = 8
        with pytest.raises(ModelError) as error:
            ck.validate_against(expected)
        assert "strategy" in str(error.value)
        assert "seed" in str(error.value)


class TestCheckpointFile:
    def test_write_then_load_newest_wins(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        file = CheckpointFile(path)
        assert file.load() is None
        file.write(checkpoint(spent=8))
        file.write(checkpoint(spent=16))
        loaded = CheckpointFile(path).load()
        assert loaded is not None
        assert loaded.spent == 16
        # atomic replace: the file stays one snapshot large however many
        # rounds were written
        assert len(path.read_text().splitlines()) == 1

    def test_load_reads_the_last_line_of_concatenated_files(self, tmp_path):
        # Concatenations of several runs' files (or appends by other tools)
        # still load: the last parseable line wins.
        path = tmp_path / "ck.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(checkpoint(spent=8).to_record()) + "\n")
            handle.write(json.dumps(checkpoint(spent=16).to_record()) + "\n")
        loaded = CheckpointFile(path).load()
        assert loaded is not None and loaded.spent == 16

    def test_corrupt_lines_are_skipped_with_a_warning(self, tmp_path, caplog):
        path = tmp_path / "ck.jsonl"
        file = CheckpointFile(path)
        file.write(checkpoint(spent=8))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "truncated...\n')
        reader = CheckpointFile(path)
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            loaded = reader.load()
        assert "corrupt" in caplog.text
        assert loaded is not None and loaded.spent == 8
        assert reader.skipped_lines == 1

    def test_reset_truncates(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        file = CheckpointFile(path)
        file.write(checkpoint())
        file.reset()
        assert not path.exists()
        assert file.load() is None
        file.reset()  # idempotent on a missing file
