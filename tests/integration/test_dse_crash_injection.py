"""Crash injection: an exploration killed at any byte of its persistence resumes exactly.

The crashed run records, at every ``os.fsync`` it makes, what each of its
four files holds (*written*) and what an earlier fsync made durable.  A
power cut just before that fsync may leave any prefix of an append-only
file between its durable and its written length, and either the durable
or the freshly renamed checkpoint.  Each such state is rebuilt in a fresh
directory and resumed to the end; the resumed exploration must equal an
uninterrupted one, and nothing durable may be lost.
"""

import os
import random
import shutil
import stat

import pytest

from repro import jsonl
from repro.campaign import ResultStore
from repro.dse import CheckpointFile, MappingExplorer
from repro.telemetry import ConvergenceTrace, RunLedger

ROUNDS_BEFORE_CRASH = 2  # the crash hits round 2's persistence, after checkpoint 1
OFFSETS_PER_WINDOW = 12  # seeded sample of byte offsets inside each unsynced window

APPENDED = ("store", "conv", "ledger")
NAMES = {
    "store": "dse.jsonl",
    "conv": "dse.conv.jsonl",
    "ledger": "ledger.jsonl",
    "ck": "dse.ck.jsonl",
}


def explorer(directory, **overrides):
    options = dict(
        problem="chain",
        strategy="nsga2",
        budget=64,
        seed=7,
        parameters={"items": 8},
        store=ResultStore(directory / NAMES["store"]),
        checkpoint=directory / NAMES["ck"],
        convergence=directory / NAMES["conv"],
        ledger=directory / NAMES["ledger"],
    )
    options.update(overrides)
    return MappingExplorer(**options)


def read_bytes(path):
    return path.read_bytes() if path.exists() else None


def store_view(path):
    store = ResultStore(path)
    return {
        digest: (store.get(digest)["instants_digest"], store.get(digest)["metrics"])
        for digest in store.digests()
    }


def record_crash_points(directory, monkeypatch):
    """Run to the crash round, returning ``(durable, written)`` at every fsync."""
    paths = {name: directory / file for name, file in NAMES.items()}
    durable = {name: b"" for name in APPENDED}
    durable["ck"] = None
    points = []
    real_fsync = os.fsync

    def fsync(fd):
        written = {name: read_bytes(path) or b"" for name, path in paths.items()}
        written["ck"] = read_bytes(paths["ck"])
        points.append((dict(durable), written))
        real_fsync(fd)
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            durable["ck"] = read_bytes(paths["ck"])  # the rename is durable now
            return
        for name in APPENDED:
            path = paths[name]
            if path.exists() and os.path.samestat(info, path.stat()):
                durable[name] = path.read_bytes()

    monkeypatch.setattr(os, "fsync", fsync)
    explorer(directory, max_rounds=ROUNDS_BEFORE_CRASH).run()
    monkeypatch.undo()
    return points


def crash_states(points):
    """``(label, files, durable)`` for every sampled crash state after checkpoint r-1."""
    rng = random.Random(2014)
    states = []
    for index, (durable, written) in enumerate(points):
        if durable["ck"] is None:
            continue  # before checkpoint r-1: out of this test's window
        checkpoints = {durable["ck"], written["ck"]} - {None}
        unsynced = [name for name in APPENDED if durable[name] != written[name]]
        if not unsynced:
            for checkpoint in sorted(checkpoints):
                files = dict(written, ck=checkpoint)
                states.append((f"fsync {index}: synced", files, durable))
        for name in unsynced:
            low, high = len(durable[name]), len(written[name])
            assert written[name][:low] == durable[name], f"{name} was rewritten"
            window = range(low, high + 1)
            edges = {low, low + 1, high - 1, high}
            sample = rng.sample(window, min(OFFSETS_PER_WINDOW, len(window)))
            for offset in sorted(edges | set(sample)):
                for checkpoint in sorted(checkpoints):
                    files = dict(written, ck=checkpoint)
                    files[name] = written[name][:offset]
                    states.append((f"fsync {index}: {name} cut at {offset}", files, durable))
    return states


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    directory = tmp_path_factory.mktemp("straight")
    report = explorer(directory).run()
    return report, store_view(directory / NAMES["store"])


def test_a_crash_at_any_byte_resumes_to_the_uninterrupted_run(
    tmp_path, monkeypatch, uninterrupted
):
    straight, straight_store = uninterrupted
    crashed = tmp_path / "crashed"
    crashed.mkdir()
    points = record_crash_points(crashed, monkeypatch)
    states = crash_states(points)
    windows = {label.split(": ")[1].split(" ")[0] for label, _, _ in states}
    assert windows >= {"store", "conv", "ledger"}, windows

    for number, (label, files, durable) in enumerate(states):
        directory = tmp_path / f"state{number}"
        directory.mkdir()
        for name, content in files.items():
            (directory / NAMES[name]).write_bytes(content)
        resumed = explorer(directory, resume=True).run()

        assert resumed.front.digests() == straight.front.digests(), label
        assert resumed.front.vectors() == straight.front.vectors(), label
        assert (resumed.explored, resumed.rounds) == (straight.explored, straight.rounds), label
        final_store = store_view(directory / NAMES["store"])
        assert final_store == straight_store, label
        # Nothing durable before the crash is lost from any file.
        durable_dir = tmp_path / f"durable{number}"
        durable_dir.mkdir()
        for name in APPENDED:
            (durable_dir / NAMES[name]).write_bytes(durable[name])
        durable_store = ResultStore(durable_dir / NAMES["store"])
        assert set(durable_store.digests()) <= set(final_store), label
        rounds = ConvergenceTrace(directory / NAMES["conv"]).load()
        assert sorted({record["round"] for record in rounds}) == list(
            range(1, straight.rounds + 1)
        ), label
        durable_rounds, _ = jsonl.read(durable_dir / NAMES["conv"], "durable trace")
        assert rounds[: len(durable_rounds)] == durable_rounds, label
        runs = [run.run_id for run in RunLedger(directory / NAMES["ledger"]).load()]
        durable_runs = [run.run_id for run in RunLedger(durable_dir / NAMES["ledger"]).load()]
        assert runs[: len(durable_runs)] == durable_runs, label
        assert runs[-1] == resumed.manifest.run_id, label
        shutil.rmtree(directory)
        shutil.rmtree(durable_dir)


def test_every_checkpoint_names_only_records_already_on_disk(tmp_path):
    store_path = tmp_path / NAMES["store"]
    written = []

    class CheckedCheckpoint(CheckpointFile):
        def write(self, checkpoint):
            on_disk = ResultStore(store_path)
            for _candidate, job_digest, ok in checkpoint.results:
                assert not ok or job_digest in on_disk
            written.append(checkpoint.rounds)
            super().write(checkpoint)

    report = explorer(tmp_path, checkpoint=CheckedCheckpoint(tmp_path / NAMES["ck"])).run()
    assert written == list(range(1, report.rounds + 1))
