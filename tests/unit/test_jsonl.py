"""Unit tests for the shared crash-safe JSONL module."""

import json
import logging
import multiprocessing
import os
import stat

from repro import jsonl
from repro.campaign import ResultStore


def _fsync_log(monkeypatch):
    """Wrap ``os.fsync`` (it still syncs) and return the list of fsynced kinds."""
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


class TestRead:
    def test_missing_file_reads_empty(self, tmp_path):
        assert jsonl.read(tmp_path / "absent.jsonl", "test file") == ([], 0)

    def test_skips_and_counts_corrupt_lines_with_one_warning(self, tmp_path, caplog):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\nnot json\n[1, 2]\n  \n{"a": 2}\n{"a": 3, "torn')
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            records, skipped = jsonl.read(path, "test file")
        assert records == [{"a": 1}, {"a": 2}]
        assert skipped == 3
        assert len(caplog.records) == 1
        assert "test file" in caplog.text and "skipped 3 corrupt" in caplog.text

    def test_records_failing_the_predicate_count_as_skipped(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n')
        records, skipped = jsonl.read(path, "test file", lambda record: "a" in record)
        assert records == [{"a": 1}] and skipped == 1

    def test_clean_file_logs_nothing(self, tmp_path, caplog):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n')
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            assert jsonl.read(path, "test file") == ([{"a": 1}], 0)
        assert caplog.text == ""


class TestAppend:
    def test_appends_whole_lines_with_one_fsync(self, tmp_path, monkeypatch):
        path = tmp_path / "nested" / "f.jsonl"
        calls = _fsync_log(monkeypatch)
        jsonl.append(path, ['{"a": 1}', '{"a": 2}'])
        jsonl.append(path, ['{"a": 3}'])
        assert path.read_text() == '{"a": 1}\n{"a": 2}\n{"a": 3}\n'
        assert calls == ["file", "file"]

    def test_nothing_to_append_touches_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "f.jsonl"
        calls = _fsync_log(monkeypatch)
        jsonl.append(path, [])
        assert not path.exists() and calls == []

    def test_a_torn_tail_gets_its_own_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n{"a": 2, "to')
        jsonl.append(path, ['{"a": 3}'])
        jsonl.append(path, ['{"a": 4}'])
        assert path.read_text() == '{"a": 1}\n{"a": 2, "to\n{"a": 3}\n{"a": 4}\n'
        assert jsonl.read(path, "test file") == ([{"a": 1}, {"a": 3}, {"a": 4}], 1)


class TestReplace:
    def test_fsyncs_the_file_then_renames_then_fsyncs_the_directory(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "f.jsonl"
        path.write_text('{"old": true}\n')
        events = _fsync_log(monkeypatch)
        real_replace = os.replace

        def replace(source, target):
            events.append("replace")
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        jsonl.replace(path, ['{"a": 1}', '{"a": 2}'])
        assert events == ["file", "replace", "dir"]
        assert path.read_text() == '{"a": 1}\n{"a": 2}\n'
        assert sorted(child.name for child in tmp_path.iterdir()) == ["f.jsonl"]


def _writer(path, name, count, batch):
    store = ResultStore(path)
    for start in range(0, count, batch):
        store.put_many(
            (f"{name}-{index}", {"writer": name, "index": index, "pad": "x" * 2000})
            for index in range(start, start + batch)
        )


class TestTwoWriters:
    def test_two_processes_share_one_store(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(target=_writer, args=(path, name, 200, 10)) for name in "ab"
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert [writer.exitcode for writer in writers] == [0, 0]
        lines = path.read_text().splitlines()
        assert len(lines) == 400
        for line in lines:
            assert isinstance(json.loads(line), dict)
        reopened = ResultStore(path)
        assert reopened.skipped_lines == 0
        assert set(reopened.digests()) == {
            f"{name}-{index}" for name in "ab" for index in range(200)
        }
