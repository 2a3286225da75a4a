"""Unit tests for the JSONL result store."""

import json
import logging
import os

import pytest

from repro.campaign import ResultStore
from repro.errors import CampaignError


class TestInMemory:
    def test_put_get_contains_len(self):
        store = ResultStore.in_memory()
        assert store.get("d1") is None
        store.put("d1", {"value": 1})
        assert store.get("d1") == {"value": 1}
        assert "d1" in store and "d2" not in store
        assert len(store) == 1
        assert store.path is None

    def test_empty_digest_rejected(self):
        with pytest.raises(CampaignError):
            ResultStore.in_memory().put("", {})

    def test_unserialisable_record_rejected(self):
        with pytest.raises(CampaignError):
            ResultStore.in_memory().put("d", {"bad": object()})

    def test_compact_in_memory_is_a_no_op(self):
        store = ResultStore.in_memory()
        store.put("d", {"v": 1})
        assert store.compact() == 1


class TestPersistence:
    def test_round_trip_across_reopen(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put("d1", {"value": 1})
        store.put("d2", {"value": 2})

        reopened = ResultStore(path)
        assert len(reopened) == 2
        assert reopened.get("d1") == {"value": 1}
        assert reopened.get("d2") == {"value": 2}
        assert reopened.digests() == ["d1", "d2"]

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put("d1", {"value": 1})
        store.put("d1", {"value": 2})
        assert ResultStore(path).get("d1") == {"value": 2}
        # file is append-only: both lines are present until compaction
        assert len(path.read_text().strip().splitlines()) == 2

    def test_compact_rewrites_one_line_per_digest(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put("d1", {"value": 1})
        store.put("d1", {"value": 2})
        store.put("d2", {"value": 3})
        assert store.compact() == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert ResultStore(path).get("d1") == {"value": 2}

    def test_truncated_final_line_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put("d1", {"value": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "d2", "record": {"valu')  # simulated crash
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            reopened = ResultStore(path)
        assert "skipped 1 corrupt" in caplog.text
        assert reopened.get("d1") == {"value": 1}
        assert reopened.get("d2") is None
        assert reopened.skipped_lines == 1

    def test_truncated_store_stays_usable_and_recompacts(self, tmp_path, caplog):
        """Regression: a crash-truncated store must load, warn, and keep working."""
        path = tmp_path / "results.jsonl"
        ResultStore(path).put("d1", {"value": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "d2"')  # no newline, no record: torn write
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            store = ResultStore(path)
        assert "corrupt" in caplog.text
        store.put("d3", {"value": 3})  # appending after a torn line still works
        assert store.compact() == 2
        # after compaction the file is clean: reloading logs no more warnings
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            clean = ResultStore(path)
        assert caplog.text == ""
        assert clean.skipped_lines == 0
        assert clean.digests() == ["d1", "d3"]

    def test_put_after_torn_tail_survives_reload(self, tmp_path):
        """Regression: a record appended after a torn line used to be lost."""
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put("a", {"value": 1})
        store.put("b", {"value": 2})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])  # cut b's line mid-record
        reopened = ResultStore(path)
        assert reopened.skipped_lines == 1
        reopened.put("c", {"value": 3})
        reloaded = ResultStore(path)
        assert reloaded.digests() == ["a", "c"]
        assert reloaded.skipped_lines == 1
        # Only the first put after the torn tail starts a fresh line.
        reloaded.put("d", {"value": 4})
        assert ResultStore(path).digests() == ["a", "c", "d"]
        assert path.read_text().count("\n\n") == 0

    def test_compaction_clears_a_torn_tail(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put("a", {"value": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "b"')
        store = ResultStore(path)
        store.compact()
        store.put("c", {"value": 3})
        assert path.read_text().splitlines()[-1].startswith('{"digest": "c"')
        assert len(path.read_text().splitlines()) == 2

    def test_clean_store_loads_without_warning(self, tmp_path, caplog):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put("d1", {"value": 1})
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            assert ResultStore(path).get("d1") == {"value": 1}
        assert caplog.text == ""


    def test_malformed_entries_are_counted_not_fatal(self, tmp_path, caplog):
        path = tmp_path / "results.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"digest": "good", "record": {"v": 1}}),
                    "not json at all",
                    json.dumps({"no_digest": True}),
                    json.dumps({"digest": 42, "record": {}}),
                    "",
                ]
            )
        )
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            store = ResultStore(path)
        assert "skipped 3 corrupt" in caplog.text
        assert store.get("good") == {"v": 1}
        assert len(store) == 1
        assert store.skipped_lines == 3

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "results.jsonl"
        ResultStore(path).put("d", {"v": 1})
        assert ResultStore(path).get("d") == {"v": 1}


class TestPutMany:
    def test_one_batch_is_one_append(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put_many([("a", {"v": 1}), ("b", {"v": 2})])
        assert store.digests() == ["a", "b"]
        assert ResultStore(path).get("b") == {"v": 2}
        store.put_many([])
        assert len(path.read_text().splitlines()) == 2

    def test_a_bad_item_stores_nothing(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put("a", {"v": 1})
        before = path.read_bytes()
        with pytest.raises(CampaignError):
            store.put_many([("b", {"v": 2}), ("c", {"bad": object()})])
        with pytest.raises(CampaignError):
            store.put_many([("b", {"v": 2}), ("", {"v": 3})])
        assert store.digests() == ["a"]
        assert path.read_bytes() == before

    def test_a_failed_write_leaves_memory_unchanged(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "results.jsonl")

        def full_disk(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(OSError):
            store.put("d", {"v": 1})
        assert "d" not in store and len(store) == 0

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="permissions are not enforced for root",
    )
    def test_a_read_only_directory_leaves_memory_unchanged(self, tmp_path):
        directory = tmp_path / "ro"
        directory.mkdir()
        store = ResultStore(directory / "results.jsonl")
        directory.chmod(0o555)
        try:
            with pytest.raises(OSError):
                store.put("d", {"v": 1})
        finally:
            directory.chmod(0o755)
        assert "d" not in store
