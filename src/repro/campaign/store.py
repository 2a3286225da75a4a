"""JSONL-backed persistent result store.

One line per stored result::

    {"digest": "<job content hash>", "record": {...JobResult record...}}

The store is append-only on disk: re-storing a digest appends a new line
and the *last* line for a digest wins on load, so interrupted campaigns
never corrupt earlier results and a store file can simply be
concatenated from several machines.  :meth:`ResultStore.compact`
rewrites the file with one line per digest when the history is no longer
wanted.

Lines that fail to parse (e.g. a truncated final line after a crash) are
skipped -- counted in :attr:`ResultStore.skipped_lines` and reported
through the ``repro.campaign.store`` logger -- rather than failing the
whole campaign.  The next :meth:`ResultStore.put` after loading such a
torn tail starts a new line, so the record it appends survives a reload.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..errors import CampaignError

__all__ = ["ResultStore"]

_LOG = logging.getLogger("repro.campaign.store")


class ResultStore:
    """Digest-keyed result cache, optionally persisted to a JSONL file."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._path = Path(path) if path is not None else None
        self._records: Dict[str, Mapping[str, Any]] = {}
        self.skipped_lines = 0
        # True when the file ends without a newline (a write torn by a
        # crash): the next put starts a fresh line instead of appending its
        # record onto the broken one.
        self._torn_tail = False
        if self._path is not None and self._path.exists():
            self._load()

    @classmethod
    def in_memory(cls) -> "ResultStore":
        """A store that never touches disk (useful for tests and dry runs)."""
        return cls(path=None)

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def _load(self) -> None:
        assert self._path is not None
        with self._path.open("r", encoding="utf-8") as handle:
            for line in handle:
                self._torn_tail = not line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    digest = entry["digest"]
                    record = entry["record"]
                except (ValueError, KeyError, TypeError):
                    self.skipped_lines += 1
                    continue
                if not isinstance(digest, str) or not isinstance(record, dict):
                    self.skipped_lines += 1
                    continue
                self._records[digest] = record
        if self.skipped_lines:
            _LOG.warning(
                "result store %s: skipped %d corrupt JSONL line(s) (truncated "
                "write or concurrent crash); the remaining records were loaded "
                "normally",
                self._path,
                self.skipped_lines,
            )

    def get(self, digest: str) -> Optional[Mapping[str, Any]]:
        """The stored record for ``digest``, or None."""
        return self._records.get(digest)

    def put(self, digest: str, record: Mapping[str, Any]) -> None:
        """Store (and persist) one result record under ``digest``."""
        if not digest:
            raise CampaignError("result store digests must be non-empty strings")
        try:
            line = json.dumps({"digest": digest, "record": record}, sort_keys=True)
        except (TypeError, ValueError) as error:
            raise CampaignError(f"result record is not JSON-serialisable: {error}") from None
        self._records[digest] = record
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with self._path.open("a", encoding="utf-8") as handle:
                handle.write(("\n" if self._torn_tail else "") + line + "\n")
                self._torn_tail = False
                handle.flush()
                os.fsync(handle.fileno())

    def digests(self) -> List[str]:
        return sorted(self._records)

    def compact(self) -> int:
        """Rewrite the backing file with exactly one line per digest.

        Returns the number of records written.  No-op for in-memory stores.
        """
        if self._path is None:
            return len(self._records)
        tmp_path = self._path.with_suffix(self._path.suffix + ".tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            for digest in self.digests():
                handle.write(
                    json.dumps({"digest": digest, "record": self._records[digest]},
                               sort_keys=True)
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        tmp_path.replace(self._path)
        self._torn_tail = False
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def __len__(self) -> int:
        return len(self._records)
