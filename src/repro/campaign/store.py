"""JSONL-backed persistent result store.

One line per stored result::

    {"digest": "<job content hash>", "record": {...JobResult record...}}

The store is append-only on disk: re-storing a digest appends a new line
and the *last* line for a digest wins on load, so interrupted campaigns
never corrupt earlier results and a store file can simply be
concatenated from several machines.  :meth:`ResultStore.compact`
rewrites the file with one line per digest when the history is no longer
wanted.

The file is read, appended and compacted through :mod:`repro.jsonl`
(corrupt lines skipped and counted in :attr:`ResultStore.skipped_lines`,
torn-tail repair, an advisory lock per append).
:meth:`ResultStore.put_many` persists a batch with one write and one
fsync; the campaign runner calls it once per run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .. import jsonl
from ..errors import CampaignError

__all__ = ["ResultStore"]


def _is_entry(entry: Dict[str, Any]) -> bool:
    return isinstance(entry.get("digest"), str) and isinstance(entry.get("record"), dict)


def _line(digest: str, record: Mapping[str, Any]) -> str:
    return json.dumps({"digest": digest, "record": record}, sort_keys=True)


class ResultStore:
    """Digest-keyed result cache, optionally persisted to a JSONL file."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._path = Path(path) if path is not None else None
        self._records: Dict[str, Mapping[str, Any]] = {}
        self.skipped_lines = 0
        if self._path is not None:
            entries, self.skipped_lines = jsonl.read(self._path, "result store", _is_entry)
            for entry in entries:
                self._records[entry["digest"]] = entry["record"]

    @classmethod
    def in_memory(cls) -> "ResultStore":
        """A store that never touches disk (useful for tests and dry runs)."""
        return cls(path=None)

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def get(self, digest: str) -> Optional[Mapping[str, Any]]:
        """The stored record for ``digest``, or None."""
        return self._records.get(digest)

    def put(self, digest: str, record: Mapping[str, Any]) -> None:
        """Store (and persist) one result record under ``digest``."""
        self.put_many([(digest, record)])

    def put_many(self, items: Iterable[Tuple[str, Mapping[str, Any]]]) -> None:
        """Store (and persist) ``(digest, record)`` pairs with one write and one fsync.

        Every item is checked and serialised first, so a bad one stores
        nothing; the in-memory view changes only once the write succeeded.
        """
        items = list(items)
        lines = []
        for digest, record in items:
            if not digest:
                raise CampaignError("result store digests must be non-empty strings")
            try:
                lines.append(_line(digest, record))
            except (TypeError, ValueError) as error:
                raise CampaignError(f"result record is not JSON-serialisable: {error}") from None
        if self._path is not None:
            jsonl.append(self._path, lines)
        self._records.update(items)

    def digests(self) -> List[str]:
        return sorted(self._records)

    def compact(self) -> int:
        """Rewrite the backing file with exactly one line per digest.

        Returns the number of records written.  No-op for in-memory stores.
        """
        if self._path is not None:
            jsonl.replace(self._path, (_line(d, self._records[d]) for d in self.digests()))
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def __len__(self) -> int:
        return len(self._records)
