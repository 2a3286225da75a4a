"""The append-only run ledger: cross-run performance history as JSONL.

Every instrumented execution -- ``dse run``, ``campaign run``, the DSE
throughput benchmark session -- appends its
:class:`~repro.telemetry.manifest.RunManifest` to one ledger file (one
JSON object per line), so the performance trajectory of the project
survives the processes that produced it.  The default location is
``.repro/ledger.jsonl`` under the current directory; set ``REPRO_LEDGER``
to move it (CI points it at a scratch path and uploads it as an
artifact).

The file is read, appended and compacted through :mod:`repro.jsonl`
(corrupt lines skipped and counted in :attr:`RunLedger.skipped_lines`,
torn-tail repair); manifests whose schema this build cannot read are
skipped and counted in :attr:`RunLedger.incompatible_lines`, never raised.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import jsonl
from ..errors import ModelError
from .manifest import RunManifest

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "CompactionReport",
    "RunLedger",
    "default_ledger_path",
]

_LOG = logging.getLogger("repro.telemetry.ledger")

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_PATH = Path(".repro") / "ledger.jsonl"

#: Environment variable overriding the default ledger path.
LEDGER_ENV = "REPRO_LEDGER"


def default_ledger_path() -> Path:
    """The ledger path to use when none is given (``REPRO_LEDGER`` wins)."""
    override = os.environ.get(LEDGER_ENV, "").strip()
    if override:
        return Path(override)
    return DEFAULT_LEDGER_PATH


class RunLedger:
    """Append-only JSONL file of run manifests."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._path = Path(path) if path is not None else default_ledger_path()
        self.skipped_lines = 0
        self.incompatible_lines = 0

    @property
    def path(self) -> Path:
        return self._path

    def exists(self) -> bool:
        return self._path.exists()

    def append(self, manifest: RunManifest) -> RunManifest:
        """Append one manifest (fsynced, like the result store) and return it."""
        jsonl.append(self._path, [json.dumps(manifest.to_record(), sort_keys=True)])
        return manifest

    def load(self) -> List[RunManifest]:
        """Every readable manifest, in file (= chronological append) order.

        Returns an empty list when the file is absent.  Corrupt JSON lines
        and incompatible-schema lines are skipped and counted, never fatal.
        """
        records, self.skipped_lines = jsonl.read(self._path, "run ledger")
        manifests: List[RunManifest] = []
        self.incompatible_lines = 0
        for record in records:
            try:
                manifests.append(RunManifest.from_record(record))
            except ModelError:
                self.incompatible_lines += 1
        if self.incompatible_lines:
            _LOG.warning(
                "run ledger %s: skipped %d manifest(s) with an unsupported "
                "schema version (written by a different build?)",
                self._path,
                self.incompatible_lines,
            )
        return manifests

    def runs(
        self,
        kind: Optional[str] = None,
        label: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[RunManifest]:
        """Loaded manifests filtered by kind/label, optionally the last N."""
        manifests = [
            manifest
            for manifest in self.load()
            if (kind is None or manifest.kind == kind)
            and (label is None or manifest.label == label)
        ]
        if last is not None and last > 0:
            manifests = manifests[-last:]
        return manifests

    def compact(self, keep_last: int, dry_run: bool = False) -> "CompactionReport":
        """Drop all but the last ``keep_last`` runs of every comparison group.

        Groups are the regression sentinel's comparison keys (problem +
        configuration family, see :attr:`RunManifest.comparison_key`), so
        compaction never deletes the recent history any trend or verdict
        reads -- it only sheds the long tail.  The rewrite is atomic (a
        sibling temp file replaced over the original); chronological append
        order is preserved among the kept manifests.  Corrupt JSONL lines
        and manifests with an unsupported schema version cannot be carried
        over and are dropped too, counted separately in the report.  With
        ``dry_run=True`` nothing is written -- the report describes what a
        real compaction would do.
        """
        if keep_last < 1:
            raise ModelError("compaction must keep at least one run per group")
        manifests = self.load()
        keep: List[RunManifest] = []
        kept_ids = set()
        group_rows: List[Dict[str, object]] = []
        for key, group in group_by_key(manifests).items():
            kept_group = group[-keep_last:]
            kept_ids.update(id(manifest) for manifest in kept_group)
            group_rows.append(
                {
                    "key": key,
                    "kind": group[-1].kind,
                    "label": group[-1].label,
                    "runs": len(group),
                    "kept": len(kept_group),
                    "dropped": len(group) - len(kept_group),
                }
            )
        keep = [manifest for manifest in manifests if id(manifest) in kept_ids]
        report = CompactionReport(
            path=self._path,
            keep_last=keep_last,
            dry_run=dry_run,
            total=len(manifests),
            kept=len(keep),
            dropped=len(manifests) - len(keep),
            corrupt_dropped=self.skipped_lines,
            incompatible_dropped=self.incompatible_lines,
            groups=tuple(group_rows),
        )
        if dry_run or not self._path.exists():
            return report
        jsonl.replace(
            self._path,
            (json.dumps(manifest.to_record(), sort_keys=True) for manifest in keep),
        )
        return report

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:
        return f"RunLedger({self._path})"


@dataclass(frozen=True)
class CompactionReport:
    """What :meth:`RunLedger.compact` did (or, under ``dry_run``, would do)."""

    path: Path
    keep_last: int
    dry_run: bool
    total: int
    kept: int
    dropped: int
    corrupt_dropped: int = 0
    incompatible_dropped: int = 0
    #: One row per comparison group: key, kind, label, runs, kept, dropped.
    groups: Tuple[Dict[str, object], ...] = ()


def group_by_key(manifests: Iterable[RunManifest]) -> Dict[str, List[RunManifest]]:
    """Manifests grouped by comparison key, each group in append order."""
    groups: Dict[str, List[RunManifest]] = {}
    for manifest in manifests:
        groups.setdefault(manifest.comparison_key, []).append(manifest)
    return groups
