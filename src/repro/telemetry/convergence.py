"""Per-round convergence traces of an exploration, persisted as JSONL.

The :class:`~repro.dse.explore.MappingExplorer` appends one JSON record
per search round -- hypervolume, front size, feasible ratio, candidates
per second, budget spent -- to a :class:`ConvergenceTrace` file living
next to the result store (mirroring the checkpoint file's placement).
Unlike the checkpoint, the trace is append-only history: it is never
rewritten, so a resumed exploration keeps extending the same curve and
the whole optimisation trajectory stays inspectable after the fact
(``repro obs report``).

The file is read and appended through :mod:`repro.jsonl` (corrupt lines
skipped and counted, torn-tail repair, one fsync per round).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .. import jsonl
from ..analysis.report import format_rows

__all__ = ["ConvergenceTrace", "render_convergence"]

#: Field order of the rendered table (a record may carry more; extras are
#: ignored by the renderer and kept by the file).
_TABLE_FIELDS = (
    "round",
    "spent",
    "explored",
    "front_size",
    "hypervolume",
    "feasible_ratio",
    "candidates_per_second",
)


class ConvergenceTrace:
    """Append-only JSONL file of per-round convergence records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self.skipped_lines = 0

    @property
    def path(self) -> Path:
        return self._path

    def exists(self) -> bool:
        return self._path.exists()

    def reset(self) -> None:
        """Remove the file (a fresh, non-resumed run starts a new curve)."""
        if self._path.exists():
            self._path.unlink()

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one round record (plain JSON types only)."""
        jsonl.append(self._path, [json.dumps(dict(record), sort_keys=True)])

    def load(self) -> List[Dict[str, Any]]:
        """Every parseable record, in file order (empty when absent)."""
        records, self.skipped_lines = jsonl.read(self._path, "convergence trace")
        return records


def render_convergence(
    records: List[Mapping[str, Any]], last: Optional[int] = None
) -> str:
    """A fixed-width table of convergence records (``repro obs report``)."""
    if not records:
        return "(no convergence records)"
    shown = records[-last:] if last is not None and last > 0 else records
    rows = []
    for record in shown:
        row: Dict[str, object] = {}
        for field in _TABLE_FIELDS:
            value = record.get(field)
            if value is None:
                row[field] = "-"
            elif field == "hypervolume":
                row[field] = f"{float(value):.4g}"
            elif field in ("feasible_ratio", "candidates_per_second"):
                row[field] = round(float(value), 2)
            else:
                row[field] = value
        rows.append(row)
    return format_rows(rows)
