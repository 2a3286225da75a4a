"""Exploration checkpoints: resumable strategy state next to the result store.

A long exploration is a pure function of ``(problem parameters, strategy,
seed)``; the only thing lost on interruption is the *search state* --
the strategy's RNG position, current point, temperature, population or
enumeration cursor, plus the explorer's counters and the order in which
candidates were first scored.  This module persists exactly that:

* :class:`ExplorationCheckpoint` -- one JSON-safe snapshot taken at a
  round boundary: the exploration's configuration (for resume-time
  validation), the budget spent, the counters, the ``(candidate digest,
  job digest)`` pairs in first-evaluation order, the current front
  digests and the strategy's :meth:`~repro.dse.search.SearchStrategy
  .state` payload;
* :class:`CheckpointFile` -- snapshot persistence next to the
  :class:`~repro.campaign.store.ResultStore`.  Every round atomically
  replaces the file with the newest snapshot through
  :func:`repro.jsonl.replace` (temp file, fsync, rename, directory fsync,
  so the file stays one line large and a crash never corrupts the
  previous round); on load the last parseable line wins and corrupt
  lines are skipped (reported through the ``repro.jsonl`` logger), never
  failing the resume.

The checkpoint deliberately stores digests, not metrics: the metrics
live in the result store, keyed by job digest, so resuming needs the
store that backed the original run -- and gets bit-identical results
because nothing is re-evaluated or re-derived.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .. import jsonl
from ..errors import ModelError

__all__ = ["CHECKPOINT_VERSION", "ExplorationCheckpoint", "CheckpointFile"]

#: Format version written into every snapshot; bumped on incompatible change.
CHECKPOINT_VERSION = 1

#: The configuration fields that must match between a checkpoint and the
#: resuming explorer.  ``budget`` is deliberately absent: resuming with a
#: *larger* budget is the supported way to extend a finished exploration
#: (a continuation -- still seed-deterministic, but only a same-budget
#: resume replays an uninterrupted run bit-identically, because the seeded
#: strategies size their batches by the remaining budget).
CONFIG_FIELDS = (
    "problem",
    "strategy",
    "seed",
    "parameters",
    "objectives",
    "max_resources",
    "explore_orders",
    "strict",
    "strategy_options",
)


@dataclass
class ExplorationCheckpoint:
    """One resumable snapshot of an exploration, taken at a round boundary."""

    # -- configuration (validated on resume) --------------------------------
    problem: str
    strategy: str
    seed: int
    parameters: Dict[str, Any] = field(default_factory=dict)
    objectives: List[List[str]] = field(default_factory=list)  # [key, label] pairs
    max_resources: Optional[int] = None
    explore_orders: bool = True
    strict: bool = True
    strategy_options: Dict[str, Any] = field(default_factory=dict)
    # -- progress -----------------------------------------------------------
    budget: int = 0
    spent: int = 0
    rounds: int = 0
    stale_rounds: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    infeasible: int = 0
    errors: int = 0
    #: ``[candidate digest, job digest, ok]`` triples in first-evaluation
    #: order -- the exact candidate sequence, replayable from the store.
    results: List[List[Any]] = field(default_factory=list)
    #: Digests of the current Pareto front, in front order.
    front: List[str] = field(default_factory=list)
    # -- strategy -----------------------------------------------------------
    strategy_state: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {
            "version": CHECKPOINT_VERSION,
            "problem": self.problem,
            "strategy": self.strategy,
            "seed": self.seed,
            "parameters": dict(self.parameters),
            "objectives": [list(pair) for pair in self.objectives],
            "max_resources": self.max_resources,
            "explore_orders": self.explore_orders,
            "strict": self.strict,
            "strategy_options": dict(self.strategy_options),
            "budget": self.budget,
            "spent": self.spent,
            "rounds": self.rounds,
            "stale_rounds": self.stale_rounds,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "infeasible": self.infeasible,
            "errors": self.errors,
            "results": [list(entry) for entry in self.results],
            "front": list(self.front),
            "strategy_state": dict(self.strategy_state),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ExplorationCheckpoint":
        version = record.get("version")
        if version != CHECKPOINT_VERSION:
            raise ModelError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        try:
            return cls(
                problem=record["problem"],
                strategy=record["strategy"],
                seed=record["seed"],
                parameters=dict(record["parameters"]),
                objectives=[list(pair) for pair in record["objectives"]],
                max_resources=record["max_resources"],
                explore_orders=record["explore_orders"],
                strict=record["strict"],
                strategy_options=dict(record["strategy_options"]),
                budget=record["budget"],
                spent=record["spent"],
                rounds=record["rounds"],
                stale_rounds=record["stale_rounds"],
                evaluated=record["evaluated"],
                cache_hits=record["cache_hits"],
                infeasible=record["infeasible"],
                errors=record["errors"],
                results=[list(entry) for entry in record["results"]],
                front=list(record["front"]),
                strategy_state=dict(record["strategy_state"]),
            )
        except (KeyError, TypeError) as error:
            raise ModelError(f"checkpoint record is missing or malformed: {error}") from None

    def config(self) -> Dict[str, Any]:
        """The configuration slice compared by :meth:`validate_against`."""
        record = self.to_record()
        return {name: record[name] for name in CONFIG_FIELDS}

    def validate_against(self, expected: Mapping[str, Any]) -> None:
        """Raise :class:`ModelError` naming every configuration mismatch."""
        mine = self.config()
        mismatches = [
            f"{name}: checkpoint has {mine[name]!r}, exploration has {expected[name]!r}"
            for name in CONFIG_FIELDS
            if mine[name] != expected[name]
        ]
        if mismatches:
            raise ModelError(
                "checkpoint does not match this exploration -- "
                + "; ".join(mismatches)
            )


class CheckpointFile:
    """JSONL checkpoint persistence (newest parseable line wins on load).

    Each :meth:`write` replaces the file atomically (write-to-temp, fsync,
    rename, directory fsync), so the file stays one snapshot large no
    matter how many rounds run and a crash mid-write can never corrupt the
    previous snapshot.
    :meth:`load` still reads the *last* parseable line and skips corrupt
    ones, so files concatenated from several interrupted runs -- or written
    by tools that append -- load fine too.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self.skipped_lines = 0

    @property
    def path(self) -> Path:
        return self._path

    def exists(self) -> bool:
        return self._path.exists()

    def reset(self) -> None:
        """Remove the file (a fresh run starting over discards old rounds)."""
        if self._path.exists():
            self._path.unlink()

    def write(self, checkpoint: ExplorationCheckpoint) -> None:
        """Atomically replace the file with one snapshot."""
        jsonl.replace(self._path, [json.dumps(checkpoint.to_record(), sort_keys=True)])

    def load(self) -> Optional[ExplorationCheckpoint]:
        """The newest parseable snapshot, or None when the file is absent/empty."""
        records, self.skipped_lines = jsonl.read(self._path, "checkpoint file")
        if not records:
            return None
        return ExplorationCheckpoint.from_record(records[-1])
