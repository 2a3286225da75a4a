"""Job results: the JSON-serialisable outcome of one campaign job.

A :class:`JobResult` is a plain-data snapshot of one
:class:`~repro.analysis.speedup.SpeedupMeasurement` plus the job identity
(scenario, parameters, replication, derived seed).  It round-trips
through JSON unchanged, which is what lets results cross process
boundaries and live in the JSONL result store.

Output accuracy is carried twice: as the boolean verdict of the in-worker
comparison, and as ``instants_digest`` -- a SHA-256 over the explicit
model's output instants in picoseconds -- so two campaign runs can be
checked for instant-for-instant identity without storing the full
sequences.  The full sequences are kept only when the spec asked for
``record_instants``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..analysis.speedup import SpeedupMeasurement
from ..errors import CampaignError
from .spec import JobSpec

__all__ = ["JobResult", "instants_digest"]


def instants_digest(instants: Sequence[Optional[int]]) -> str:
    """SHA-256 fingerprint of an output-instant sequence (integer picoseconds)."""
    text = ",".join("-" if value is None else str(value) for value in instants)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class JobResult:
    """Outcome of one campaign job (successful or failed)."""

    job_digest: str
    scenario: str
    parameters: Mapping[str, Any]
    replication: int
    seed: int
    label: str = ""
    error: Optional[str] = None
    cached: bool = False
    iterations: int = 0
    explicit_wall_seconds: float = 0.0
    equivalent_wall_seconds: float = 0.0
    explicit_relation_events: int = 0
    equivalent_relation_events: int = 0
    tdg_nodes: int = 0
    theoretical_ratio: Optional[float] = None
    outputs_identical: bool = False
    mismatching_outputs: int = 0
    instants_digest: Optional[str] = None
    output_instants: Optional[Tuple[Optional[int], ...]] = None
    #: Free-form, JSON-safe metrics attached by non-speed-up executors (e.g. the
    #: design-space-exploration evaluator's objectives).  Empty for speed-up jobs.
    metrics: Mapping[str, Any] = field(default_factory=dict)
    #: Scoring path that actually produced a DSE job's objectives
    #: (``"replay"`` or ``"steady"``); ``None`` for speed-up jobs and for
    #: records written before the field existed.  Provenance only -- never
    #: part of any digest.
    evaluator: Optional[str] = None
    #: Sweep that produced a DSE job's instants: ``"python"`` (the
    #: reference replay, also the explicit fallback) or ``"numpy"`` (the
    #: compiled kernel); an infeasible job, never swept, names the backend
    #: its process sweeps with.  ``None`` for speed-up jobs and for records
    #: written before the field existed.  Provenance only -- never part of
    #: any digest.
    backend: Optional[str] = None
    #: Per-job telemetry snapshot recorded in the worker's collect() scope
    #: (see :mod:`repro.telemetry`); ``None`` unless the coordinating run had
    #: telemetry enabled.  Run provenance -- stripped before a record enters
    #: the result store.
    telemetry: Optional[Mapping[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def speedup(self) -> float:
        if self.equivalent_wall_seconds <= 0.0:
            return float("inf")
        return self.explicit_wall_seconds / self.equivalent_wall_seconds

    @property
    def event_ratio(self) -> float:
        if self.equivalent_relation_events == 0:
            return float("inf")
        return self.explicit_relation_events / self.equivalent_relation_events

    def as_row(self) -> Dict[str, object]:
        """Flatten for table formatting (same columns as Table I plus provenance).

        Error rows keep the full column set ('-' placeholders) so the table
        headers stay intact even when the first row is a failure
        (:func:`repro.analysis.report.format_rows` takes them from row one).
        """
        if not self.ok:
            return {
                "model": self.label or self.scenario,
                "iterations": "-",
                "explicit time (s)": "-",
                "equivalent time (s)": "-",
                "event ratio": "-",
                "speed-up": "-",
                "TDG nodes": "-",
                "accuracy": f"error: {self.error}",
                "theoretical ratio": "-",
                "seed": self.seed,
                "cached": "yes" if self.cached else "no",
            }
        return {
            "model": self.label or self.scenario,
            "iterations": self.iterations,
            "explicit time (s)": round(self.explicit_wall_seconds, 3),
            "equivalent time (s)": round(self.equivalent_wall_seconds, 3),
            "event ratio": round(self.event_ratio, 2),
            "speed-up": round(self.speedup, 2),
            "TDG nodes": self.tdg_nodes,
            "accuracy": "identical"
            if self.outputs_identical
            else f"{self.mismatching_outputs} mismatches",
            "theoretical ratio": round(self.theoretical_ratio, 2)
            if self.theoretical_ratio is not None
            else "-",
            "seed": self.seed,
            "cached": "yes" if self.cached else "no",
        }

    def with_cached(self, cached: bool = True) -> "JobResult":
        return replace(self, cached=cached)

    def to_record(self) -> Dict[str, Any]:
        """JSON-safe dict (the inverse of :meth:`from_record`)."""
        record: Dict[str, Any] = {
            "job_digest": self.job_digest,
            "scenario": self.scenario,
            "parameters": dict(self.parameters),
            "replication": self.replication,
            "seed": self.seed,
            "label": self.label,
            "error": self.error,
            "iterations": self.iterations,
            "explicit_wall_seconds": self.explicit_wall_seconds,
            "equivalent_wall_seconds": self.equivalent_wall_seconds,
            "explicit_relation_events": self.explicit_relation_events,
            "equivalent_relation_events": self.equivalent_relation_events,
            "tdg_nodes": self.tdg_nodes,
            "theoretical_ratio": self.theoretical_ratio,
            "outputs_identical": self.outputs_identical,
            "mismatching_outputs": self.mismatching_outputs,
            "instants_digest": self.instants_digest,
        }
        if self.output_instants is not None:
            record["output_instants"] = list(self.output_instants)
        if self.metrics:
            record["metrics"] = dict(self.metrics)
        if self.evaluator is not None:
            record["evaluator"] = self.evaluator
        if self.backend is not None:
            record["backend"] = self.backend
        if self.telemetry:
            record["telemetry"] = dict(self.telemetry)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "JobResult":
        try:
            instants = record.get("output_instants")
            return cls(
                job_digest=record["job_digest"],
                scenario=record["scenario"],
                parameters=dict(record["parameters"]),
                replication=record["replication"],
                seed=record["seed"],
                label=record.get("label", ""),
                error=record.get("error"),
                iterations=record.get("iterations", 0),
                explicit_wall_seconds=record.get("explicit_wall_seconds", 0.0),
                equivalent_wall_seconds=record.get("equivalent_wall_seconds", 0.0),
                explicit_relation_events=record.get("explicit_relation_events", 0),
                equivalent_relation_events=record.get("equivalent_relation_events", 0),
                tdg_nodes=record.get("tdg_nodes", 0),
                theoretical_ratio=record.get("theoretical_ratio"),
                outputs_identical=record.get("outputs_identical", False),
                mismatching_outputs=record.get("mismatching_outputs", 0),
                instants_digest=record.get("instants_digest"),
                output_instants=tuple(instants) if instants is not None else None,
                metrics=dict(record.get("metrics") or {}),
                evaluator=record.get("evaluator"),
                backend=record.get("backend"),
                telemetry=record.get("telemetry"),
            )
        except KeyError as missing:
            raise CampaignError(f"result record is missing field {missing}") from None

    @classmethod
    def from_measurement(
        cls, job: JobSpec, measurement: SpeedupMeasurement, keep_instants: bool
    ) -> "JobResult":
        """Snapshot a measurement taken for ``job`` (worker-side)."""
        captured = measurement.output_instants
        digest = instants_digest(captured) if captured is not None else None
        return cls(
            job_digest=job.digest(),
            scenario=job.spec.scenario,
            parameters=dict(job.spec.parameters),
            replication=job.replication,
            seed=job.seed,
            label=measurement.label,
            iterations=measurement.iterations,
            explicit_wall_seconds=measurement.explicit_wall_seconds,
            equivalent_wall_seconds=measurement.equivalent_wall_seconds,
            explicit_relation_events=measurement.explicit_relation_events,
            equivalent_relation_events=measurement.equivalent_relation_events,
            tdg_nodes=measurement.tdg_nodes,
            theoretical_ratio=measurement.theoretical_ratio,
            outputs_identical=measurement.outputs_identical,
            mismatching_outputs=measurement.mismatching_outputs,
            instants_digest=digest,
            output_instants=captured if keep_instants else None,
        )

    @classmethod
    def from_error(cls, job: JobSpec, error: BaseException) -> "JobResult":
        return cls(
            job_digest=job.digest(),
            scenario=job.spec.scenario,
            parameters=dict(job.spec.parameters),
            replication=job.replication,
            seed=job.seed,
            error=f"{type(error).__name__}: {error}",
        )
