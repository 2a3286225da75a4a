"""Parallel campaign execution.

The :class:`CampaignRunner` expands :class:`~repro.campaign.spec.ScenarioSpec`
points into jobs, satisfies what it can from the
:class:`~repro.campaign.store.ResultStore`, and fans the remaining jobs
across worker processes with :class:`concurrent.futures.ProcessPoolExecutor`.

Only JSON-safe payloads cross the process boundary: a worker receives a
job payload (scenario name + parameters + replication), rebuilds the
architecture and stimuli from its own copy of the scenario registry, runs
:func:`~repro.analysis.speedup.measure_speedup`, and sends back a plain
result record.  Per-job seeds are derived deterministically from the spec
(see :func:`~repro.campaign.spec.derive_seed`), so a parallel campaign is
instant-for-instant identical to a sequential one.

``jobs=1`` bypasses the pool entirely and runs inline -- the reference
execution the integration tests compare parallel runs against.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..analysis.speedup import measure_speedup
from ..errors import CampaignError
from .registry import ScenarioRegistry, default_registry
from .results import JobResult
from .spec import JobSpec, ScenarioSpec
from .store import ResultStore

__all__ = [
    "CampaignRunner",
    "CampaignReport",
    "campaign_manifest",
    "cached_result",
    "run_job",
]


def run_job(
    payload: Mapping[str, Any], registry: Optional[ScenarioRegistry] = None
) -> Dict[str, Any]:
    """Execute one campaign job; runs in the worker process.

    Takes and returns only JSON-safe data.  Failures become error records
    rather than exceptions so one bad sweep point never aborts the pool.
    Worker processes resolve scenarios against their own default registry;
    the in-process path passes the runner's ``registry`` explicitly.

    When the coordinator runs with telemetry enabled it rides a
    ``_telemetry`` key along in the payload (ignored by the job digest and
    by :meth:`~repro.campaign.spec.JobSpec.from_payload`); the job is then
    measured in its own :func:`repro.telemetry.collect` scope and the
    recorded delta ships home under the record's ``telemetry`` key.
    """
    extras = payload.get("_telemetry") if isinstance(payload, Mapping) else None
    want = bool(isinstance(extras, Mapping) and extras.get("enabled"))
    # ``True`` switches recording on inside a pool worker whose process-global
    # registry is off; ``None`` inherits the surrounding registry's state on
    # the in-process path (where collect() folds the delta into the
    # coordinator's own registry on exit).
    with telemetry.collect(enable=True if want else None) as scope:
        record = _execute_job(payload, registry, extras if want else None)
        if want:
            record["telemetry"] = scope.snapshot()
    return record


def _execute_job(
    payload: Mapping[str, Any],
    registry: Optional[ScenarioRegistry],
    extras: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    """The job execution body of :func:`run_job` (runs inside its scope)."""
    try:
        job = JobSpec.from_payload(payload)
    except Exception as error:
        scenario = payload.get("scenario") if isinstance(payload, Mapping) else None
        return {
            "job_digest": "",
            "scenario": str(scenario) if scenario is not None else "?",
            "parameters": {},
            "replication": 0,
            "seed": 0,
            "error": f"{type(error).__name__}: {error}",
        }
    telemetry.count("campaign.jobs")
    if extras is not None and extras.get("submitted_unix") is not None:
        # How long the job sat between coordinator submission and worker
        # pickup (same machine, so the wall clocks agree).
        wait_ns = int((time.time() - float(extras["submitted_unix"])) * 1e9)
        telemetry.observe_ns("campaign.job.queue_wait", max(0, wait_ns))
    try:
        with telemetry.span(
            "campaign.job",
            category="campaign",
            args={"scenario": job.spec.scenario, "replication": job.replication},
        ):
            scenario = (registry or default_registry()).get(job.spec.scenario)
            parameters = dict(scenario.defaults)
            parameters.update(job.spec.parameters)
            parameters["seed"] = job.seed
            if scenario.executor is not None:
                return scenario.executor(job, parameters)
            plan = scenario.planner(parameters)
            measurement = measure_speedup(
                plan.architecture_factory,
                plan.stimuli_factory,
                abstract_functions=plan.abstract_functions,
                pad_to_nodes=plan.pad_to_nodes,
                label=plan.label,
                capture_instants=True,
            )
    except Exception as error:
        telemetry.count("campaign.job.errors")
        return JobResult.from_error(job, error).to_record()
    return JobResult.from_measurement(
        job, measurement, keep_instants=job.spec.record_instants
    ).to_record()


def cached_result(store: Optional[ResultStore], job: JobSpec) -> Optional[JobResult]:
    """The usable stored result of ``job``, or None when it must be executed.

    Stored errors are always retried, and a record cached without output
    instants does not serve a job that records them.  Shared by
    :class:`CampaignRunner` and the design-space explorer, which scores its
    own rounds.
    """
    if store is None:
        return None
    record = store.get(job.digest())
    if record is None:
        return None
    result = JobResult.from_record(record)
    if not result.ok:
        return None
    if job.spec.record_instants and result.output_instants is None:
        return None
    return result.with_cached()


def campaign_manifest(
    scenario: str,
    report: "CampaignReport",
    parameters: Optional[Mapping[str, Any]] = None,
    config: Optional[Mapping[str, Any]] = None,
    wall_time_s: Optional[float] = None,
    telemetry_snapshot: Optional[Mapping[str, Any]] = None,
) -> "telemetry.RunManifest":
    """A :class:`~repro.telemetry.manifest.RunManifest` for one campaign run.

    ``parameters`` is the scenario parameterisation (overrides, grid,
    replications -- what was swept), ``config`` the execution setup (worker
    count); the two digests keep the regression sentinel comparing like
    with like.  The CLI appends the result to the run ledger after every
    ``campaign run``.
    """
    metrics: Dict[str, Any] = {
        "jobs": len(report.results),
        "cache_hits": report.cache_hits,
        "simulated": report.simulated,
        "errors": len(report.errors),
    }
    if wall_time_s is not None:
        metrics["wall_time_s"] = round(wall_time_s, 6)
        if wall_time_s > 0:
            metrics["jobs_per_s"] = round(len(report.results) / wall_time_s, 2)
    return telemetry.RunManifest.build(
        kind="campaign",
        label=scenario,
        parameters=dict(parameters or {}),
        config=dict(config or {}),
        metrics=metrics,
        telemetry_snapshot=telemetry_snapshot,
        wall_time_s=round(wall_time_s, 6) if wall_time_s is not None else None,
    )


@dataclass
class CampaignReport:
    """Everything a campaign run produced, in deterministic job order."""

    results: List[JobResult] = field(default_factory=list)
    cache_hits: int = 0
    simulated: int = 0

    @property
    def errors(self) -> List[JobResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        """True when every job succeeded and reproduced identical outputs."""
        return all(result.ok and result.outputs_identical for result in self.results)

    def summary(self, name: str = "campaign") -> str:
        return (
            f"{name}: {len(self.results)} jobs, {self.cache_hits} cache hits, "
            f"{self.simulated} simulated, {len(self.errors)} errors"
        )


class CampaignRunner:
    """Expand specs into jobs and execute them, in-process or across a pool."""

    def __init__(
        self,
        registry: Optional[ScenarioRegistry] = None,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
    ) -> None:
        if jobs < 1:
            raise CampaignError("the runner needs at least one worker")
        self.registry = registry if registry is not None else default_registry()
        self.store = store
        self.jobs = jobs

    def plan(self, specs: Sequence[ScenarioSpec]) -> List[Tuple[JobSpec, Optional[JobResult]]]:
        """Expand specs into jobs paired with their usable cached result (or None).

        This is exactly the pre-execution view of :meth:`run`; the CLI's
        ``campaign run --dry-run`` prints it without simulating anything.
        """
        jobs: List[Tuple[JobSpec, Optional[JobResult]]] = []
        for spec in specs:
            # Fail fast on unknown scenarios before spawning any worker.
            self.registry.get(spec.scenario)
            for job in spec.jobs():
                jobs.append((job, cached_result(self.store, job)))
        return jobs

    def run(self, specs: Sequence[ScenarioSpec]) -> CampaignReport:
        """Run every job of every spec, reusing stored results where possible."""
        planned = self.plan(specs)
        job_list: List[JobSpec] = [job for job, _ in planned]

        results: List[Optional[JobResult]] = [None] * len(job_list)
        pending: List[int] = []
        for index, (_, cached) in enumerate(planned):
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)
        telemetry.count("campaign.cache_hits", len(job_list) - len(pending))

        payloads: List[Dict[str, Any]] = []
        for index in pending:
            payload = job_list[index].payload()
            if telemetry.enabled():
                # Riding along in the payload only; JobSpec digests derive
                # from the spec, so the cache key is unaffected.
                payload["_telemetry"] = {"enabled": True, "submitted_unix": time.time()}
            payloads.append(payload)

        with telemetry.span(
            "campaign.run", category="campaign", args={"jobs": len(job_list)}
        ):
            records = self._execute(payloads)
        fresh: List[Tuple[str, Dict[str, Any]]] = []
        for index, record in zip(pending, records):
            result = JobResult.from_record(record)
            results[index] = result
            if self.store is not None and result.ok:
                # Per-job telemetry is run provenance, not a property of the
                # (content-addressed) result: strip it before persisting so a
                # later cache hit does not replay stale measurements.
                stored = dict(record)
                stored.pop("telemetry", None)
                fresh.append((job_list[index].digest(), stored))
        if self.store is not None:
            # One write and one fsync for the whole run: every result is
            # durable when run() returns, and a crash before that loses at
            # most this run's results, never an earlier one's.
            self.store.put_many(fresh)

        report = CampaignReport(
            results=[result for result in results if result is not None],
            cache_hits=len(job_list) - len(pending),
            simulated=len(pending),
        )
        if len(report.results) != len(job_list):  # pragma: no cover - defensive
            raise CampaignError("lost track of campaign jobs (worker returned too few records)")
        return report

    def run_scenario(
        self,
        name: str,
        overrides: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        replications: Optional[int] = None,
        record_instants: bool = False,
    ) -> CampaignReport:
        """Convenience wrapper: expand a registered scenario family and run it."""
        scenario = self.registry.get(name)
        specs = scenario.specs(
            overrides=overrides,
            grid=grid,
            replications=replications,
            record_instants=record_instants,
        )
        return self.run(specs)

    def _execute(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        if not payloads:
            return []
        # A custom registry's planners cannot be assumed to resolve inside a
        # worker process (workers rebuild the *default* registry), so anything
        # non-default runs in-process against the runner's own registry.
        if self.jobs == 1 or len(payloads) == 1 or self.registry is not default_registry():
            # In-process: run_job's collect() scope already folds each job's
            # telemetry into this (coordinator) registry on exit.
            return [run_job(payload, self.registry) for payload in payloads]
        workers = min(self.jobs, len(payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_job, payloads))
        if telemetry.enabled():
            # Pool path: fold each worker's shipped delta into the
            # coordinator registry (counters sum, spans keep the worker pid).
            for record in records:
                shipped = record.get("telemetry") if isinstance(record, Mapping) else None
                if shipped:
                    telemetry.merge(shipped)
        return records
