"""The exploration driver: strategies x batched scoring x Pareto front.

:class:`MappingExplorer` wires the pieces together: a search strategy
proposes candidate batches, the explorer scores each batch's fresh
candidates itself (served from the result store when a candidate was
already evaluated, the rest in one :func:`~repro.dse.evaluate
.evaluate_candidates` call on the problem object, persisted with one
store write), the scored metrics are projected onto the explorer's
:class:`~repro.dse.pareto.Objective` tuple and fed back into the
strategy as :class:`~repro.dse.search.Observation` vectors, and every
feasible evaluation is offered to a :class:`~repro.dse.pareto
.ParetoFront`.  The whole loop is a pure function of ``(problem
parameters, strategy, seed)``: re-running it explores the identical
candidate sequence, and re-running it against the same store evaluates
zero new candidates.

Explorations are **resumable**: with ``checkpoint=`` the explorer
persists an :class:`~repro.dse.checkpoint.ExplorationCheckpoint` after
every round (strategy state, candidate sequence, front digests,
counters), and ``resume=True`` restores all of it -- the resumed run
continues the identical candidate stream, so an exploration interrupted
at a round boundary is bit-identical to an uninterrupted one.  Use
``max_rounds=`` (CLI ``--rounds``) to interrupt cleanly: it bounds the
rounds executed by one call without touching the budget, so every
proposal batch is sized exactly as in the uninterrupted run.
(Interrupting by *shrinking the budget* instead only preserves the
stream for ``exhaustive``, whose cursor is batching-independent; the
seeded strategies size their draws by the remaining budget, so a
different budget is a different stream.)
"""

from __future__ import annotations

import gc
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import telemetry
from ..campaign.results import JobResult
from ..campaign.runner import cached_result
from ..campaign.spec import JobSpec, ScenarioSpec, canonical_json
from ..campaign.store import ResultStore
from ..errors import CampaignError, ModelError
from .checkpoint import CheckpointFile, ExplorationCheckpoint
from .engine import resolve_backend
from .evaluate import EVALUATOR_MODES, evaluate_candidate, evaluate_candidates
from .pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    ParetoFront,
    objective_vector,
    ranked_rows,
)
from .problems import DesignProblem, get_problem
from .scenario import DSE_SCENARIO, evaluation_record
from .search import Observation, Scalarization, SearchStrategy, make_strategy
from .space import DesignSpace, MappingCandidate

__all__ = ["ExplorationReport", "MappingExplorer", "front_from_store"]

_LOG = logging.getLogger("repro.dse.explore")

#: Stop after this many consecutive rounds in which every proposed candidate
#: had already been evaluated (random search saturating a small space).
MAX_STALE_ROUNDS = 5


@dataclass
class ExplorationReport:
    """Everything one exploration produced."""

    problem: str
    strategy: str
    objectives: Tuple[Objective, ...] = DEFAULT_OBJECTIVES
    results: List[JobResult] = field(default_factory=list)  # first-evaluation order
    front: ParetoFront = field(default_factory=ParetoFront)
    rounds: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    infeasible: int = 0
    errors: int = 0
    #: True when this report continues a checkpointed exploration; the counters
    #: and results then cover the combined (original + resumed) run.
    resumed: bool = False
    #: Wall-clock seconds of this :meth:`MappingExplorer.run` call.
    wall_time_s: float = 0.0
    #: The run manifest appended to the ledger, when one was configured.
    manifest: Optional["telemetry.RunManifest"] = None

    @property
    def explored(self) -> int:
        """Number of distinct candidates scored (fresh or from the store)."""
        return len(self.results)

    def entries(self) -> List[Tuple[str, Mapping[str, Any]]]:
        """(candidate digest, metrics) pairs of every scored candidate."""
        return [
            (MappingCandidate.from_parameters(result.parameters).digest(), result.metrics)
            for result in self.results
            if result.ok
        ]

    def best(self) -> Optional[JobResult]:
        """The feasible result with the smallest latency, or None."""
        feasible = [
            result
            for result in self.results
            if result.ok and result.metrics.get("feasible")
        ]
        if not feasible:
            return None
        # Ties on latency break toward fewer resources (matching the front's
        # dominance rule), then toward the first-explored candidate.
        return min(
            feasible,
            key=lambda result: (
                result.metrics["latency_ps"],
                result.metrics["resources_used"],
            ),
        )

    def best_candidate(self) -> Optional[MappingCandidate]:
        result = self.best()
        if result is None:
            return None
        return MappingCandidate.from_parameters(result.parameters)

    def front_rows(self) -> List[Dict[str, object]]:
        return self.front.rows()

    def ranked(self, top: Optional[int] = None) -> List[Dict[str, object]]:
        return ranked_rows(self.entries(), self.objectives, top=top)

    def summary(self) -> str:
        return (
            f"dse {self.problem}/{self.strategy}: {self.explored} candidates in "
            f"{self.rounds} rounds, {self.evaluated} evaluated, {self.cache_hits} "
            f"cache hits, {self.infeasible} infeasible, {self.errors} errors, "
            f"front size {len(self.front)}, hypervolume {self.front.hypervolume_text()}"
        )


class MappingExplorer:
    """Run one design-space exploration end to end.

    Parameters mirror the ``repro.cli dse run`` options; ``parameters``
    carries problem overrides (``items``, ``seed``, ``processors``,
    ``stages``, ...).  ``problem`` may be a registered name or any
    :class:`~repro.dse.problems.DesignProblem` object: rounds are scored on
    that object, never on a registered problem of the same name.

    Each round's fresh candidates are scored in one
    :func:`~repro.dse.evaluate.evaluate_candidates` call through a cached
    :class:`~repro.dse.compile.CompiledProblem` -- the problem's TDG
    template is compiled once and only specialised per candidate.  Results
    are stored as ``dse-eval`` job records keyed by their job digest, so a
    re-run against the same ``store`` evaluates nothing.  ``evaluator``
    selects the scoring path within the compiled evaluator
    (``replay``/``auto``, see :data:`~repro.dse.evaluate
    .EVALUATOR_MODES`); every mode produces identical objectives.  With
    ``strict`` left on, proposal sampling only draws service orders
    consistent with the data dependencies, so the budget is spent on
    feasible candidates.

    ``checkpoint=`` (a path or :class:`~repro.dse.checkpoint.CheckpointFile`)
    persists a resumable snapshot after every round; ``resume=True`` restores
    the newest snapshot -- it needs both the checkpoint and the ``store`` that
    backed the original run, and validates that problem, strategy, seed,
    parameters and objectives all match before continuing the candidate
    stream.  The ``budget`` may differ on resume: a larger one *extends* the
    exploration past the original target (a deterministic continuation), but
    only a same-budget resume is bit-identical to an uninterrupted run,
    because the seeded strategies size their batches by the remaining budget.
    ``max_rounds=`` bounds the number of rounds *this call* executes (resumed
    rounds do not count), which is the clean way to interrupt a
    feedback-driven strategy at a round boundary.
    """

    def __init__(
        self,
        problem: Union[str, DesignProblem] = "didactic",
        strategy: str = "random",
        budget: int = 128,
        seed: int = 0,
        parameters: Optional[Mapping[str, Any]] = None,
        max_resources: Optional[int] = None,
        explore_orders: bool = True,
        strict: bool = True,
        store: Optional[ResultStore] = None,
        record_instants: bool = False,
        objectives: Optional[Sequence[Objective]] = None,
        strategy_options: Optional[Mapping[str, Any]] = None,
        checkpoint: Optional[Union[str, Path, CheckpointFile]] = None,
        resume: bool = False,
        max_rounds: Optional[int] = None,
        convergence: Optional[Union[str, Path, "telemetry.ConvergenceTrace"]] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        ledger: Optional[Union[str, Path, "telemetry.RunLedger"]] = None,
        evaluator: str = "replay",
    ) -> None:
        if budget < 1:
            raise ModelError("the exploration budget must be at least one candidate")
        if max_rounds is not None and max_rounds < 1:
            raise ModelError("max_rounds must be at least one round")
        if evaluator not in EVALUATOR_MODES:
            raise ModelError(
                f"unknown evaluator mode {evaluator!r}; expected one of {EVALUATOR_MODES}"
            )
        self.problem = get_problem(problem) if isinstance(problem, str) else problem
        self.strategy_name = strategy
        self.budget = budget
        #: Seed of the *search* randomness only; the stimulus seed is a problem
        #: parameter (``parameters={"seed": ...}``), so exploring with another
        #: search seed still optimises the same workload.
        self.seed = seed
        self.parameters = dict(parameters or {})
        self.max_resources = max_resources
        self.explore_orders = explore_orders
        #: Feasibility-aware order sampling (see DesignSpace ``strict``).
        self.strict = strict
        self.store = store
        self.record_instants = record_instants
        #: Candidate scoring path (see :data:`~repro.dse.evaluate
        #: .EVALUATOR_MODES`).  Deliberately *not* part of :meth:`_config`:
        #: every mode yields identical objectives, so a checkpointed run may
        #: be resumed under another mode and stored records stay shareable.
        self.evaluator = evaluator
        #: None picks the problem's own objective tuple (heterogeneous
        #: problems add per-kind axes to the default latency/resources pair).
        self.objectives = (
            tuple(objectives) if objectives is not None else tuple(self.problem.objectives)
        )
        self.strategy_options = dict(strategy_options or {})
        self.max_rounds = max_rounds
        if checkpoint is None or isinstance(checkpoint, CheckpointFile):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = CheckpointFile(checkpoint)
        #: Optional per-round convergence JSONL (see repro.telemetry); like the
        #: checkpoint it is reset on a fresh run and extended on resume.
        if convergence is None or isinstance(convergence, telemetry.ConvergenceTrace):
            self.convergence = convergence
        else:
            self.convergence = telemetry.ConvergenceTrace(convergence)
        #: Optional per-round callback fed the same record the trace persists
        #: (the CLI's live progress line).
        self.progress = progress
        #: Optional run ledger: when set, :meth:`run` appends a RunManifest
        #: (provenance + metrics + folded telemetry) after the exploration.
        if ledger is None or isinstance(ledger, telemetry.RunLedger):
            self.ledger = ledger
        else:
            self.ledger = telemetry.RunLedger(ledger)
        self.resume = resume
        if resume and self.checkpoint is None:
            raise ModelError("resume=True needs a checkpoint to resume from")
        if resume and store is None:
            raise ModelError(
                "resume=True needs the result store that backed the checkpointed "
                "run (the checkpoint stores digests, the store stores metrics)"
            )

    # ------------------------------------------------------------------
    def build_space(self) -> DesignSpace:
        return self.problem.space(
            self.parameters,
            max_resources=self.max_resources,
            explore_orders=self.explore_orders,
            strict=self.strict,
        )

    def _spec(self, candidate: MappingCandidate, resolved: Mapping[str, Any]) -> ScenarioSpec:
        parameters: Dict[str, Any] = {"problem": self.problem.name}
        parameters.update(resolved)
        parameters.update(candidate.to_parameters())
        return ScenarioSpec(
            scenario=DSE_SCENARIO,
            parameters=parameters,
            record_instants=self.record_instants,
            evaluator=self.evaluator,
        )

    def _score(
        self, candidates: Sequence[MappingCandidate], resolved: Mapping[str, Any]
    ) -> Tuple[List[JobResult], int]:
        """Score one round's fresh candidates; returns ``(results, cache hits)``.

        Each candidate's ``dse-eval`` job is built once, for its digest (the
        store key).  Usable stored results are served as the campaign runner
        serves them; the misses are scored together on ``self.problem`` and
        their records persisted with one ``put_many``.  Results align with
        ``candidates``.
        """
        jobs = [self._spec(candidate, resolved).job(0) for candidate in candidates]
        cached = [cached_result(self.store, job) for job in jobs]
        misses = [index for index, result in enumerate(cached) if result is None]
        records = iter(
            self._evaluate(
                [candidates[index] for index in misses],
                [jobs[index] for index in misses],
                resolved,
            )
        )
        results: List[JobResult] = []
        fresh: List[Tuple[str, Dict[str, Any]]] = []
        for job, result in zip(jobs, cached):
            if result is None:
                record = next(records)
                result = JobResult.from_record(record)
                if result.ok:
                    fresh.append((job.digest(), record))
            results.append(result)
        if self.store is not None:
            # One write and one fsync for the round, before the round's
            # checkpoint names any of its records.
            self.store.put_many(fresh)
        return results, len(jobs) - len(misses)

    def _evaluate(
        self,
        candidates: List[MappingCandidate],
        jobs: List[JobSpec],
        resolved: Mapping[str, Any],
    ) -> List[Dict[str, Any]]:
        """Job records of ``candidates``, scored as one batch.

        When the batch raises, each candidate is scored alone, and one that
        still raises becomes an error record (not stored, so a later run
        retries it) instead of costing its round-mates their results.
        """
        if not candidates:
            return []
        try:
            evaluations = evaluate_candidates(
                self.problem, candidates, resolved, evaluator=self.evaluator
            )
            return [evaluation_record(job, ev) for job, ev in zip(jobs, evaluations)]
        except Exception:
            # Keep the exploration running; the candidates that still raise
            # alone are reported as error results below.
            _LOG.warning(
                "scoring a round of %d candidates raised; scoring each alone",
                len(candidates),
                exc_info=True,
            )
            telemetry.count("dse.explore.batch_fallbacks")
        records: List[Dict[str, Any]] = []
        for candidate, job in zip(candidates, jobs):
            try:
                evaluation = evaluate_candidate(
                    self.problem, candidate, resolved, evaluator=self.evaluator
                )
            except Exception as error:
                telemetry.count("dse.explore.errors")
                records.append(JobResult.from_error(job, error).to_record())
            else:
                records.append(evaluation_record(job, evaluation))
        return records

    def _config(self, resolved: Mapping[str, Any]) -> Dict[str, Any]:
        """The JSON-normalised configuration a checkpoint must match to resume."""
        config = {
            "problem": self.problem.name,
            "strategy": self.strategy_name,
            "seed": self.seed,
            "parameters": dict(resolved),
            "objectives": [[objective.key, objective.label] for objective in self.objectives],
            "max_resources": self.max_resources,
            "explore_orders": self.explore_orders,
            "strict": self.strict,
            # Scalarisation policies may be passed as instances; their spec()
            # is the JSON-safe (and make_scalarization-reinstantiable) form.
            "strategy_options": {
                key: value.spec() if isinstance(value, Scalarization) else value
                for key, value in self.strategy_options.items()
            },
        }
        # Round-trip through JSON so tuples/lists and int/float spellings
        # compare equal to a loaded checkpoint's record.
        try:
            return json.loads(json.dumps(config, sort_keys=True))
        except (TypeError, ValueError) as error:
            raise ModelError(
                f"exploration configuration is not JSON-safe ({error}); "
                "strategy options must be JSON-safe values (checkpoints and "
                "resume validation serialise them)"
            ) from None

    def _snapshot(
        self,
        config: Mapping[str, Any],
        strategy: SearchStrategy,
        report: ExplorationReport,
        sequence: List[List[Any]],
        spent: int,
        stale_rounds: int,
    ) -> ExplorationCheckpoint:
        return ExplorationCheckpoint(
            problem=config["problem"],
            strategy=config["strategy"],
            seed=config["seed"],
            parameters=dict(config["parameters"]),
            objectives=[list(pair) for pair in config["objectives"]],
            max_resources=config["max_resources"],
            explore_orders=config["explore_orders"],
            strict=config["strict"],
            strategy_options=dict(config["strategy_options"]),
            budget=self.budget,
            spent=spent,
            rounds=report.rounds,
            stale_rounds=stale_rounds,
            evaluated=report.evaluated,
            cache_hits=report.cache_hits,
            infeasible=report.infeasible,
            errors=report.errors,
            results=[list(entry) for entry in sequence],
            front=report.front.digests(),
            strategy_state=strategy.state(),
        )

    def _restore(
        self,
        config: Mapping[str, Any],
        strategy: SearchStrategy,
        report: ExplorationReport,
        seen: Dict[str, JobResult],
        sequence: List[List[Any]],
    ) -> Tuple[int, int]:
        """Restore strategy + report from the checkpoint; returns (spent, stale)."""
        assert self.checkpoint is not None
        loaded = self.checkpoint.load()
        if loaded is None:
            raise ModelError(
                f"cannot resume: checkpoint {self.checkpoint.path} is absent or empty"
            )
        loaded.validate_against(config)
        strategy.restore(loaded.strategy_state)
        store = self.store
        assert store is not None  # enforced in __init__
        for candidate_digest, job_digest, ok in loaded.results:
            if ok:
                record = store.get(job_digest)
                if record is None:
                    raise ModelError(
                        f"cannot resume: the result store is missing job "
                        f"{job_digest[:12]} referenced by the checkpoint -- "
                        "resume against the store that backed the original run"
                    )
                result = JobResult.from_record(record).with_cached(True)
            else:
                result = JobResult(
                    job_digest=job_digest,
                    scenario=DSE_SCENARIO,
                    parameters={},
                    replication=0,
                    seed=0,
                    error="failed before the resume (error results are not stored)",
                )
            seen[candidate_digest] = result
            report.results.append(result)
            sequence.append([candidate_digest, job_digest, bool(ok)])
            if result.ok and result.metrics.get("feasible"):
                report.front.offer(
                    candidate_digest,
                    result.metrics,
                    payload=MappingCandidate.from_parameters(result.parameters),
                )
        if report.front.digests() != list(loaded.front):
            raise ModelError(
                "cannot resume: the front rebuilt from the store does not match "
                "the checkpointed front digests -- the store contents changed "
                "since the checkpoint was written"
            )
        report.rounds = loaded.rounds
        report.evaluated = loaded.evaluated
        report.cache_hits = loaded.cache_hits
        report.infeasible = loaded.infeasible
        report.errors = loaded.errors
        report.resumed = True
        return loaded.spent, loaded.stale_rounds

    def _round_record(
        self,
        report: ExplorationReport,
        spent: int,
        stale_rounds: int,
        fresh_count: int,
        elapsed_ns: int,
    ) -> Dict[str, Any]:
        """One convergence record: the exploration's state after a round."""
        explored = report.explored
        feasible = explored - report.infeasible - report.errors
        # Hypervolume is only defined for two-objective fronts; a
        # heterogeneous (3+ objective) exploration records an honest None
        # instead of a fabricated scalar.
        hypervolume: Optional[float] = None
        if len(report.front.objectives) == 2:
            hypervolume = report.front.hypervolume()
        seconds = elapsed_ns / 1e9
        return {
            "round": report.rounds,
            "spent": spent,
            "explored": explored,
            "evaluated": report.evaluated,
            "cache_hits": report.cache_hits,
            "infeasible": report.infeasible,
            "errors": report.errors,
            "front_size": len(report.front),
            "hypervolume": hypervolume,
            "feasible_ratio": round(feasible / explored, 4) if explored else None,
            "fresh": fresh_count,
            "candidates_per_second": (
                round(fresh_count / seconds, 2) if seconds > 0 else None
            ),
            "round_seconds": round(seconds, 6),
            "stale_rounds": stale_rounds,
        }

    def _emit_round(self, record: Mapping[str, Any]) -> None:
        """Persist + publish one round record (trace, callback, telemetry)."""
        telemetry.count("dse.explore.rounds")
        telemetry.gauge("dse.explore.front_size", record["front_size"])
        if record["hypervolume"] is not None:
            telemetry.gauge("dse.explore.hypervolume", record["hypervolume"])
        if self.convergence is not None:
            self.convergence.append(record)
        if self.progress is not None:
            self.progress(dict(record))

    def run(self) -> ExplorationReport:
        """Explore until the budget is spent or the strategy runs dry.

        With a ``ledger`` configured the whole exploration is additionally
        measured end to end and a :class:`~repro.telemetry.manifest
        .RunManifest` is appended: when telemetry is not already enabled
        (no ``--trace``), the run executes inside a private
        :func:`~repro.telemetry.collect` scope so the manifest still
        carries real counters and cache-hit rates without globally enabling
        telemetry -- the scope's parent is disabled, so nothing leaks.
        The measured run starts from a full garbage collection, so its wall
        time does not include collector passes owed to earlier work in the
        process (a gen-1 pass alone is a fifth of a 10 ms exploration).
        """
        if self.ledger is not None:
            gc.collect()
        with telemetry.timed_ns() as wall_timer:
            folded: Optional[Dict[str, Any]] = None
            if self.ledger is not None and not telemetry.enabled():
                with telemetry.collect(enable=True) as scope:
                    report = self._run_rounds()
                folded = scope.snapshot()
            else:
                report = self._run_rounds()
                if self.ledger is not None:
                    folded = telemetry.snapshot()
        report.wall_time_s = wall_timer.elapsed_ns / 1e9
        if self.ledger is not None:
            report.manifest = self.build_manifest(report, folded)
            self.ledger.append(report.manifest)
        return report

    def build_manifest(
        self,
        report: ExplorationReport,
        telemetry_snapshot: Optional[Mapping[str, Any]] = None,
    ) -> "telemetry.RunManifest":
        """The run's provenance record (see :mod:`repro.telemetry.manifest`).

        The problem parameterisation feeds the problem digest; everything
        that shapes the execution -- strategy, seed, budget, evaluator mode
        and the backend this process sweeps with -- feeds the config digest,
        so the regression sentinel only ever compares runs of the same
        problem under the same setup.
        """
        resolved = self.problem.parameters(self.parameters)
        config = self._config(resolved)
        config.pop("parameters", None)  # digested separately (problem digest)
        config["budget"] = self.budget
        config["evaluator"] = self.evaluator
        config["backend"] = resolve_backend(None)
        wall = report.wall_time_s
        hypervolume: Optional[float] = None
        if len(report.front.objectives) == 2 and len(report.front):
            hypervolume = report.front.hypervolume()
        best = report.best()
        metrics: Dict[str, Any] = {
            "wall_time_s": round(wall, 6),
            "explored": report.explored,
            "evaluated": report.evaluated,
            "cache_hits": report.cache_hits,
            "infeasible": report.infeasible,
            "errors": report.errors,
            "rounds": report.rounds,
            "front_size": len(report.front),
            "hypervolume": hypervolume,
            "candidates_per_s": round(report.explored / wall, 2) if wall > 0 else None,
            "best_latency_us": (
                round(best.metrics["latency_us"], 3) if best is not None else None
            ),
        }
        return telemetry.RunManifest.build(
            kind="dse",
            label=self.problem.name,
            parameters=dict(resolved),
            config=config,
            metrics=metrics,
            telemetry_snapshot=telemetry_snapshot,
            budget=self.budget,
            wall_time_s=round(wall, 6),
        )

    def _run_rounds(self) -> ExplorationReport:
        """The exploration loop proper (manifest-free; see :meth:`run`)."""
        resolved = self.problem.parameters(self.parameters)
        space = self.build_space()
        strategy: SearchStrategy = make_strategy(
            self.strategy_name,
            space,
            seed=self.seed,
            objectives=self.objectives,
            **self.strategy_options,
        )
        report = ExplorationReport(
            problem=self.problem.name,
            strategy=self.strategy_name,
            objectives=self.objectives,
            front=ParetoFront(self.objectives),
        )
        config = self._config(resolved)
        seen: Dict[str, JobResult] = {}
        sequence: List[List[Any]] = []  # [candidate digest, job digest, ok]
        spent = 0
        stale_rounds = 0
        if self.resume:
            spent, stale_rounds = self._restore(config, strategy, report, seen, sequence)
        elif self.checkpoint is not None:
            self.checkpoint.reset()
        if not self.resume and self.convergence is not None:
            # Same semantics as the checkpoint: a fresh run starts a fresh
            # curve, a resumed run keeps extending the original one.
            self.convergence.reset()

        rounds_this_call = 0
        while (
            spent < self.budget
            and not strategy.exhausted
            and stale_rounds < MAX_STALE_ROUNDS
            and (self.max_rounds is None or rounds_this_call < self.max_rounds)
        ):
            budget_left = self.budget - spent
            with telemetry.timed_ns() as round_timer:
                with telemetry.span(
                    "dse.explore.round",
                    category="dse",
                    args={"round": report.rounds + 1},
                ):
                    batch = strategy.propose(budget_left)
                    if not batch:
                        if strategy.exhausted:
                            break
                        stale_rounds += 1
                        continue
                    # Digesting normalises + hashes the whole encoding; do it
                    # once per proposed candidate and reuse below (observe()
                    # needs it again).
                    digests = [candidate.digest() for candidate in batch]
                    fresh: List[Tuple[str, MappingCandidate]] = []
                    fresh_digests = set()
                    for digest, candidate in zip(digests, batch):
                        if digest in seen or digest in fresh_digests:
                            continue
                        if len(fresh) >= budget_left:
                            break
                        fresh.append((digest, candidate))
                        fresh_digests.add(digest)

                    if fresh:
                        with telemetry.span(
                            "dse.explore.score",
                            category="dse",
                            args={"candidates": len(fresh)},
                        ):
                            results, hits = self._score(
                                [candidate for _, candidate in fresh], resolved
                            )
                        for (digest, candidate), result in zip(fresh, results):
                            seen[digest] = result
                            report.results.append(result)
                            sequence.append([digest, result.job_digest, result.ok])
                            if not result.ok:
                                report.errors += 1
                                continue
                            if not result.metrics.get("feasible"):
                                report.infeasible += 1
                                continue
                            report.front.offer(digest, result.metrics, payload=candidate)
                        report.cache_hits += hits
                        report.evaluated += len(fresh) - hits
                        spent += len(fresh)
                        stale_rounds = 0
                    else:
                        stale_rounds += 1

                    strategy.observe(
                        [
                            Observation(
                                candidate=candidate,
                                vector=objective_vector(
                                    seen[digest].metrics, self.objectives
                                ),
                                feasible=bool(
                                    seen[digest].metrics.get("feasible", True)
                                ),
                            )
                            for digest, candidate in zip(digests, batch)
                            if digest in seen and seen[digest].ok
                        ]
                    )
            report.rounds += 1
            rounds_this_call += 1
            self._emit_round(
                self._round_record(
                    report, spent, stale_rounds, len(fresh), round_timer.elapsed_ns
                )
            )
            if self.checkpoint is not None:
                self.checkpoint.write(
                    self._snapshot(config, strategy, report, sequence, spent, stale_rounds)
                )
        return report


def front_from_store(
    store: ResultStore,
    problem: Optional[str] = None,
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> Tuple[
    ParetoFront, List[Tuple[str, Mapping[str, Any]]], Set[str], Set[str], Dict[str, str]
]:
    """Rebuild a Pareto front from a result store alone (no exploration state).

    Scans every stored ``dse-eval`` record, filters to ``problem`` when given,
    and offers each successful evaluation to a fresh front.  Returns ``(front,
    entries, problems_seen, contexts_seen, evaluators)`` where ``entries``
    are the ``(candidate digest, metrics)`` pairs of every considered record
    (feasible or not, for ranked tables), ``problems_seen`` names every problem
    encountered, ``contexts_seen`` holds the canonical JSON of every distinct
    problem *parameterisation* (``items``, ``seed``, ... -- the record's
    parameters minus the candidate encoding) and ``evaluators`` maps each
    candidate digest to the scoring path that produced its record
    (``replay``/``steady``; records from before the field existed count as
    ``replay``).  Objectives are only comparable within one ``(problem,
    parameterisation)``: latency scales with the workload, so callers should
    refuse to build one front across several problems or contexts.  Mixed
    evaluators are *sound* (the modes are certified identical) but worth
    reporting, since wall-time provenance differs.
    """
    front = ParetoFront(tuple(objectives))
    entries: List[Tuple[str, Mapping[str, Any]]] = []
    problems: Set[str] = set()
    contexts: Set[str] = set()
    evaluators: Dict[str, str] = {}
    for job_digest in store.digests():
        record = store.get(job_digest)
        try:
            result = JobResult.from_record(record)
        except CampaignError:
            continue
        if result.scenario != DSE_SCENARIO or not result.ok:
            continue
        record_problem = str(result.parameters.get("problem"))
        if problem is not None and record_problem != problem:
            continue
        try:
            candidate_digest = MappingCandidate.from_parameters(result.parameters).digest()
        except ModelError:
            continue
        problems.add(record_problem)
        contexts.add(
            canonical_json(
                {
                    key: value
                    for key, value in result.parameters.items()
                    if key not in ("allocation", "orders")
                }
            )
        )
        evaluators[candidate_digest] = result.evaluator or "replay"
        entries.append((candidate_digest, result.metrics))
        front.offer(candidate_digest, result.metrics)
    return front, entries, problems, contexts, evaluators
