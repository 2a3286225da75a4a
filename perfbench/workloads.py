"""Workload bodies: set-up, one repetition, correctness gates, metrics.

A workload object is built by its constructor (the part ``setup_s``
times) and then repeated with :meth:`repeat`, once per *key* of
:attr:`keys`.  A repetition runs the workload once, times it with tracing
off (or through a :class:`~tracer.Tracer` when one is given) and checks
its outputs; the checks run outside the timed calls.  Repetitions of one
key do identical work, so a DSE run checks that each of them leaves the
same work fingerprint.

Untraced work is timed in reference seconds (see ``hostspeed.py``), and
every rate is the median over all timed runs of the workload (each
exploration or each model run counts once), never a mean.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import didactic_stimulus
from repro.analysis.events import theoretical_event_ratio
from repro.campaign import ResultStore
from repro.campaign.runner import CampaignRunner
from repro.core import EquivalentArchitectureModel, build_equivalent_spec
from repro.core.compute import InstantComputer
from repro.dse import (
    CompiledProblem,
    MappingExplorer,
    NsgaSearch,
    compiled_problem,
    evaluate_candidate,
    get_problem,
    objective_vector,
)
from repro.dse import compile as dse_compile
from repro.dse.engine import resolve_backend
from repro.dse.space import MappingCandidate
from repro.examples_lib.didactic import DEFAULT_PERIOD
from repro.explicit import ExplicitArchitectureModel
from repro.generator import build_chain_architecture

from hostspeed import Meter
from spec import PER_LAYER, Workload
from tracer import Tracer

__all__ = ["DseWorkload", "Table1Workload", "Repetition", "make_workload"]


@dataclass
class Repetition:
    """What one repetition measured: timings, work done, gate failures."""

    key: Any
    #: Named wall times; ``trace.overhead`` compares them between modes.
    timings: Dict[str, float]
    attempted: int
    failed: int
    #: Per phase (DSE) or model run (Table I): (measured, reference) seconds
    #: of each timed run; traced runs have no reference and repeat the first.
    samples: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Per phase, the tracer's aggregates (traced repetitions only).
    phases: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    facts: Dict[str, float] = field(default_factory=dict)


def _snapshot(tracer: Tracer) -> Dict[str, Any]:
    return {
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "tally": dict(tracer.tally),
        "untiled": tracer.untiled_share(),
    }


def _sum_phases(reps: List[Repetition], phase: str) -> Dict[str, Any]:
    """Add up one phase's tracer aggregates over traced repetitions."""
    total: Dict[str, Any] = {
        "self_s": defaultdict(float),
        "calls": defaultdict(int),
        "tally": defaultdict(int),
        "untiled": 0.0,
    }
    for rep in reps:
        snap = rep.phases[phase]
        for key in ("self_s", "calls", "tally"):
            for name, value in snap[key].items():
                total[key][name] += value
        total["untiled"] = max(total["untiled"], snap["untiled"])
    return total


def _by_key(reps: List[Repetition]) -> List[List[Repetition]]:
    groups: Dict[Any, List[Repetition]] = {}
    for rep in reps:
        groups.setdefault(rep.key, []).append(rep)
    return list(groups.values())


def _per(value: float, count: float, scale: float = 1.0) -> float:
    return value * scale / count if count else 0.0


def _zero_layers() -> Dict[str, float]:
    return {metric.name: 0.0 for metric in PER_LAYER}


def _overhead(untraced: List[Repetition], traced: List[Repetition], timing: str) -> float:
    """Median over keys of traced / untraced wall time, minus one."""
    plain = {group[0].key: group for group in _by_key(untraced)}
    ratios = [
        statistics.median(rep.timings[timing] for rep in group)
        / statistics.median(rep.timings[timing] for rep in plain[group[0].key])
        for group in _by_key(traced)
        if group[0].key in plain
    ]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


class DseWorkload:
    """Seeded NSGA-II explorations on a fresh file store, then warm re-runs.

    ``--seed`` fixes the problem's stimulus and derives ``searches``
    search seeds, the keys of the run: one exploration's speed depends on
    which candidates its search happens to visit, so a rate is the median
    over several searches of the same stimulus.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        params = workload.params
        self.params = params
        self.seed = seed
        rng = random.Random(seed)
        self.keys = [rng.randrange(2**31) for _ in range(params["searches"])]
        self.problem = get_problem(params["problem"])
        self.parameters = {"items": params["items"], "seed": seed}
        self.resolved = self.problem.parameters(self.parameters)
        self.backend = resolve_backend(None)
        compiled_problem(self.problem, self.resolved)
        # Constructing an explorer and a store is part of set-up too.
        self._explorer(self.keys[0], ResultStore.in_memory())
        self._store_path = workdir / "store.jsonl"
        self._fingerprints: Dict[int, tuple] = {}

    def _explorer(self, search_seed: int, store: ResultStore) -> MappingExplorer:
        return MappingExplorer(
            problem=self.problem,
            strategy=self.params["strategy"],
            budget=self.params["budget"],
            seed=search_seed,
            parameters=self.parameters,
            store=store,
            evaluator=self.params["evaluator"],
        )

    def _explore(self, search_seed: int, progress: Optional[Callable[..., None]] = None):
        explorer = self._explorer(search_seed, ResultStore(self._store_path))
        explorer.progress = progress
        return explorer.run()

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.backend, **self.params, "seed": self.seed}

    def repeat(self, key: int, tracer: Optional[Tracer] = None) -> Repetition:
        self._store_path.unlink(missing_ok=True)
        samples: Dict[str, List[Tuple[float, float]]] = {"cold": [], "warm": []}
        phases: Dict[str, Dict[str, Any]] = {}
        reports: Dict[str, List[Any]] = {"cold": [], "warm": []}
        # A warm re-run is short, so untraced repetitions time several.
        plan = ["cold"] + ["warm"] * (1 if tracer else self.params["warm_runs"])
        for phase in plan:
            if tracer is not None:
                tracer.reset()
                start = time.perf_counter()
                report = tracer.call("explore", self._explore, key)
                seconds = time.perf_counter() - start
                samples[phase].append((seconds, seconds))
                phases[phase] = _snapshot(tracer)
            else:
                meter = Meter()
                meter.start()
                report = self._explore(key, meter.tick)  # a probe after every round
                samples[phase].append(meter.stop())
            reports[phase].append(report)
        self._store_path.unlink(missing_ok=True)
        cold, warm = reports["cold"][0], reports["warm"][0]
        return Repetition(
            key=key,
            timings={"cold": samples["cold"][0][0]},
            attempted=cold.explored + sum(report.explored for report in reports["warm"]),
            failed=self._check(key, cold, reports["warm"]),
            samples=samples,
            phases=phases,
            facts={
                "explored": cold.explored,
                "warm_explored": warm.explored,
                "rounds": cold.rounds,
                "steady": sum(1 for result in cold.results if result.evaluator == "steady"),
            },
        )

    def _check(self, key: int, cold, warm_runs) -> int:
        """Correctness gates of one repetition; returns the failure count."""
        failed = cold.errors
        digests = tuple(sorted(cold.front.digests()))
        for warm in warm_runs:
            failed += warm.errors
            if warm.cache_hits != warm.explored or warm.evaluated:
                failed += 1
            if tuple(sorted(warm.front.digests())) != digests:
                failed += 1
        fingerprint = (cold.explored, cold.rounds, digests)
        if not self._fingerprints and key == self.keys[0]:
            # A from-scratch re-score costs about one candidate evaluation
            # per front point at full horizon: pay it for the first search.
            failed += self._rescore(cold)
        if self._fingerprints.setdefault(key, fingerprint) != fingerprint:
            failed += 1
        return failed

    def _rescore(self, report) -> int:
        """Front points whose objectives differ from a from-scratch re-score."""
        mismatches = 0
        for point in report.front.points():
            evaluation = evaluate_candidate(
                self.problem, point.payload, self.resolved, compiled=False
            )
            if not evaluation.feasible or objective_vector(
                evaluation.metrics(), report.objectives
            ) != point.vector:
                mismatches += 1
        return mismatches

    @staticmethod
    def install(tracer: Tracer) -> None:
        """Wrap the DSE layers' public entry points."""
        tracer.wrap(MappingCandidate, "digest", "space.digest")
        tracer.wrap(NsgaSearch, "propose", "search.propose", tally=len)
        tracer.wrap(NsgaSearch, "observe", "search.observe")
        tracer.wrap(CampaignRunner, "run", "campaign.run")
        tracer.wrap(ResultStore, "__init__", "store.init")
        tracer.wrap(ResultStore, "get", "store.get", tally=lambda record: record is not None)
        tracer.wrap(ResultStore, "put", "store.put")
        tracer.wrap(CompiledProblem, "evaluate_batch", "compile.evaluate_batch", tally=len)
        tracer.wrap(dse_compile, "lower_spec", "engine.lower")
        tracer.wrap(dse_compile, "replay_batch", "engine.sweep")
        tracer.wrap(InstantComputer, "compute_iteration", "core.compute")

    @staticmethod
    def e2e(reps: List[Repetition]) -> Dict[str, float]:
        def rate(phase: str, fact: str, unit: int) -> float:
            return statistics.median(
                rep.facts[fact] / sample[unit] for rep in reps for sample in rep.samples[phase]
            )

        return {
            "primary_per_s": rate("cold", "explored", 1),
            "secondary_per_s": rate("warm", "warm_explored", 1),
            "primary_per_wall_s": rate("cold", "explored", 0),
            "secondary_per_wall_s": rate("warm", "warm_explored", 0),
        }

    @staticmethod
    def layers(untraced: List[Repetition], traced: List[Repetition]) -> Dict[str, float]:
        cold, warm = _sum_phases(traced, "cold"), _sum_phases(traced, "warm")
        n = sum(rep.facts["explored"] for rep in traced)
        nw = sum(rep.facts["warm_explored"] for rep in traced)
        s, c, t = cold["self_s"], cold["calls"], cold["tally"]
        ws, wc, wt = warm["self_s"], warm["calls"], warm["tally"]
        out = _zero_layers()
        out.update({
            "explore.self_ms_per_cand": _per(s["explore"], n, 1e3),
            "explore.rounds": _per(sum(rep.facts["rounds"] for rep in traced), len(traced)),
            "search.propose_ms_per_cand": _per(s["search.propose"], n, 1e3),
            "search.observe_ms_per_cand": _per(s["search.observe"], n, 1e3),
            "search.proposed_per_fresh": _per(t["search.propose"], n),
            "space.digest_calls_per_cand": _per(c["space.digest"], n),
            "space.digest_ms_per_cand": _per(s["space.digest"], n, 1e3),
            "campaign.self_ms_per_cand": _per(s["campaign.run"], n, 1e3),
            "campaign.cands_per_batch": _per(
                t["compile.evaluate_batch"], c["compile.evaluate_batch"]
            ),
            "store.put_ms_per_cand": _per(s["store.put"], n, 1e3),
            "store.load_ms": _per(ws["store.init"], len(traced), 1e3),
            "store.get_ms_per_cand": _per(ws["store.get"], nw, 1e3),
            "store.hit_ratio": _per(wt["store.get"], wc["store.get"]),
            "compile.self_ms_per_cand": _per(s["compile.evaluate_batch"], n, 1e3),
            "compile.steady_ratio": _per(sum(rep.facts["steady"] for rep in traced), n),
            "engine.lower_ms_per_cand": _per(s["engine.lower"], n, 1e3),
            "engine.sweep_ms_per_cand": _per(s["engine.sweep"], n, 1e3),
            "engine.lowered_per_cand": _per(c["engine.lower"], n),
            "core.compute_us_per_iter": _per(s["core.compute"], c["core.compute"], 1e6),
            "core.compute_calls_per_cand": _per(c["core.compute"], n),
            "warm.explore_self_ms_per_cand": _per(ws["explore"], nw, 1e3),
            "warm.search_ms_per_cand": _per(
                ws["search.propose"] + ws["search.observe"], nw, 1e3
            ),
            "warm.digest_ms_per_cand": _per(ws["space.digest"], nw, 1e3),
            "warm.campaign_self_ms_per_cand": _per(ws["campaign.run"], nw, 1e3),
            "trace.overhead": _overhead(untraced, traced, "cold"),
            "trace.untiled_share": max(cold["untiled"], warm["untiled"]),
        })
        return out


class Table1Workload:
    """Table I: explicit then equivalent model of 1..4 chained didactic stages.

    Each model runs to completion in ``CHUNKS`` slices of simulated time
    (the kernel resumes where a horizon stopped it), so an untraced run can
    probe the host between slices.
    """

    CHUNKS = 20

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.stages = tuple(workload.params["stages"])
        self.items = int(workload.params["items"])
        self.seed = seed
        self.keys = [None] * int(workload.params["runs"])
        self._models: Optional[List[tuple]] = self._build()

    def _build(self) -> List[tuple]:
        models = []
        for stages in self.stages:
            explicit = ExplicitArchitectureModel(
                build_chain_architecture(stages), self._stimuli()
            )
            architecture = build_chain_architecture(stages)
            spec = build_equivalent_spec(architecture)
            equivalent = EquivalentArchitectureModel(architecture, self._stimuli(), spec=spec)
            models.append((stages, architecture, explicit, equivalent))
        return models

    def _stimuli(self) -> Mapping[str, Any]:
        return {"L1": didactic_stimulus(self.items, seed=self.seed)}

    def describe(self) -> Dict[str, Any]:
        return {"stages": list(self.stages), "items": self.items, "seed": self.seed}

    def repeat(self, key: None = None, tracer: Optional[Tracer] = None) -> Repetition:
        # A model runs once: the first repetition uses the set-up's models.
        models, self._models = self._models or self._build(), None
        if tracer is not None:
            tracer.reset()
        samples: Dict[str, List[Tuple[float, float]]] = {}
        facts: Dict[str, float] = {}
        failed = 0
        for stages, architecture, explicit, equivalent in models:
            for label, model in (("explicit", explicit), ("equivalent", equivalent)):
                if tracer is not None:
                    start = time.perf_counter()
                    self._run(model, None)
                    seconds = time.perf_counter() - start
                    sample = (seconds, seconds)
                else:
                    meter = Meter()
                    meter.start()
                    self._run(model, meter.tick)
                    sample = meter.stop()
                samples[f"{label}.s{stages}"] = [sample]
            relation = f"L{stages + 1}"
            reference = [instant.picoseconds for instant in explicit.output_instants(relation)]
            computed = [instant.picoseconds for instant in equivalent.output_instants(relation)]
            ratio = explicit.relation_event_count() / equivalent.relation_event_count()
            if (
                len(reference) != self.items
                or computed != reference
                or not math.isclose(ratio, theoretical_event_ratio(architecture), rel_tol=1e-12)
            ):
                failed += 1
            facts[f"event_ratio.s{stages}"] = ratio
            facts[f"explicit_activations.s{stages}"] = explicit.kernel_stats.process_activations
            facts[f"equivalent_activations.s{stages}"] = (
                equivalent.kernel_stats.process_activations
            )
        return Repetition(
            key=key,
            timings={"all": sum(sample[0][0] for sample in samples.values())},
            attempted=len(models),
            failed=failed,
            samples=samples,
            phases={"run": _snapshot(tracer)} if tracer is not None else {},
            facts=facts,
        )

    def _run(self, model, tick: Optional[Callable[[], None]]) -> None:
        step = DEFAULT_PERIOD * (self.items // self.CHUNKS)
        for _ in range(self.CHUNKS):
            model.run(until=step)
            if tick is not None:
                tick()
        model.run()

    @staticmethod
    def install(tracer: Tracer) -> None:
        tracer.wrap(ExplicitArchitectureModel, "run", "explicit.run")
        tracer.wrap(EquivalentArchitectureModel, "run", "equivalent.run")
        tracer.wrap(InstantComputer, "compute_iteration", "core.compute")

    def _seconds(self, reps: List[Repetition], label: str, unit: int = 1) -> Dict[int, float]:
        """Per stage count, the median run seconds of one model kind."""
        return {
            stages: statistics.median(
                sample[unit] for rep in reps for sample in rep.samples[f"{label}.s{stages}"]
            )
            for stages in self.stages
        }

    def e2e(self, reps: List[Repetition]) -> Dict[str, float]:
        iterations = self.items * len(self.stages)

        def rate(label: str, unit: int) -> float:
            return iterations / sum(self._seconds(reps, label, unit).values())

        return {
            "primary_per_s": rate("equivalent", 1),
            "secondary_per_s": rate("explicit", 1),
            "primary_per_wall_s": rate("equivalent", 0),
            "secondary_per_wall_s": rate("explicit", 0),
        }

    def layers(self, untraced: List[Repetition], traced: List[Repetition]) -> Dict[str, float]:
        run = _sum_phases(traced, "run")
        s, c = run["self_s"], run["calls"]
        iterations = self.items * len(self.stages) * len(traced)

        def activations(label: str) -> float:
            return sum(
                rep.facts[f"{label}_activations.s{stages}"]
                for rep in traced
                for stages in self.stages
            )

        explicit = self._seconds(untraced, "explicit", 0)
        equivalent = self._seconds(untraced, "equivalent", 0)
        logs = [math.log(explicit[stages] / equivalent[stages]) for stages in self.stages]
        out = _zero_layers()
        out.update({
            "core.compute_us_per_iter": _per(s["core.compute"], c["core.compute"], 1e6),
            "core.kernel_us_per_iter": _per(s["equivalent.run"], iterations, 1e6),
            "core.activations_per_iter": _per(activations("equivalent"), iterations),
            "core.speedup_geomean": math.exp(sum(logs) / len(logs)),
            "explicit.us_per_iter": _per(s["explicit.run"], iterations, 1e6),
            "explicit.activations_per_iter": _per(activations("explicit"), iterations),
            "trace.overhead": _overhead(untraced, traced, "all"),
            "trace.untiled_share": run["untiled"],
        })
        for stages in self.stages:
            name = f"core.event_ratio.s{stages}"
            if name in out:
                out[name] = traced[-1].facts[f"event_ratio.s{stages}"]
        return out


def make_workload(workload: Workload, seed: int, workdir: Path):
    kinds = {"dse": DseWorkload, "table1": Table1Workload}
    return kinds[workload.kind](workload, seed, workdir)
