"""What the benchmark measures: workloads, metrics and seeds.

``BENCHMARK.json`` at the repository root carries the subset of these
tables a benchmark runner needs (names, units, directions, bounds, the
one-line "why"); this module is the full record -- workload parameters,
each metric's layer, the workloads that exercise it and the end-to-end
metric a layer metric should move.  ``tests/test_perfbench.py`` keeps
the two in agreement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

#: Seed used when ``--seed`` is omitted.
DEFAULT_SEED = 2014
#: Second seed, never used while the workloads were sized; ``suite.py
#: --held-out`` reports every workload under it beside the default seed.
HELD_OUT_SEED = 4242

NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

DSE = ("dse-glue", "dse-sweep", "dse-steady")
ALL = DSE + ("paper-table1",)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "dse" or "table1"
    params: Mapping[str, Any]
    why: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "dse-glue",
            "dse",
            {"problem": "chain", "strategy": "nsga2", "items": 50, "budget": 400,
             "evaluator": "replay", "searches": 6, "warm_runs": 1},
            "small horizon where Python glue, digests and per-record store writes "
            "dominate; the warm re-run only reads the store",
        ),
        Workload(
            "dse-sweep",
            "dse",
            {"problem": "chain", "strategy": "nsga2", "items": 2000, "budget": 48,
             "evaluator": "replay", "searches": 6, "warm_runs": 5},
            "paper-scale horizon where the batched array sweep and compile dominate "
            "and the store is a few percent",
        ),
        Workload(
            "dse-steady",
            "dse",
            {"problem": "chain-periodic", "strategy": "nsga2", "items": 4000, "budget": 48,
             "evaluator": "auto", "searches": 8, "warm_runs": 5},
            "every candidate is steady-certified, so compile/assemble dominate and the "
            "array engine is bypassed",
        ),
        Workload(
            "paper-table1",
            "table1",
            {"stages": (1, 2, 3, 4), "items": 2000, "runs": 4},
            "the paper's Table I: explicit versus equivalent model on 1-4 chained "
            "stages, the only run of kernel, channels and explicit",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"
    layer: str
    workloads: Tuple[str, ...]
    meaning: str
    #: End-to-end metrics only: allowed worsening, as a share of the median.
    bound: Optional[float] = None
    #: Per-layer metrics only: the end-to-end metric it should move.
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "primary_per_s", "1/s", "higher", "end-to-end", ALL,
        "dse-*: candidates_per_s, distinct candidates scored per reference second of "
        "MappingExplorer.run() on a fresh store; paper-table1: "
        "equivalent_iters_per_s, 4 x items iterations over the summed "
        "equivalent-model run() reference seconds",
        bound=0.25,
    ),
    Metric(
        "secondary_per_s", "1/s", "higher", "end-to-end", ALL,
        "dse-*: cached_candidates_per_s, the same seeded exploration re-run "
        "against the reopened store, store load included; paper-table1: "
        "explicit_iters_per_s",
        bound=0.25,
    ),
    Metric(
        "setup_s", "s", "lower", "end-to-end", ALL,
        "reference seconds of a fresh interpreter that imports repro and builds the "
        "workload up to ready-to-time (median of several)",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", "end-to-end", ALL,
        "peak resident set size of the measuring process",
        bound=0.1,
    ),
)


def _layer(name, unit, better, layer, workloads, moves, meaning) -> Metric:
    return Metric(name, unit, better, layer, workloads, meaning, moves=moves)


PER_LAYER: Tuple[Metric, ...] = (
    _layer("explore.self_ms_per_cand", "ms", "lower", "dse.explore", DSE,
           "primary_per_s on dse-glue",
           "MappingExplorer.run wall minus every wrapped layer, cold phase"),
    _layer("explore.rounds", "count", "lower", "dse.explore", DSE,
           "primary_per_s on dse-glue", "exploration rounds per cold run"),
    _layer("search.propose_ms_per_cand", "ms", "lower", "dse.search", DSE,
           "primary_per_s and secondary_per_s on dse-glue", "strategy propose() self time"),
    _layer("search.observe_ms_per_cand", "ms", "lower", "dse.search", DSE,
           "primary_per_s and secondary_per_s on dse-glue", "strategy observe() self time"),
    _layer("search.proposed_per_fresh", "ratio", "lower", "dse.search", DSE,
           "primary_per_s on dse-glue", "proposals per distinct candidate (waste ratio)"),
    _layer("space.digest_calls_per_cand", "count", "lower", "dse.space", DSE,
           "both rates on dse-glue; no move on dse-sweep", "MappingCandidate.digest calls"),
    _layer("space.digest_ms_per_cand", "ms", "lower", "dse.space", DSE,
           "both rates on dse-glue; no move on dse-sweep", "MappingCandidate.digest self time"),
    _layer("campaign.self_ms_per_cand", "ms", "lower", "campaign.runner", DSE,
           "primary_per_s on dse-glue", "CampaignRunner.run self time, cold phase"),
    _layer("campaign.cands_per_batch", "count", "higher", "campaign.runner", DSE,
           "primary_per_s on dse-sweep", "candidates per evaluate_batch call"),
    _layer("store.put_ms_per_cand", "ms", "lower", "campaign.store", DSE,
           "primary_per_s on dse-glue; no move on dse-sweep", "ResultStore.put (one fsync each)"),
    _layer("store.load_ms", "ms", "lower", "campaign.store", DSE,
           "secondary_per_s on dse-glue", "ResultStore(path) load of the warm phase"),
    _layer("store.get_ms_per_cand", "ms", "lower", "campaign.store", DSE,
           "secondary_per_s on dse-glue", "ResultStore.get self time, warm phase"),
    _layer("store.hit_ratio", "ratio", "higher", "campaign.store", DSE,
           "secondary_per_s on dse-glue", "warm-phase store gets that hit (must be 1.0)"),
    _layer("compile.self_ms_per_cand", "ms", "lower", "dse.compile", DSE,
           "primary_per_s on dse-steady, then dse-sweep",
           "evaluate_batch minus engine and compute_iteration"),
    _layer("compile.steady_ratio", "ratio", "higher", "dse.compile", DSE,
           "primary_per_s on dse-steady", "share of candidates scored by the steady evaluator"),
    _layer("engine.lower_ms_per_cand", "ms", "lower", "dse.engine", DSE,
           "primary_per_s on dse-sweep", "lower_spec self time"),
    _layer("engine.sweep_ms_per_cand", "ms", "lower", "dse.engine", DSE,
           "primary_per_s on dse-sweep; little on dse-glue", "replay_batch self time"),
    _layer("engine.lowered_per_cand", "count", "lower", "dse.engine", DSE,
           "primary_per_s on dse-sweep", "lower_spec calls per candidate (0 on dse-steady)"),
    _layer("core.compute_us_per_iter", "us", "lower", "core", ALL,
           "primary_per_s on paper-table1", "InstantComputer.compute_iteration per call"),
    _layer("core.compute_calls_per_cand", "count", "lower", "core", DSE,
           "primary_per_s on dse-steady", "compute_iteration calls per candidate"),
    _layer("core.kernel_us_per_iter", "us", "lower", "kernel", ("paper-table1",),
           "primary_per_s on paper-table1", "equivalent run() minus compute_iteration"),
    _layer("core.activations_per_iter", "count", "lower", "kernel", ("paper-table1",),
           "primary_per_s on paper-table1", "equivalent-model process activations"),
    *(
        _layer(f"core.event_ratio.s{stages}", "ratio", "higher", "tdg", ("paper-table1",),
               "primary_per_s on paper-table1",
               f"explicit / equivalent relation events, {stages} stage(s)")
        for stages in (1, 2, 3, 4)
    ),
    _layer("core.speedup_geomean", "ratio", "higher", "core", ("paper-table1",),
           "reported, not gated", "geometric mean of explicit / equivalent run() time"),
    _layer("explicit.us_per_iter", "us", "lower", "explicit", ("paper-table1",),
           "secondary_per_s on paper-table1", "explicit-model run() time per iteration"),
    _layer("explicit.activations_per_iter", "count", "lower", "explicit", ("paper-table1",),
           "secondary_per_s on paper-table1", "explicit-model process activations"),
    _layer("warm.explore_self_ms_per_cand", "ms", "lower", "dse.explore", DSE,
           "secondary_per_s on dse-glue", "explore self time, warm phase"),
    _layer("warm.search_ms_per_cand", "ms", "lower", "dse.search", DSE,
           "secondary_per_s on dse-glue", "propose + observe self time, warm phase"),
    _layer("warm.digest_ms_per_cand", "ms", "lower", "dse.space", DSE,
           "secondary_per_s on dse-glue", "digest self time, warm phase"),
    _layer("warm.campaign_self_ms_per_cand", "ms", "lower", "campaign.runner", DSE,
           "secondary_per_s on dse-glue", "CampaignRunner.run self time, warm phase"),
    _layer("trace.overhead", "ratio", "lower", "tracing", ALL,
           "none: untraced runs install no wrappers", "traced wall / untraced wall - 1"),
    _layer("trace.untiled_share", "ratio", "lower", "tracing", ALL,
           "none", "|traced root wall - sum of self times| / traced root wall"),
)
