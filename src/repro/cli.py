"""Command-line interface.

A small front-end over the experiment harnesses so the paper's artefacts
can be regenerated without writing any Python::

    python -m repro.cli table1 --items 4000 --stages 4 --jobs 4
    python -m repro.cli fig5   --items 500 --seed 7
    python -m repro.cli fig6   --frames 1
    python -m repro.cli lte    --symbols 2800
    python -m repro.cli describe didactic|lte|chain2
    python -m repro.cli campaign list
    python -m repro.cli campaign run table1-sweep --jobs 4 --store results.jsonl
    python -m repro.cli dse run --problem didactic --budget 200 --store dse.jsonl
    python -m repro.cli dse run --strategy nsga2 --store dse.jsonl \
        --checkpoint dse.ck.jsonl --rounds 3        # interrupt at a round boundary
    python -m repro.cli dse run --strategy nsga2 --store dse.jsonl \
        --checkpoint dse.ck.jsonl --resume          # continue bit-identically
    python -m repro.cli dse front --store dse.jsonl # front from the store alone
    python -m repro.cli dse show didactic
    python -m repro.cli obs runs                    # the cross-run ledger
    python -m repro.cli obs trend candidates_per_s  # one metric over time
    python -m repro.cli obs diff -2 -1              # two runs, side by side
    python -m repro.cli obs regressions             # sentinel verdicts (CI gate)

Every sub-command prints plain-text tables/series (via
:mod:`repro.analysis.report`), suitable for redirecting into the
experiment log.  ``table1`` and ``fig5`` route through the campaign
runner (:mod:`repro.campaign`), so they accept ``--jobs`` for parallel
execution and ``--store`` for content-addressed result caching; the
``campaign`` sub-command exposes the full subsystem (grid overrides,
Monte-Carlo replications, aggregation).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from . import telemetry
from .analysis import format_rows, format_series
from .campaign import (
    CampaignRunner,
    ResultStore,
    aggregate_results,
    campaign_manifest,
    default_registry,
)
from .dse import (
    DEFAULT_OBJECTIVES,
    EVALUATOR_MODES,
    MappingExplorer,
    ParetoFront,
    STRATEGY_NAMES,
    front_from_store,
    get_problem,
    problem_registry,
    ranked_rows,
)
from .dse.engine import resolve_backend
from .errors import CampaignError, ModelError
from .examples_lib import build_didactic_architecture
from .generator import build_chain_architecture
from .lte import (
    OUTPUT_RELATION,
    build_lte_architecture,
    build_lte_models,
    fig6_observation,
)
from .observation import compare_instants

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of Le Nours et al., DATE 2014.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="show informational 'repro' log messages on stderr (repeat for debug)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="Table I: speed-up on chained architectures")
    table1.add_argument("--items", type=int, default=4000, help="data items per model")
    table1.add_argument("--stages", type=int, default=4, help="largest chain length")
    _add_runner_arguments(table1)

    fig5 = subparsers.add_parser("fig5", help="Fig. 5: speed-up vs TDG node count")
    fig5.add_argument("--items", type=int, default=500, help="data items per sweep point")
    fig5.add_argument("--x-size", type=int, default=10, help="size of the X(k) vector")
    fig5.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=[50, 100, 200, 500, 1000],
        help="target node counts",
    )
    fig5.add_argument("--seed", type=int, default=7, help="stimulus seed (data sizes)")
    _add_runner_arguments(fig5)

    fig6 = subparsers.add_parser("fig6", help="Fig. 6: LTE frame observation")
    fig6.add_argument("--frames", type=int, default=1, help="number of LTE frames to observe")

    lte = subparsers.add_parser("lte", help="Section V: LTE speed-up measurement")
    lte.add_argument("--symbols", type=int, default=2800, help="number of OFDM symbols")

    describe = subparsers.add_parser("describe", help="print an architecture description")
    describe.add_argument(
        "target",
        choices=["didactic", "lte", "chain2"],
        help="which architecture to describe",
    )

    campaign = subparsers.add_parser("campaign", help="parallel experiment campaigns")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    run = campaign_sub.add_parser("run", help="run a registered scenario campaign")
    run.add_argument("scenario", help="scenario name (see 'campaign list')")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pin a scenario parameter (repeatable; drops the like-named grid axis)",
    )
    run.add_argument(
        "--grid",
        dest="grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="replace/add a grid axis (repeatable)",
    )
    run.add_argument("--replications", type=int, default=None, help="Monte-Carlo replications")
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument(
        "--record-instants",
        action="store_true",
        help="persist the full output-instant sequences in the store",
    )
    run.add_argument("--per-job", action="store_true", help="also print one row per job")
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded job list (digests, seeds, cache status) without simulating",
    )
    run.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="enable telemetry and write a Chrome trace-event JSON of the run "
        "(load in Perfetto or chrome://tracing)",
    )
    _add_runner_arguments(run)
    _add_ledger_arguments(run)

    campaign_sub.add_parser("list", help="list the registered scenarios")

    show = campaign_sub.add_parser("show", help="show one scenario's parameters and jobs")
    show.add_argument("scenario", help="scenario name (see 'campaign list')")

    dse = subparsers.add_parser("dse", help="mapping design-space exploration")
    dse_sub = dse.add_subparsers(dest="dse_command", required=True)

    dse_run = dse_sub.add_parser("run", help="explore candidate mappings of a design problem")
    dse_run.add_argument("--problem", default="didactic", help="design problem (see 'dse show')")
    dse_run.add_argument(
        "--strategy",
        default="random",
        choices=list(STRATEGY_NAMES),
        help="search strategy",
    )
    dse_run.add_argument("--budget", type=int, default=200, help="max candidates to score")
    dse_run.add_argument("--seed", type=int, default=0, help="search seed (not the stimulus seed)")
    dse_run.add_argument(
        "--evaluator",
        default="replay",
        choices=list(EVALUATOR_MODES),
        help="candidate scoring path: 'replay' computes every iteration, "
        "'auto' certifies the periodic regime and extrapolates the rest "
        "(identical objectives, per-candidate fallback to replay when the "
        "candidate does not qualify)",
    )
    dse_run.add_argument("--items", type=int, default=None, help="data items per evaluation")
    dse_run.add_argument(
        "--max-resources", type=int, default=None, help="resource-count constraint"
    )
    dse_run.add_argument(
        "--no-orders",
        action="store_true",
        help="fix every static service order to the dependency-aware default",
    )
    dse_run.add_argument(
        "--loose-orders",
        action="store_true",
        help="sample service orders without the dependency-feasibility constraint "
        "(deliberately probes infeasible interleavings)",
    )
    dse_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pin a problem parameter (repeatable), e.g. stages=3 or seed=42",
    )
    dse_run.add_argument("--top", type=int, default=None, help="also print the top-N ranked table")
    dse_run.add_argument(
        "--record-instants",
        action="store_true",
        help="persist each feasible candidate's output-instant sequences in the store",
    )
    dse_run.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help="write a resumable JSONL checkpoint (strategy state, candidate "
        "sequence, front) after every round",
    )
    dse_run.add_argument(
        "--resume",
        action="store_true",
        help="resume the exploration from --checkpoint (needs the --store that "
        "backed the original run); with the same --budget the combined run is "
        "bit-identical to an uninterrupted one, a larger --budget extends it",
    )
    dse_run.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="stop after this many search rounds (a clean round-boundary "
        "interruption point for --checkpoint/--resume)",
    )
    dse_run.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="enable telemetry and write a Chrome trace-event JSON of the "
        "exploration (load in Perfetto or chrome://tracing); also writes a "
        "per-round convergence JSONL next to it unless --convergence overrides",
    )
    dse_run.add_argument(
        "--convergence",
        type=str,
        default=None,
        metavar="PATH",
        help="write a per-round convergence JSONL (hypervolume, front size, "
        "feasible ratio, candidates/s) -- render it with 'repro obs report'",
    )
    dse_run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live per-round progress line on stderr",
    )
    dse_run.add_argument(
        "--progress",
        action="store_true",
        help="force the live per-round progress line even when stderr is not "
        "a TTY (it is auto-suppressed in redirected/CI logs)",
    )
    _add_store_argument(dse_run)
    _add_ledger_arguments(dse_run)

    dse_front = dse_sub.add_parser(
        "front", help="rebuild a Pareto front from a result store alone"
    )
    dse_front.add_argument(
        "--store",
        type=str,
        required=True,
        metavar="PATH",
        help="JSONL result store holding dse-eval records",
    )
    dse_front.add_argument(
        "--problem",
        default=None,
        help="only this problem's evaluations (required when the store mixes "
        "several problems)",
    )
    dse_front.add_argument(
        "--top", type=int, default=None, help="also print the top-N ranked table"
    )

    dse_show = dse_sub.add_parser("show", help="describe design problems and their spaces")
    dse_show.add_argument(
        "problem", nargs="?", default=None, help="problem name (omit to list all problems)"
    )
    dse_show.add_argument(
        "--max-resources", type=int, default=None, help="resource-count constraint"
    )
    dse_show.add_argument("--no-orders", action="store_true", help="ignore service orders")
    dse_show.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pin a problem parameter (repeatable)",
    )
    dse_show.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="PATH",
        help="also summarise this result store's dse-eval records per problem, "
        "split by the evaluator mode (replay/steady) that produced them",
    )

    obs = subparsers.add_parser("obs", help="observability: telemetry artefact reports")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="render a convergence JSONL or Chrome trace file written by --trace",
    )
    obs_report.add_argument(
        "path",
        help="a convergence .jsonl (per-round records) or a Chrome trace .json",
    )
    obs_report.add_argument(
        "--last", type=int, default=None, help="only show the last N rounds"
    )

    obs_runs = obs_sub.add_parser("runs", help="list the run ledger, one row per manifest")
    _add_obs_ledger_argument(obs_runs)
    obs_runs.add_argument(
        "--kind", default=None, help="only runs of this kind (dse/campaign/benchmark)"
    )
    obs_runs.add_argument(
        "--label", default=None, help="only runs with this label (problem/scenario name)"
    )
    obs_runs.add_argument("--last", type=int, default=None, help="only the last N runs")

    obs_trend = obs_sub.add_parser(
        "trend", help="text trend of one metric across comparable runs"
    )
    obs_trend.add_argument(
        "metric", help="metric name, e.g. candidates_per_s, wall_time_s, hypervolume"
    )
    _add_obs_ledger_argument(obs_trend)
    obs_trend.add_argument(
        "--kind", default=None, help="only runs of this kind (dse/campaign/benchmark)"
    )
    obs_trend.add_argument(
        "--label", default=None, help="only runs with this label (problem/scenario name)"
    )
    obs_trend.add_argument(
        "--last", type=int, default=None, help="only the last N runs of each group"
    )

    obs_diff = obs_sub.add_parser(
        "diff", help="compare two ledger runs: manifest fields, metrics, counters, span totals"
    )
    obs_diff.add_argument(
        "run_a", help="run id prefix, or a ledger index like -2 (second newest)"
    )
    obs_diff.add_argument(
        "run_b", help="run id prefix, or a ledger index like -1 (newest)"
    )
    _add_obs_ledger_argument(obs_diff)

    obs_gc = obs_sub.add_parser(
        "gc",
        help="compact the run ledger: keep the last N runs of every "
        "problem+config family, drop the long tail",
    )
    _add_obs_ledger_argument(obs_gc)
    obs_gc.add_argument(
        "--keep",
        type=int,
        default=16,
        metavar="N",
        help="runs to keep per comparison group (default: 16)",
    )
    obs_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what compaction would drop without rewriting the ledger",
    )

    obs_regressions = obs_sub.add_parser(
        "regressions",
        help="judge the newest run of every comparable family against its history "
        "(exits non-zero on any regression, for CI gating)",
    )
    _add_obs_ledger_argument(obs_regressions)
    obs_regressions.add_argument(
        "--window",
        type=int,
        default=telemetry.DEFAULT_WINDOW,
        help="baseline window: at most this many of the newest comparable runs",
    )
    obs_regressions.add_argument(
        "--min-runs",
        type=int,
        default=telemetry.DEFAULT_MIN_RUNS,
        help="minimum comparable baseline runs before a verdict is rendered",
    )
    obs_regressions.add_argument(
        "--sensitivity",
        type=float,
        default=telemetry.DEFAULT_SENSITIVITY,
        help="threshold widths away from the baseline median that count as a change",
    )
    return parser


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_store_argument(parser)


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="PATH",
        help="JSONL result store (cache hits skip simulation)",
    )


def _add_ledger_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        type=str,
        default=None,
        metavar="PATH",
        help="append this run's manifest to this ledger JSONL "
        "(default: $REPRO_LEDGER or .repro/ledger.jsonl)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this run in the run ledger",
    )


def _add_obs_ledger_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        type=str,
        default=None,
        metavar="PATH",
        help="run ledger JSONL to read (default: $REPRO_LEDGER or .repro/ledger.jsonl)",
    )


def _make_runner(jobs: int, store_path: Optional[str]) -> CampaignRunner:
    store = ResultStore(store_path) if store_path else None
    return CampaignRunner(store=store, jobs=jobs)


def _configure_logging(verbose: int) -> None:
    """Wire the ``repro`` package logger to stderr; ``-v`` raises the level."""
    logger = logging.getLogger("repro")
    if not any(isinstance(handler, logging.StreamHandler) for handler in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("# %(name)s: %(message)s"))
        logger.addHandler(handler)
    if verbose >= 2:
        logger.setLevel(logging.DEBUG)
    elif verbose == 1:
        logger.setLevel(logging.INFO)
    else:
        logger.setLevel(logging.WARNING)


def _export_trace(trace_path: str) -> None:
    """Write the active registry's Chrome trace and print its text summary."""
    snapshot = telemetry.snapshot()
    written = telemetry.write_chrome_trace(trace_path, snapshot)
    print(telemetry.render_summary(snapshot))
    print(f"# chrome trace written to {written} (load in Perfetto or chrome://tracing)")


def _dse_progress(record: Mapping[str, Any]) -> None:
    """The live per-round stderr progress line (suppressed by --quiet)."""
    hypervolume = record.get("hypervolume")
    hv_text = f"{hypervolume:.4g}" if hypervolume is not None else "n/a"
    cps = record.get("candidates_per_second")
    cps_text = f"{cps:.1f} cand/s" if cps is not None else "no fresh candidates"
    print(
        f"# round {record.get('round')}: spent {record.get('spent')}, "
        f"front {record.get('front_size')}, hypervolume {hv_text}, {cps_text}",
        file=sys.stderr,
        flush=True,
    )


def _want_progress(arguments: argparse.Namespace) -> bool:
    """Whether ``dse run`` shows the live per-round line on stderr.

    ``--quiet`` always wins; otherwise the line only goes to a real
    terminal -- a redirected/captured stderr (CI logs, pipes) stays clean
    unless ``--progress`` forces it back on.
    """
    if arguments.quiet:
        return False
    if arguments.progress:
        return True
    return bool(getattr(sys.stderr, "isatty", lambda: False)())


def _parse_value(text: str) -> Any:
    """Parse an override value: JSON when possible, bare string otherwise."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_overrides(entries: Sequence[str]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for entry in entries:
        key, separator, value = entry.partition("=")
        if not separator or not key:
            raise CampaignError(f"expected KEY=VALUE, got {entry!r}")
        overrides[key] = _parse_value(value)
    return overrides


def _parse_grid(entries: Sequence[str]) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for entry in entries:
        key, separator, values = entry.partition("=")
        if not separator or not key:
            raise CampaignError(f"expected KEY=V1,V2,..., got {entry!r}")
        grid[key] = [_parse_value(value) for value in values.split(",") if value != ""]
    return grid


def _run_table1(items: int, stages: int, jobs: int = 1, store_path: Optional[str] = None) -> int:
    runner = _make_runner(jobs, store_path)
    report = runner.run_scenario(
        "table1-sweep",
        overrides={"items": items},
        grid={"stages": list(range(1, stages + 1))},
    )
    for result in report.errors:
        print(f"# {result.label or result.scenario} failed: {result.error}", file=sys.stderr)
    rows = [result.as_row() for result in report.results if result.ok]
    print(format_rows(rows))
    if store_path:
        print(report.summary("table1"))
    return 0 if report.ok else 1


def _run_fig5(
    items: int,
    x_size: int,
    node_counts: Sequence[int],
    seed: int = 7,
    jobs: int = 1,
    store_path: Optional[str] = None,
) -> int:
    runner = _make_runner(jobs, store_path)
    report = runner.run_scenario(
        "fig5-sweep",
        overrides={"items": items, "x_size": x_size, "seed": seed},
        grid={"nodes": list(node_counts)},
    )
    points = []
    for result in report.results:
        nodes = result.parameters.get("nodes")
        if not result.ok:
            print(f"# skipping {nodes} nodes: {result.error}", file=sys.stderr)
            continue
        if not result.outputs_identical:
            print(f"# accuracy lost at {nodes} nodes", file=sys.stderr)
            return 1
        points.append((nodes, round(result.speedup, 2)))
    print(format_series(f"X size: {x_size}", points, "TDG nodes", "speed-up"))
    if store_path:
        print(report.summary("fig5"))
    return 0


def _run_fig6(frames: int) -> int:
    observation = fig6_observation(frame_count=frames)
    print(f"# {observation.symbol_count} symbols, {observation.tdg_nodes}-node graph")
    rows = [
        {
            "k": k,
            "u(k) [us]": round(observation.input_instants[k].microseconds, 2),
            "y(k) [us]": round(observation.output_instants[k].microseconds, 2)
            if observation.output_instants[k] is not None
            else "-",
        }
        for k in range(observation.symbol_count)
    ]
    print(format_rows(rows))
    print(format_series("DSP GOPS", observation.dsp_profile.as_rows(), "t [us]", "GOPS"))
    print(format_series("DECODER GOPS", observation.decoder_profile.as_rows(), "t [us]", "GOPS"))
    return 0


def _run_lte(symbols: int) -> int:
    explicit, equivalent = build_lte_models(symbols)
    start = time.perf_counter()
    explicit.run()
    explicit_wall = time.perf_counter() - start
    start = time.perf_counter()
    equivalent.run()
    equivalent_wall = time.perf_counter() - start
    comparison = compare_instants(
        explicit.output_instants(OUTPUT_RELATION), equivalent.output_instants(OUTPUT_RELATION)
    )
    rows = [
        {
            "model": "explicit",
            "relation events": explicit.relation_event_count(),
            "wall-clock (s)": round(explicit_wall, 3),
        },
        {
            "model": "equivalent",
            "relation events": equivalent.relation_event_count(),
            "wall-clock (s)": round(equivalent_wall, 3),
        },
    ]
    print(format_rows(rows))
    ratio = explicit.relation_event_count() / max(equivalent.relation_event_count(), 1)
    print(f"event ratio {ratio:.2f}, speed-up {explicit_wall / max(equivalent_wall, 1e-9):.2f}, "
          f"outputs {comparison.summary()}")
    return 0 if comparison.identical else 1


def _run_describe(target: str) -> int:
    if target == "didactic":
        print(build_didactic_architecture().describe())
    elif target == "lte":
        print(build_lte_architecture().describe())
    else:
        print(build_chain_architecture(2).describe())
    return 0


def _run_campaign_dry_run(runner: CampaignRunner, arguments: argparse.Namespace,
                          overrides, grid) -> int:
    scenario = runner.registry.get(arguments.scenario)
    specs = scenario.specs(
        overrides=overrides,
        grid=grid,
        replications=arguments.replications,
        record_instants=arguments.record_instants,
    )
    planned = runner.plan(specs)
    rows = [
        {
            "job": index,
            "digest": job.digest()[:12],
            "replication": job.replication,
            "seed": job.seed,
            "cached": "yes" if cached is not None else "no",
            "parameters": json.dumps(dict(job.spec.parameters), sort_keys=True),
        }
        for index, (job, cached) in enumerate(planned)
    ]
    print(format_rows(rows))
    hits = sum(1 for _, cached in planned if cached is not None)
    print(
        f"dry-run {arguments.scenario}: {len(planned)} jobs, {hits} cached, "
        f"{len(planned) - hits} to simulate"
    )
    return 0


def _run_campaign_run(arguments: argparse.Namespace) -> int:
    overrides = _parse_overrides(arguments.overrides)
    if arguments.seed is not None:
        overrides["seed"] = arguments.seed
    grid = _parse_grid(arguments.grid)
    runner = _make_runner(arguments.jobs, arguments.store)
    if arguments.dry_run:
        return _run_campaign_dry_run(runner, arguments, overrides, grid)
    if arguments.trace is not None:
        telemetry.enable()
    ledger = None if arguments.no_ledger else telemetry.RunLedger(arguments.ledger)

    def _run():
        return runner.run_scenario(
            arguments.scenario,
            overrides=overrides,
            grid=grid,
            replications=arguments.replications,
            record_instants=arguments.record_instants,
        )

    folded: Optional[Dict[str, Any]] = None
    with telemetry.timed_ns() as wall_timer:
        if ledger is not None and not telemetry.enabled():
            # Capture the run's telemetry for the manifest without enabling
            # it globally: the scope swaps in a private registry and, with
            # the parent disabled, folds nothing back on exit.
            with telemetry.collect(enable=True) as scope:
                report = _run()
            folded = scope.snapshot()
        else:
            report = _run()
            if ledger is not None:
                folded = telemetry.snapshot()
    for result in report.errors:
        print(f"# {result.label or result.scenario} failed: {result.error}", file=sys.stderr)
    if arguments.per_job:
        print(format_rows([result.as_row() for result in report.results if result.ok]))
    print(format_rows(aggregate_results(report.results)))
    print(report.summary(f"campaign {arguments.scenario}"))
    if ledger is not None:
        manifest = ledger.append(
            campaign_manifest(
                arguments.scenario,
                report,
                parameters={
                    "overrides": overrides,
                    "grid": grid,
                    "replications": arguments.replications,
                },
                config={"jobs": arguments.jobs},
                wall_time_s=wall_timer.elapsed_ns / 1e9,
                telemetry_snapshot=folded,
            )
        )
        print(
            f"# run manifest {manifest.run_id[:12]} appended to {ledger.path} "
            f"(see 'repro obs runs')"
        )
    if arguments.trace is not None:
        _export_trace(arguments.trace)
    return 0 if report.ok else 1


def _run_campaign_list() -> int:
    rows = [
        {
            "scenario": scenario.name,
            "jobs": scenario.job_count(),
            "replications": scenario.replications,
            "description": scenario.description,
        }
        for scenario in default_registry().scenarios()
    ]
    print(format_rows(rows))
    return 0


def _run_campaign_show(name: str) -> int:
    scenario = default_registry().get(name)
    print(f"scenario: {scenario.name}")
    print(f"description: {scenario.description}")
    print(f"replications: {scenario.replications}")
    print("defaults:")
    for key in sorted(scenario.defaults):
        print(f"  {key} = {scenario.defaults[key]!r}")
    if scenario.grid:
        print("grid:")
        for key in sorted(scenario.grid):
            print(f"  {key} in {list(scenario.grid[key])!r}")
    rows = [
        {
            "job": index,
            "digest": job.digest()[:12],
            "replication": job.replication,
            "seed": job.seed,
            "parameters": json.dumps(dict(job.spec.parameters), sort_keys=True),
        }
        for index, job in enumerate(
            job for spec in scenario.specs() for job in spec.jobs()
        )
    ]
    print(format_rows(rows))
    return 0


def _run_dse_run(arguments: argparse.Namespace) -> int:
    parameters = _parse_overrides(arguments.overrides)
    if arguments.items is not None:
        parameters["items"] = arguments.items
    convergence = arguments.convergence
    if convergence is None and arguments.trace is not None:
        # One --trace flag yields both artefacts: the Chrome trace and the
        # per-round convergence curve next to it.
        convergence = str(Path(arguments.trace).with_suffix(".conv.jsonl"))
    if arguments.trace is not None:
        telemetry.enable()
    explorer = MappingExplorer(
        problem=arguments.problem,
        strategy=arguments.strategy,
        budget=arguments.budget,
        seed=arguments.seed,
        parameters=parameters,
        max_resources=arguments.max_resources,
        explore_orders=not arguments.no_orders,
        strict=not arguments.loose_orders,
        store=ResultStore(arguments.store) if arguments.store else None,
        record_instants=arguments.record_instants,
        checkpoint=arguments.checkpoint,
        resume=arguments.resume,
        max_rounds=arguments.rounds,
        convergence=convergence,
        progress=_dse_progress if _want_progress(arguments) else None,
        ledger=None if arguments.no_ledger else telemetry.RunLedger(arguments.ledger),
        evaluator=arguments.evaluator,
    )
    problem = explorer.problem
    space = explorer.build_space()
    print(
        f"# problem {problem.name!r}: {len(space.functions)} functions, "
        f"bank of {space.platform.composition()} "
        f"(max {space.max_resources} of {len(space.resources)} usable), "
        f"strategy {arguments.strategy!r}, budget {arguments.budget}, "
        f"evaluator {arguments.evaluator!r}, "
        f"backend {resolve_backend(None)!r}"
    )
    report = explorer.run()
    if report.resumed:
        print(f"# resumed from checkpoint {arguments.checkpoint}")
    print(f"Pareto front ({' vs '.join(o.label for o in report.objectives)}):")
    print(format_rows(report.front_rows()))
    if arguments.top is not None:
        print(f"top {arguments.top} candidates:")
        print(format_rows(report.ranked(top=arguments.top)))
    best = report.best()
    if best is not None:
        print(
            f"best latency: {best.metrics['latency_us']:.2f} us with "
            f"{best.metrics['resources_used']} resource(s) -- {best.metrics['allocation']}"
        )
    print(report.summary())
    if convergence is not None:
        print(f"# convergence trace written to {convergence} (see 'repro obs report')")
    if report.manifest is not None and explorer.ledger is not None:
        print(
            f"# run manifest {report.manifest.run_id[:12]} appended to "
            f"{explorer.ledger.path} (see 'repro obs runs')"
        )
    if arguments.trace is not None:
        _export_trace(arguments.trace)
    return 0 if report.errors == 0 and len(report.front) > 0 else 1


def _context_bank_compositions(contexts: Sequence[str]) -> Dict[str, List[str]]:
    """Bank composition -> contexts (canonical parameter JSON) instantiating it.

    Contexts whose problem is not registered (or whose parameters no longer
    build a platform) are skipped: their bank cannot be reconstructed.
    """
    compositions: Dict[str, List[str]] = {}
    for context in sorted(contexts):
        parameters = json.loads(context)
        try:
            problem = get_problem(str(parameters.get("problem")))
            platform = problem.platform_factory(problem.parameters(parameters))
        except (ModelError, CampaignError, TypeError, ValueError, KeyError):
            continue
        compositions.setdefault(platform.composition(), []).append(context)
    return compositions


def _problem_objectives(name: Optional[str]):
    """The registered problem's objective tuple, or None when unknown."""
    if name is None:
        return None
    try:
        return tuple(get_problem(name).objectives)
    except ModelError:
        return None


def _annotate_evaluators(
    rows: List[Dict[str, object]], mode_of: Mapping[str, str]
) -> List[Dict[str, object]]:
    """Append the per-record evaluator mode column to front/ranked rows."""
    for row in rows:
        row["evaluator"] = mode_of.get(str(row.get("candidate", "")), "replay")
    return rows


def _run_dse_front(arguments: argparse.Namespace) -> int:
    store = ResultStore(arguments.store)
    # With --problem the objective tuple is known up front, so the store scan
    # builds the right front directly; without it the problem name only falls
    # out of the scan, and the front is rebuilt from the in-memory entries.
    objectives = _problem_objectives(arguments.problem)
    front, entries, problems, contexts, evaluators = front_from_store(
        store,
        problem=arguments.problem,
        objectives=objectives if objectives is not None else DEFAULT_OBJECTIVES,
    )
    if arguments.problem is None and len(problems) > 1:
        print(
            f"error: store {arguments.store} mixes problems "
            f"({', '.join(sorted(problems))}); pass --problem to pick one",
            file=sys.stderr,
        )
        return 2
    compositions = _context_bank_compositions(contexts)
    if len(compositions) > 1:
        # Two records only trade off against each other on one bank: merging
        # e.g. a 2-DSP front with a 1-DSP front silently mixes cost axes.
        print(
            f"error: store {arguments.store} mixes evaluations against "
            f"{len(compositions)} different resource banks "
            f"({'; '.join(sorted(compositions))}); a Pareto front is only "
            "meaningful for one bank composition",
            file=sys.stderr,
        )
        return 2
    if len(contexts) > 1:
        # Latencies are only comparable within one workload: a front across
        # e.g. items=6 and items=12 records would silently mask the larger run.
        print(
            f"error: store {arguments.store} mixes {len(contexts)} different "
            "parameterisations of the problem (e.g. items/seed differ); a "
            "Pareto front is only meaningful within one -- rebuild from a "
            "store holding a single exploration's records",
            file=sys.stderr,
        )
        return 2
    label = arguments.problem or (next(iter(problems)) if problems else "(none)")
    if objectives is None:
        objectives = _problem_objectives(label)
    if objectives is not None and objectives != front.objectives:
        # Rebuild on the problem's own axes (e.g. the lte problem adds a
        # per-kind utilisation objective); the entries are already in hand.
        rebuilt = ParetoFront(objectives)
        for digest, metrics in entries:
            rebuilt.offer(digest, metrics)
        front = rebuilt
    modes = sorted(set(evaluators.values()))
    backends = _store_backend_counts(store, label)
    print(
        f"# store {arguments.store}: {len(entries)} dse-eval record(s) for "
        f"problem {label!r}"
        + (f", bank of {next(iter(compositions))}" if compositions else "")
        + (f", evaluator mode(s): {'+'.join(modes)}" if modes else "")
        + (f", backend(s): {'+'.join(sorted(backends))}" if backends else "")
    )
    if len(modes) > 1 or len(backends) > 1:
        # Sound (modes and backends are certified to produce identical
        # objectives) but worth knowing: wall-time provenance differs
        # between the records.
        mixed = []
        if len(modes) > 1:
            mixed.append(f"evaluator modes ({', '.join(modes)})")
        if len(backends) > 1:
            mixed.append(f"array backends ({', '.join(sorted(backends))})")
        print(
            f"# warning: store {arguments.store} mixes {' and '.join(mixed)}; "
            "objectives are certified identical across modes and backends, "
            "but per-record wall times are not comparable",
            file=sys.stderr,
        )
    # Per-record provenance: rows identify candidates by digest prefix.
    mode_of = {digest[:12]: mode for digest, mode in evaluators.items()}
    print(f"Pareto front ({' vs '.join(o.label for o in front.objectives)}):")
    print(format_rows(_annotate_evaluators(front.rows(), mode_of)))
    if arguments.top is not None:
        print(f"top {arguments.top} candidates:")
        print(
            format_rows(
                _annotate_evaluators(
                    ranked_rows(entries, front.objectives, top=arguments.top), mode_of
                )
            )
        )
    print(
        f"front size {len(front)}, hypervolume {front.hypervolume_text()} "
        f"(rebuilt from the store alone)"
    )
    return 0 if len(front) > 0 else 1


def _store_backend_counts(store: ResultStore, problem: str) -> Dict[str, int]:
    """Per array backend, how many dse-eval records of ``problem`` it swept.

    A separate scan (rather than widening :func:`front_from_store`'s
    return shape) so existing unpack sites stay valid; records written
    before the ``backend`` field existed count as ``"python"``, the only
    path that existed then.
    """
    from .campaign import JobResult
    from .dse import DSE_SCENARIO

    counts: Dict[str, int] = {}
    for job_digest in store.digests():
        record = store.get(job_digest)
        try:
            result = JobResult.from_record(record)
        except CampaignError:
            continue
        if result.scenario != DSE_SCENARIO or not result.ok:
            continue
        if str(result.parameters.get("problem")) != problem:
            continue
        backend = result.backend or "python"
        counts[backend] = counts.get(backend, 0) + 1
    return counts


def _store_evaluator_counts(store: ResultStore) -> Dict[str, Dict[str, int]]:
    """Per problem, how many stored dse-eval records each evaluator produced."""
    from .campaign import JobResult
    from .dse import DSE_SCENARIO

    counts: Dict[str, Dict[str, int]] = {}
    for job_digest in store.digests():
        record = store.get(job_digest)
        try:
            result = JobResult.from_record(record)
        except CampaignError:
            continue
        if result.scenario != DSE_SCENARIO or not result.ok:
            continue
        problem = str(result.parameters.get("problem"))
        mode = result.evaluator or "replay"
        per_problem = counts.setdefault(problem, {})
        per_problem[mode] = per_problem.get(mode, 0) + 1
    return counts


def _evaluator_summary(per_mode: Mapping[str, int]) -> str:
    return ", ".join(f"{mode} {count}" for mode, count in sorted(per_mode.items()))


def _run_dse_show(arguments: argparse.Namespace) -> int:
    counts: Optional[Dict[str, Dict[str, int]]] = None
    if arguments.store is not None:
        counts = _store_evaluator_counts(ResultStore(arguments.store))
    if arguments.problem is None:
        rows = [
            {
                "problem": problem.name,
                "description": problem.description,
                "defaults": json.dumps(dict(problem.defaults), sort_keys=True),
            }
            for _, problem in sorted(problem_registry().items())
        ]
        if counts is not None:
            for row in rows:
                per_mode = counts.get(str(row["problem"]))
                row["stored records"] = _evaluator_summary(per_mode) if per_mode else "-"
        print(format_rows(rows))
        return 0
    problem = get_problem(arguments.problem)
    parameters = _parse_overrides(arguments.overrides)
    space = problem.space(
        parameters,
        max_resources=arguments.max_resources,
        explore_orders=not arguments.no_orders,
    )
    resolved = problem.parameters(parameters)
    print(f"problem: {problem.name}")
    print(f"description: {problem.description}")
    print("parameters:")
    for key in sorted(resolved):
        print(f"  {key} = {resolved[key]!r}")
    print(f"functions: {', '.join(space.functions)}")
    print(
        "resource bank: "
        + ", ".join(
            f"{resource.name} [{resource.kind.value}]" for resource in space.resources
        )
        + f" (max {space.max_resources} usable)"
    )
    print(f"bank composition: {space.platform.composition()}")
    if space.has_eligibility:
        print("eligibility:")
        for function in space.functions:
            print(f"  {function}: {', '.join(space.eligible_resources(function))}")
    print(
        "objectives: " + ", ".join(f"{o.label} ({o.key})" for o in problem.objectives)
    )
    cap = 100_000
    size = space.size(cap=cap)
    print(f"space size: {'>= ' if size >= cap else ''}{size} candidates "
          f"({'orders explored' if space.explore_orders else 'default orders only'})")
    default = space.default_candidate()
    print(f"default candidate: {default.describe()} ({default.digest()[:12]})")
    if counts is not None:
        per_mode = counts.get(problem.name)
        print(
            f"stored records in {arguments.store}: "
            + (_evaluator_summary(per_mode) if per_mode else "(none)")
        )
    return 0


def _report_chrome_trace(path: Path, payload: Mapping[str, Any]) -> int:
    """Aggregate a Chrome trace file: per-span-name counts and durations."""
    events = [
        event
        for event in payload.get("traceEvents") or []
        if isinstance(event, Mapping) and event.get("ph") == "X"
    ]
    if not events:
        print(f"# chrome trace {path}: no span events")
        return 1
    pids = {event.get("pid") for event in events}
    by_name: Dict[str, List[float]] = {}
    for event in events:
        by_name.setdefault(str(event.get("name", "?")), []).append(
            float(event.get("dur", 0.0))
        )
    rows = [
        {
            "span": name,
            "count": len(durations),
            "total (ms)": round(sum(durations) / 1e3, 3),
            "mean (us)": round(sum(durations) / len(durations), 1),
            "max (us)": round(max(durations), 1),
        }
        for name, durations in sorted(by_name.items())
    ]
    print(
        f"# chrome trace {path}: {len(events)} span event(s) across "
        f"{len(pids)} process(es) -- load in Perfetto for the timeline"
    )
    print(format_rows(rows))
    dropped = (payload.get("otherData") or {}).get("dropped_spans", 0)
    if dropped:
        print(f"# {dropped} span event(s) were dropped at the recording cap")
    return 0


def _run_obs_report(arguments: argparse.Namespace) -> int:
    path = Path(arguments.path)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        return _report_chrome_trace(path, payload)
    trace = telemetry.ConvergenceTrace(path)
    records = trace.load()
    if not records:
        print(f"# {path}: no convergence records")
        return 1
    print(f"# convergence trace {path}: {len(records)} round(s)")
    print(telemetry.render_convergence(records, last=arguments.last))
    last = records[-1]
    hypervolume = last.get("hypervolume")
    hv_text = f"{hypervolume:.6g}" if hypervolume is not None else "n/a"
    print(
        f"final: {last.get('explored')} candidates explored, front size "
        f"{last.get('front_size')}, hypervolume {hv_text}"
    )
    return 0


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
_SPARK_ASCII = "_.-~=+*#"


def _sparkline(values: Sequence[Optional[float]]) -> str:
    """A one-character-per-run trend strip (ASCII fallback off UTF-8)."""
    blocks = _SPARK_BLOCKS
    try:
        blocks.encode(sys.stdout.encoding or "utf-8")
    except (LookupError, UnicodeEncodeError):
        blocks = _SPARK_ASCII
    present = [value for value in values if value is not None]
    if not present:
        return ""
    low, high = min(present), max(present)
    span = high - low
    cells = []
    for value in values:
        if value is None:
            cells.append(" ")
        elif span <= 0:
            cells.append(blocks[len(blocks) // 2])
        else:
            level = int((value - low) / span * (len(blocks) - 1) + 0.5)
            cells.append(blocks[min(len(blocks) - 1, level)])
    return "".join(cells)


def _metric_cell(manifest: "telemetry.RunManifest", name: str) -> object:
    value = manifest.metric(name)
    return round(value, 4) if value is not None else "-"


def _run_obs_runs(arguments: argparse.Namespace) -> int:
    ledger = telemetry.RunLedger(arguments.ledger)
    manifests = ledger.runs(kind=arguments.kind, label=arguments.label, last=arguments.last)
    if not manifests:
        print(f"# run ledger {ledger.path}: no runs recorded", file=sys.stderr)
        return 1
    rows = [
        {
            "run": manifest.run_id[:10],
            "created (UTC)": manifest.created_utc,
            "kind": manifest.kind,
            "label": manifest.label,
            "key": manifest.comparison_key[:12],
            "wall (s)": _metric_cell(manifest, "wall_time_s"),
            "cand/s": _metric_cell(manifest, "candidates_per_s"),
            "jobs/s": _metric_cell(manifest, "jobs_per_s"),
            "front": _metric_cell(manifest, "front_size"),
            "hypervolume": _metric_cell(manifest, "hypervolume"),
        }
        for manifest in manifests
    ]
    print(f"# run ledger {ledger.path}: {len(manifests)} run(s)")
    print(format_rows(rows))
    return 0


#: Sparkline cell marking the run where the current regression streak began.
_REGRESSION_MARK = "!"


def _metric_statuses(
    group: Sequence["telemetry.RunManifest"], metric: str, direction: str
) -> List[str]:
    """Sentinel status of ``metric`` for every run of one comparable group.

    Each run is judged against its own history prefix (the same windowed
    median/MAD rule ``obs regressions`` applies to the newest run), so the
    list shows where along the trend a regression *started*, not only
    whether the newest run is bad.
    """
    statuses = []
    for index, manifest in enumerate(group):
        verdict = telemetry.classify_run(
            manifest, group[: index + 1], metrics={metric: direction}
        )
        statuses.append(
            verdict.verdicts[0].status
            if verdict.verdicts
            else telemetry.STATUS_NO_BASELINE
        )
    return statuses


def _regression_onset(statuses: Sequence[str]) -> Optional[int]:
    """Index where the trailing regression streak begins, or None."""
    if not statuses or statuses[-1] != telemetry.STATUS_REGRESSED:
        return None
    onset = len(statuses) - 1
    while onset > 0 and statuses[onset - 1] == telemetry.STATUS_REGRESSED:
        onset -= 1
    return onset


def _run_obs_trend(arguments: argparse.Namespace) -> int:
    ledger = telemetry.RunLedger(arguments.ledger)
    manifests = ledger.runs(kind=arguments.kind, label=arguments.label)
    if not manifests:
        print(f"# run ledger {ledger.path}: no runs recorded", file=sys.stderr)
        return 1
    metric = arguments.metric
    direction = telemetry.METRIC_DIRECTIONS.get(metric)
    marked = False
    rows = []
    for key, group in telemetry.group_by_key(manifests).items():
        if arguments.last is not None and arguments.last > 0:
            group = group[-arguments.last :]
        values = [manifest.metric(metric) for manifest in group]
        present = [value for value in values if value is not None]
        if not present:
            continue
        first, last = present[0], present[-1]
        newest = group[-1]
        trend = _sparkline(values)
        status = "-"
        since = "-"
        if direction is not None:
            # Sentinel annotation: judge every run against its history prefix
            # and mark the run where the current regression streak started.
            statuses = _metric_statuses(group, metric, direction)
            status = statuses[-1]
            onset = _regression_onset(statuses)
            if onset is not None:
                since = group[onset].run_id[:10]
                trend = trend[:onset] + _REGRESSION_MARK + trend[onset + 1 :]
                marked = True
        rows.append(
            {
                "kind/label": f"{newest.kind}/{newest.label}",
                "key": key[:12],
                "runs": len(present),
                "first": round(first, 4),
                "last": round(last, 4),
                "min": round(min(present), 4),
                "max": round(max(present), 4),
                "delta": f"{(last - first) / abs(first):+.1%}" if first else "-",
                "trend": trend,
                "status": status,
                "since": since,
            }
        )
    if not rows:
        recorded = sorted({name for manifest in manifests for name in manifest.metrics})
        print(
            f"error: metric {metric!r} is not recorded in {ledger.path}; "
            f"recorded metrics: {', '.join(recorded) or '(none)'}",
            file=sys.stderr,
        )
        return 1
    print(f"# {metric} across {ledger.path} (one row per comparable run family)")
    print(format_rows(rows))
    if marked:
        print(
            f"# '{_REGRESSION_MARK}' marks the run where the current regression "
            "streak started ('since' holds its run id)"
        )
    return 0


def _resolve_run(
    manifests: Sequence["telemetry.RunManifest"], token: str
) -> "telemetry.RunManifest":
    """A ledger run by index (``-1`` = newest append), or by run-id prefix.

    An integer inside the ledger's index range is an index; any other token
    is a run-id prefix.  Run ids are hex digests, so all-digit prefixes such
    as ``12345678`` are common: they are far outside any ledger's range and
    resolve as prefixes.
    """
    try:
        index: Optional[int] = int(token)
    except ValueError:
        index = None
    if index is not None and -len(manifests) <= index < len(manifests):
        return manifests[index]
    matches = [manifest for manifest in manifests if manifest.run_id.startswith(token)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise CampaignError(
            f"run id prefix {token!r} is ambiguous ({len(matches)} ledger matches)"
        )
    if index is not None:
        raise CampaignError(
            f"run index {index} is out of range (the ledger holds {len(manifests)} run(s)) "
            "and no run id starts with it"
        )
    raise CampaignError(f"no ledger run with id prefix {token!r}")


def _diff_cell(before: object, after: object) -> str:
    """Relative delta between two numeric cells, '-' when not comparable."""
    numbers = []
    for value in (before, after):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return "-"
        numbers.append(float(value))
    if not numbers[0]:
        return "-"
    return f"{(numbers[1] - numbers[0]) / abs(numbers[0]):+.1%}"


def _run_obs_diff(arguments: argparse.Namespace) -> int:
    ledger = telemetry.RunLedger(arguments.ledger)
    manifests = ledger.load()
    if not manifests:
        print(f"# run ledger {ledger.path}: no runs recorded", file=sys.stderr)
        return 1
    before = _resolve_run(manifests, arguments.run_a)
    after = _resolve_run(manifests, arguments.run_b)
    print(
        f"# diff {before.run_id[:12]} ({before.created_utc}) -> "
        f"{after.run_id[:12]} ({after.created_utc}) in {ledger.path}"
    )
    if before.comparison_key != after.comparison_key:
        print(
            "# warning: the runs have different comparison keys (problem or "
            "configuration differs) -- the deltas below mix workloads"
        )
    fields = [
        ("kind/label", f"{before.kind}/{before.label}", f"{after.kind}/{after.label}"),
        ("comparison key", before.comparison_key, after.comparison_key),
        ("package version", before.package_version, after.package_version),
        ("python", before.platform.get("python", "-"), after.platform.get("python", "-")),
        ("budget", before.budget, after.budget),
        (
            "evaluator",
            before.config.get("evaluator", "-"),
            after.config.get("evaluator", "-"),
        ),
        (
            # Manifests written before the array engine existed have no
            # backend key; "-" (rather than a guess) keeps the diff honest.
            "backend",
            before.config.get("backend", "-"),
            after.config.get("backend", "-"),
        ),
    ]
    print(format_rows([{"field": name, "a": a, "b": b} for name, a, b in fields]))
    metric_names = sorted(set(before.metrics) | set(after.metrics))
    if metric_names:
        print("metrics:")
        print(
            format_rows(
                [
                    {
                        "metric": name,
                        "a": before.metrics.get(name, "-"),
                        "b": after.metrics.get(name, "-"),
                        "delta": _diff_cell(before.metrics.get(name), after.metrics.get(name)),
                    }
                    for name in metric_names
                ]
            )
        )
    counters_a = before.telemetry.get("counters") or {}
    counters_b = after.telemetry.get("counters") or {}
    counter_names = sorted(set(counters_a) | set(counters_b))
    if counter_names:
        print("telemetry counters:")
        print(
            format_rows(
                [
                    {
                        "counter": name,
                        "a": counters_a.get(name, "-"),
                        "b": counters_b.get(name, "-"),
                        "delta": _diff_cell(counters_a.get(name), counters_b.get(name)),
                    }
                    for name in counter_names
                ]
            )
        )
    histograms_a = before.telemetry.get("histograms") or {}
    histograms_b = after.telemetry.get("histograms") or {}
    span_names = sorted(set(histograms_a) | set(histograms_b))
    if span_names:
        rows = []
        for name in span_names:
            total_a = (histograms_a.get(name) or {}).get("total_ns")
            total_b = (histograms_b.get(name) or {}).get("total_ns")
            rows.append(
                {
                    "span/histogram": name,
                    "a (ms)": round(total_a / 1e6, 3) if total_a is not None else "-",
                    "b (ms)": round(total_b / 1e6, 3) if total_b is not None else "-",
                    "delta": _diff_cell(total_a, total_b),
                }
            )
        print("span totals (from the folded histograms -- no Chrome trace needed):")
        print(format_rows(rows))
    return 0


def _run_obs_gc(arguments: argparse.Namespace) -> int:
    ledger = telemetry.RunLedger(arguments.ledger)
    if not ledger.exists():
        print(f"# run ledger {ledger.path}: no runs recorded", file=sys.stderr)
        return 1
    report = ledger.compact(arguments.keep, dry_run=arguments.dry_run)
    verb = "would keep" if report.dry_run else "kept"
    print(
        f"# compact {report.path}: keep last {report.keep_last} per run family -- "
        f"{verb} {report.kept} of {report.total} manifest(s), "
        f"dropped {report.dropped}"
    )
    if report.groups:
        rows = [
            {
                "kind/label": f"{group['kind']}/{group['label']}",
                "key": str(group["key"])[:12],
                "runs": group["runs"],
                "kept": group["kept"],
                "dropped": group["dropped"],
            }
            for group in report.groups
        ]
        print(format_rows(rows))
    if report.corrupt_dropped or report.incompatible_dropped:
        print(
            f"# unreadable lines also dropped: {report.corrupt_dropped} corrupt, "
            f"{report.incompatible_dropped} incompatible schema"
        )
    if report.dry_run:
        print("# dry run: the ledger was not modified")
    return 0


def _run_obs_regressions(arguments: argparse.Namespace) -> int:
    ledger = telemetry.RunLedger(arguments.ledger)
    manifests = ledger.load()
    if not manifests:
        print(f"# run ledger {ledger.path}: no runs recorded", file=sys.stderr)
        return 1
    verdicts = telemetry.latest_verdicts(
        manifests,
        window=arguments.window,
        min_runs=arguments.min_runs,
        sensitivity=arguments.sensitivity,
    )
    rows = []
    regressed = []
    for _, verdict in verdicts:
        rows.extend(verdict.rows())
        if verdict.regressed:
            regressed.append(verdict)
    print(
        f"# regression sentinel over {ledger.path}: {len(manifests)} run(s), "
        f"{len(verdicts)} run family(ies) judged"
    )
    if rows:
        print(format_rows(rows))
    else:
        print("# no judgeable metrics recorded yet")
    if regressed:
        families = ", ".join(
            f"{verdict.manifest.kind}/{verdict.manifest.label}" for verdict in regressed
        )
        print(f"REGRESSED: {len(regressed)} run family(ies): {families}", file=sys.stderr)
        return 1
    print("ok: no regressions against the comparable history")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``python -m repro.cli`` / the ``repro`` console script)."""
    arguments = build_parser().parse_args(argv)
    _configure_logging(arguments.verbose)
    try:
        if arguments.command == "table1":
            return _run_table1(arguments.items, arguments.stages, arguments.jobs, arguments.store)
        if arguments.command == "fig5":
            return _run_fig5(
                arguments.items,
                arguments.x_size,
                arguments.nodes,
                arguments.seed,
                arguments.jobs,
                arguments.store,
            )
        if arguments.command == "fig6":
            return _run_fig6(arguments.frames)
        if arguments.command == "lte":
            return _run_lte(arguments.symbols)
        if arguments.command == "describe":
            return _run_describe(arguments.target)
        if arguments.command == "campaign":
            if arguments.campaign_command == "run":
                return _run_campaign_run(arguments)
            if arguments.campaign_command == "list":
                return _run_campaign_list()
            if arguments.campaign_command == "show":
                return _run_campaign_show(arguments.scenario)
        if arguments.command == "dse":
            if arguments.dse_command == "run":
                return _run_dse_run(arguments)
            if arguments.dse_command == "front":
                return _run_dse_front(arguments)
            if arguments.dse_command == "show":
                return _run_dse_show(arguments)
        if arguments.command == "obs":
            if arguments.obs_command == "report":
                return _run_obs_report(arguments)
            if arguments.obs_command == "runs":
                return _run_obs_runs(arguments)
            if arguments.obs_command == "trend":
                return _run_obs_trend(arguments)
            if arguments.obs_command == "diff":
                return _run_obs_diff(arguments)
            if arguments.obs_command == "gc":
                return _run_obs_gc(arguments)
            if arguments.obs_command == "regressions":
                return _run_obs_regressions(arguments)
    except (CampaignError, ModelError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {arguments.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
