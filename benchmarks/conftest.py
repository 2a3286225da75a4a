"""Shared configuration and helpers for the benchmark harnesses.

Every benchmark regenerates one row or series of the paper's evaluation
(Table I, Fig. 5, Fig. 6) or one of the reproduction's own ablations.
Model construction is kept out of the timed region (``benchmark.pedantic``
with a ``setup`` callable); accuracy checks and derived quantities (event
ratios, node counts) are attached to ``benchmark.extra_info`` so they end
up in the benchmark report next to the timings.

Run with::

    pytest benchmarks/ --benchmark-only

The DSE throughput module additionally writes a machine-readable
``BENCH_dse.json`` (path overridable via ``REPRO_BENCH_JSON``) with
candidates/second per problem and evaluator mode plus telemetry-derived
cache-hit rates, so CI can diff throughput across commits without
scraping the pytest-benchmark tables.

On a fully green session those same entries also append
:class:`repro.telemetry.RunManifest` records (kind ``benchmark``) to the
cross-run ledger (``.repro/ledger.jsonl``; ``REPRO_LEDGER`` overrides),
so ``repro obs trend candidates_per_s`` and the regression sentinel see
benchmark history next to ``dse run`` / ``campaign run`` history.
"""

from __future__ import annotations

import json
import os

import pytest


#: Number of data items / symbols driven through the models in the timed runs.
#: The paper uses 20000; the default here keeps a full benchmark session short
#: while remaining far above the pipeline warm-up length.  Override with
#: ``--bench-items`` for a longer, paper-scale run.
DEFAULT_BENCH_ITEMS = 2000


def pytest_addoption(parser):
    parser.addoption(
        "--bench-items",
        action="store",
        type=int,
        default=DEFAULT_BENCH_ITEMS,
        help="number of data items / symbols to drive through each benchmarked model",
    )


@pytest.fixture(scope="session")
def bench_items(request) -> int:
    return request.config.getoption("--bench-items")


def pytest_configure(config):
    # One shared list per session; the DSE throughput tests append entries
    # and pytest_sessionfinish serialises whatever accumulated.
    config._dse_bench_entries = []


@pytest.fixture(scope="session")
def dse_bench(request):
    """Machine-readable DSE throughput entries, written to ``BENCH_dse.json``."""
    return request.config._dse_bench_entries


def pytest_sessionfinish(session, exitstatus):
    entries = getattr(session.config, "_dse_bench_entries", None)
    if not entries:
        return
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_dse.json")
    payload = {"schema": "repro.bench.dse/1", "entries": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if exitstatus == 0:
        # A red session's timings are partial/suspect; keep them out of the
        # performance history.
        _append_run_manifests(entries)


def _append_run_manifests(entries) -> None:
    """Append one ledger manifest per benchmark entry (never fails the session)."""
    try:
        from repro import telemetry

        ledger = telemetry.RunLedger()
        for entry in entries:
            metrics = {}
            if entry.get("candidates_per_second") is not None:
                metrics["candidates_per_s"] = entry["candidates_per_second"]
            if entry.get("evaluations") is not None:
                metrics["evaluations"] = entry["evaluations"]
            if entry.get("cache_hit_rate") is not None:
                metrics["cache_hit_rate"] = entry["cache_hit_rate"]
            if entry.get("overhead_fraction") is not None:
                metrics["telemetry_overhead_fraction"] = entry["overhead_fraction"]
            if not metrics:
                continue
            # The workload identity (problem x mode x batch x items x sweep
            # backend) becomes the comparison key, so the sentinel only ever
            # judges a benchmark against reruns of the same matrix cell.
            parameters = {
                key: entry[key]
                for key in ("problem", "mode", "batch", "items", "backend", "metric")
                if key in entry
            }
            label = entry.get("metric") or f"{entry['problem']}/{entry['mode']}"
            ledger.append(
                telemetry.RunManifest.build(
                    kind="benchmark",
                    label=label,
                    parameters=parameters,
                    config={"harness": "benchmarks/test_dse_throughput.py"},
                    metrics=metrics,
                )
            )
    except Exception as error:  # noqa: BLE001 - history must never break tests
        print(f"# run-ledger append skipped: {error}")
