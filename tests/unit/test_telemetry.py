"""Unit tests for :mod:`repro.telemetry`.

Covers the registry primitives (counters, gauges, duration histograms,
spans), the off-by-default no-op path, snapshot/merge across real
``ProcessPoolExecutor`` workers (counters sum, histograms merge, spans
keep per-process identity), the convergence JSONL trace, both exporters,
and the ``--trace`` / ``obs report`` CLI surface end to end.
"""

import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import telemetry
from repro.cli import main
from repro.telemetry import (
    ConvergenceTrace,
    DurationHistogram,
    TelemetryRegistry,
    chrome_trace,
    iter_span_names,
    render_convergence,
    render_summary,
    write_chrome_trace,
)


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Each test starts and ends with the process registry disabled and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = TelemetryRegistry(enabled=True)
        registry.count("jobs")
        registry.count("jobs", 4)
        registry.gauge("front", 3.0)
        registry.gauge("front", 5.0)
        registry.observe_ns("latency", 1_000)
        registry.observe_ns("latency", 3_000)
        assert registry.counter_value("jobs") == 5
        assert registry.gauges() == {"front": 5.0}
        histogram = registry.histogram("latency")
        assert histogram.count == 2
        assert histogram.total_ns == 4_000

    def test_disabled_scope_records_nothing(self):
        # The no-op gate lives in the module helpers, which check the active
        # registry's flag before touching it.
        with telemetry.collect(enable=False) as scope:
            telemetry.count("jobs")
            telemetry.gauge("front", 1.0)
            telemetry.observe_ns("latency", 10)
            snap = scope.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_snapshot_is_json_safe(self):
        registry = TelemetryRegistry(enabled=True)
        registry.count("jobs")
        registry.add_span("phase", 100, 50, args={"round": 1})
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_sums_counters_and_histograms(self):
        left = TelemetryRegistry(enabled=True)
        right = TelemetryRegistry(enabled=True)
        for registry in (left, right):
            registry.count("jobs", 3)
            registry.observe_ns("latency", 2_000)
        left.merge(right.snapshot())
        assert left.counter_value("jobs") == 6
        histogram = left.histogram("latency")
        assert histogram.count == 2
        assert histogram.total_ns == 4_000

    def test_merge_rebases_span_clocks_onto_one_timeline(self):
        left = TelemetryRegistry(enabled=True)
        right = TelemetryRegistry(enabled=True)
        right.add_span("work", 500, 100)
        shipped = right.snapshot()
        shipped["epoch_unix"] = left.epoch_unix + 1.0  # started one second later
        left.merge(shipped)
        (event,) = left.spans()
        assert event["start_ns"] == 500 + 1_000_000_000
        assert event["pid"] == os.getpid()

    def test_span_event_cap_counts_drops(self):
        registry = TelemetryRegistry(enabled=True, max_span_events=2)
        for index in range(5):
            registry.add_span("s", index, 1)
        assert len(registry.spans()) == 2
        assert registry.dropped_spans == 3
        # The like-named histogram still saw every span.
        assert registry.histogram("s").count == 5

    def test_reset_clears_everything(self):
        registry = TelemetryRegistry(enabled=True)
        registry.count("jobs")
        registry.add_span("s", 0, 1)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {} and snap["spans"] == []


class TestModuleHelpers:
    def test_off_by_default_and_noop(self):
        assert not telemetry.enabled()
        telemetry.count("ignored")
        telemetry.gauge("ignored", 1.0)
        telemetry.observe_ns("ignored", 10)
        with telemetry.span("ignored"):
            pass
        snap = telemetry.snapshot()
        assert snap["counters"] == {} and snap["spans"] == []

    def test_disabled_span_is_the_shared_null_singleton(self):
        assert telemetry.span("a") is telemetry.span("b")

    def test_enable_records_spans_with_nesting_depth(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner", args={"round": 2}):
                pass
        events = {event["name"]: event for event in telemetry.active().spans()}
        assert events["outer"]["depth"] == 0
        assert events["inner"]["depth"] == 1
        assert events["inner"]["args"] == {"round": 2}
        assert set(iter_span_names(telemetry.snapshot())) == {"outer", "inner"}

    def test_timed_ns_measures_without_recording(self):
        with telemetry.timed_ns() as timer:
            pass
        assert timer.elapsed_ns >= 0
        assert telemetry.snapshot()["spans"] == []

    def test_collect_scope_merges_into_enabled_parent(self):
        telemetry.enable()
        telemetry.count("outside")
        with telemetry.collect() as scope:
            telemetry.count("inside")
            assert scope.counter_value("inside") == 1
        counters = telemetry.snapshot()["counters"]
        assert counters == {"outside": 1, "inside": 1}

    def test_collect_scope_does_not_leak_into_disabled_parent(self):
        with telemetry.collect(enable=True) as scope:
            telemetry.count("inside")
            shipped = scope.snapshot()
        assert shipped["counters"] == {"inside": 1}
        assert telemetry.snapshot()["counters"] == {}


class TestDurationHistogram:
    def test_mean_and_quantiles(self):
        histogram = DurationHistogram()
        for duration in (1_000, 1_000, 8_000, 64_000):
            histogram.observe(duration)
        assert histogram.count == 4
        assert histogram.mean_ns == pytest.approx(18_500)
        assert histogram.quantile_ns(0.0) <= histogram.quantile_ns(1.0)

    def test_snapshot_merge_round_trip(self):
        left, right = DurationHistogram(), DurationHistogram()
        left.observe(1_000)
        right.observe(4_000)
        right.observe(16_000)
        left.merge_snapshot(right.snapshot())
        assert left.count == 3
        assert left.total_ns == 21_000
        assert left.max_ns == 16_000


def _pool_job(index):
    """Worker body: record one job's telemetry and ship the snapshot home."""
    with telemetry.collect(enable=True) as scope:
        telemetry.count("pool.jobs")
        telemetry.observe_ns("pool.latency", 1_000 * (index + 1))
        with telemetry.span("pool.work", args={"index": index}):
            pass
        return scope.snapshot()


class TestCrossProcessMerge:
    def test_worker_snapshots_merge_on_the_coordinator(self):
        jobs = 4
        with ProcessPoolExecutor(max_workers=2) as pool:
            shipped = list(pool.map(_pool_job, range(jobs)))

        coordinator = TelemetryRegistry(enabled=True)
        coordinator.count("pool.jobs")  # the coordinator did one itself
        for snapshot in shipped:
            assert snapshot["pid"] != os.getpid()
            coordinator.merge(snapshot)

        # Counters sum across processes; histograms merge.
        assert coordinator.counter_value("pool.jobs") == jobs + 1
        histogram = coordinator.histogram("pool.latency")
        assert histogram.count == jobs
        assert histogram.total_ns == sum(1_000 * (i + 1) for i in range(jobs))
        # Spans keep the identity of the process that recorded them.
        span_pids = {event["pid"] for event in coordinator.spans()}
        assert span_pids == {snapshot["pid"] for snapshot in shipped}
        assert os.getpid() not in span_pids


class TestConvergenceTrace:
    def test_append_load_round_trip(self, tmp_path):
        trace = ConvergenceTrace(tmp_path / "run.conv.jsonl")
        trace.append({"round": 1, "front_size": 2, "hypervolume": 10.5})
        trace.append({"round": 2, "front_size": 3, "hypervolume": 11.0})
        records = trace.load()
        assert [record["round"] for record in records] == [1, 2]
        assert records[1]["hypervolume"] == 11.0

    def test_reset_discards_previous_rounds(self, tmp_path):
        trace = ConvergenceTrace(tmp_path / "run.conv.jsonl")
        trace.append({"round": 1})
        trace.reset()
        assert not trace.exists()
        assert trace.load() == []

    def test_corrupt_lines_are_skipped_and_logged(self, tmp_path, caplog):
        path = tmp_path / "run.conv.jsonl"
        trace = ConvergenceTrace(path)
        trace.append({"round": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{truncated\n")
        trace.append({"round": 2})
        with caplog.at_level(logging.WARNING, logger="repro.jsonl"):
            records = trace.load()
        assert [record["round"] for record in records] == [1, 2]
        assert trace.skipped_lines == 1
        assert "skipped 1 corrupt" in caplog.text

    def test_render_convergence_keeps_the_requested_tail(self):
        records = [{"round": index, "front_size": 1} for index in range(1, 6)]
        text = render_convergence(records, last=2)
        assert "4" in text and "5" in text
        assert text.splitlines()[0].startswith("round")


class TestExporters:
    def _populated_registry(self):
        registry = TelemetryRegistry(enabled=True)
        registry.count("dse.evaluate.evaluations", 7)
        registry.gauge("dse.explore.front_size", 3)
        registry.observe_ns("dse.evaluate.candidate", 2_000_000)
        registry.add_span("dse.compile.template", 0, 1_000_000, category="dse")
        registry.add_span("dse.explore.round", 1_000_000, 5_000_000, args={"round": 1})
        return registry

    def test_render_summary_mentions_every_section(self):
        text = render_summary(self._populated_registry().snapshot())
        assert "dse.evaluate.evaluations" in text
        assert "dse.explore.front_size" in text
        assert "dse.evaluate.candidate" in text

    def test_render_summary_warns_about_dropped_spans(self):
        snapshot = self._populated_registry().snapshot()
        assert "spans dropped" not in render_summary(snapshot)
        snapshot["dropped_spans"] = 7
        text = render_summary(snapshot)
        assert "warning: spans dropped: 7" in text
        assert "under-reports" in text

    def test_chrome_trace_structure(self):
        payload = chrome_trace(self._populated_registry().snapshot())
        assert payload["displayTimeUnit"] == "ms"
        complete = [event for event in payload["traceEvents"] if event["ph"] == "X"]
        names = {event["name"] for event in complete}
        assert {"dse.compile.template", "dse.explore.round"} <= names
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert "M" in phases  # process_name metadata
        assert "C" in phases  # counter events

    def test_write_chrome_trace_round_trips_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._populated_registry().snapshot())
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "traceEvents" in payload


class TestCli:
    def test_dse_run_trace_produces_loadable_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "dse", "run",
                "--problem", "didactic",
                "--budget", "12",
                "--strategy", "random",
                "--store", str(tmp_path / "store.jsonl"),
                "--trace", str(trace_path),
                "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        names = {
            event["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "X"
        }
        assert {
            "dse.compile.template",
            "dse.compile.specialize",
            "dse.compile.replay",
            "dse.explore.round",
        } <= names
        convergence = ConvergenceTrace(trace_path.with_suffix(".conv.jsonl"))
        records = convergence.load()
        assert records, "expected one convergence record per round"
        for record in records:
            assert "hypervolume" in record
            assert "candidates_per_second" in record
        assert [record["round"] for record in records] == list(
            range(1, len(records) + 1)
        )
        out = capsys.readouterr().out
        assert "telemetry counters" in out
        assert "chrome trace written" in out

    def test_dse_run_progress_line_lands_on_stderr(self, tmp_path, capsys):
        # capsys's stderr is not a TTY, so the live line needs --progress here.
        code = main(
            [
                "dse", "run",
                "--problem", "didactic",
                "--budget", "8",
                "--strategy", "random",
                "--store", str(tmp_path / "store.jsonl"),
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "# round 1:" in captured.err
        assert "# round" not in captured.out

    def test_dse_run_progress_auto_suppressed_off_tty(self, tmp_path, capsys):
        # No --progress and a captured (non-TTY) stderr: the live line stays
        # out of redirected/CI logs.
        code = main(
            [
                "dse", "run",
                "--problem", "didactic",
                "--budget", "8",
                "--strategy", "random",
                "--store", str(tmp_path / "store.jsonl"),
            ]
        )
        assert code == 0
        assert "# round" not in capsys.readouterr().err

    def test_dse_run_quiet_beats_progress(self, tmp_path, capsys):
        code = main(
            [
                "dse", "run",
                "--problem", "didactic",
                "--budget", "8",
                "--strategy", "random",
                "--store", str(tmp_path / "store.jsonl"),
                "--progress",
                "--quiet",
            ]
        )
        assert code == 0
        assert "# round" not in capsys.readouterr().err

    def test_obs_report_on_chrome_trace_and_convergence(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(
            [
                "dse", "run",
                "--problem", "didactic",
                "--budget", "8",
                "--strategy", "random",
                "--store", str(tmp_path / "store.jsonl"),
                "--trace", str(trace_path),
                "--quiet",
            ]
        )
        capsys.readouterr()
        assert main(["obs", "report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace" in out
        assert "dse.explore.round" in out
        assert main(["obs", "report", str(trace_path.with_suffix(".conv.jsonl"))]) == 0
        out = capsys.readouterr().out
        assert "convergence trace" in out
        assert "hypervolume" in out

    def test_obs_report_missing_file_is_nonzero(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "absent.json")]) == 2

    def test_verbose_flag_configures_the_repro_logger(self, capsys):
        assert main(["-v", "describe", "didactic"]) == 0
        capsys.readouterr()
        assert logging.getLogger("repro").level == logging.INFO
