"""Tests of the benchmark itself: tracer accounting, metric names, smoke runs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make_workload  # noqa: E402

UNIT_RULE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Layer:
    clock = FakeClock()

    def outer(self) -> str:
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0
        self.inner()
        return "done"

    def inner(self) -> int:
        self.clock.now += 5.0
        return 1

    def broken(self) -> None:
        self.clock.now += 4.0
        raise ValueError("boom")


def root(layer: Layer) -> str:
    layer.clock.now += 0.5
    return layer.outer()


def test_nested_self_times_tile_the_root_without_double_counting():
    clock = Layer.clock = FakeClock()
    original = Layer.outer
    with Tracer(clock) as tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner", tally=lambda result: result)
        assert tracer.call("root", root, Layer()) == "done"
    assert Layer.outer is original  # unwrapped on exit
    assert dict(tracer.self_s) == {"inner": 10.0, "outer": 3.0, "root": 0.5}
    assert dict(tracer.calls) == {"inner": 2, "outer": 1, "root": 1}
    assert tracer.tally["inner"] == 2
    assert tracer.root_s == 13.5 == sum(tracer.self_s.values())
    assert tracer.untiled_share() == 0.0


def test_a_raising_call_is_still_charged_and_unwinds():
    clock = Layer.clock = FakeClock()
    with Tracer(clock) as tracer:
        tracer.wrap(Layer, "broken", "broken")
        with pytest.raises(ValueError):
            tracer.call("root", Layer().broken)
        assert tracer.call("after", lambda: 7) == 7
    assert tracer.self_s["broken"] == 4.0
    assert tracer.self_s["root"] == 0.0
    assert tracer.root_s == 4.0  # "after" took no time on the fake clock


def test_wrapping_an_attribute_the_owner_does_not_define_fails():
    with Tracer() as tracer, pytest.raises(KeyError):
        tracer.wrap(Layer, "no_such_method", "missing")


def test_benchmark_json_follows_the_contract_and_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= doc["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(spec.NAME_RULE.match(name) for name in names)
    assert all(UNIT_RULE.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _tiny(workload: spec.Workload) -> spec.Workload:
    if workload.kind == "dse":
        params = dict(workload.params, items=8, budget=20, searches=2, warm_runs=2)
    else:
        params = dict(workload.params, stages=(1, 2), items=20, runs=1)
    return dataclasses.replace(workload, params=params)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_gates(name, tmp_path):
    workload = _tiny(spec.WORKLOADS[name])
    summary = run.measure(workload, spec.DEFAULT_SEED, 0.0, True, tmp_path)
    assert summary["attempted"] > 0
    assert summary["failed"] == 0
    bench = summary["bench"]
    rates = bench.e2e(summary["untraced"])
    assert rates["primary_per_s"] > 0 and rates["secondary_per_s"] > 0
    layers = bench.layers(summary["untraced"], summary["traced"])
    assert list(layers) == [metric.name for metric in spec.PER_LAYER]
    assert layers["trace.untiled_share"] < 1e-9
    if workload.kind == "dse":
        assert layers["store.hit_ratio"] == 1.0
        assert layers["space.digest_calls_per_cand"] > 0
        # Same seed, fresh set-up: the same work fingerprint.
        again = make_workload(workload, spec.DEFAULT_SEED, tmp_path)
        again.repeat(again.keys[0])
        assert again._fingerprints[again.keys[0]] == bench._fingerprints[bench.keys[0]]
    else:
        assert layers["core.event_ratio.s1"] == 3.0
        assert layers["core.event_ratio.s2"] == 5.5


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse-glue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
