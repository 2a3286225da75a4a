"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload dse-glue --seed 2014 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing else.  The run

* measures ``setup_s`` as the median time of several fresh interpreters
  that import ``repro`` and build the workload;
* builds the workload once more in this process and repeats it until
  ``--seconds`` have passed, checking every repetition's outputs (see
  ``workloads.py``) outside the timed calls;
* with ``--trace 0`` reports the end-to-end metrics, and with
  ``--trace 1`` alternates untraced and traced repetitions and reports the
  per-layer metrics from the traced ones (``tracer.py``).

End-to-end times are in reference seconds (``hostspeed.py``): the work is
interleaved with a fixed probe loop that cancels the shared host's drift.

Lines starting with ``#`` describe the run (workload parameters, array
backend, ``nproc``, gate results, each rate under its workload-specific
name); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files live under
``.perfbench/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 5
#: One child's set-up may not take longer than this (seconds).
SETUP_TIMEOUT = 120

#: The workload-specific names of the two rates, printed beside the result.
RATE_NAMES = {
    "dse": ("candidates_per_s", "cached_candidates_per_s"),
    "table1": ("equivalent_iters_per_s", "explicit_iters_per_s"),
}


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop with an error."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SOURCE}; run inside a checkout")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SOURCE}")


def _parse(argv):
    from spec import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median reference seconds of fresh interpreters that only set the workload up."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    from hostspeed import Meter

    samples = []
    for _ in range(SETUP_SAMPLES):
        meter = Meter()
        meter.start()
        subprocess.run(command, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT)
        samples.append(meter.stop()[1])
    return statistics.median(samples)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up one workload and repeat it for ``seconds``; returns the summary."""
    from tracer import Tracer
    from workloads import make_workload

    bench = make_workload(workload, seed, workdir)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    # Every key runs at least once, so a run always covers the same inputs;
    # time left over repeats keys in order.
    done = 0
    while done < len(bench.keys) or time.perf_counter() < deadline:
        key = bench.keys[done % len(bench.keys)]
        gc.collect()
        untraced.append(bench.repeat(key))
        if trace:
            with Tracer() as tracer:
                bench.install(tracer)
                traced.append(bench.repeat(key, tracer))
        done += 1
    reps = untraced + traced
    return {
        "bench": bench,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "untraced": untraced,
        "traced": traced,
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    _use_checkout_source()
    from spec import END_TO_END, PER_LAYER, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        from workloads import make_workload

        make_workload(workload, args.seed, ROOT / ".perfbench")
        return 0

    setup_s = _setup_seconds(args)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        summary = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench = summary["bench"]
    untraced, traced = summary["untraced"], summary["traced"]
    if args.trace:
        values = bench.layers(untraced, traced)
        declared = PER_LAYER
    else:
        values = {
            **bench.e2e(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = END_TO_END
    metrics = {metric.name: {"value": values[metric.name], "unit": metric.unit}
               for metric in declared}

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    print(f"# workload {args.workload}: {json.dumps(bench.describe())}")
    print(
        f"# host: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy_version}, repetitions {len(untraced)} untraced + {len(traced)} traced"
    )
    print(
        f"# gates: {summary['failed']} failed of {summary['attempted']} attempted "
        f"(error_rate {summary['failed'] / summary['attempted']:.6g})"
    )
    if not args.trace:
        first, second = RATE_NAMES[workload.kind]
        for name, metric in ((first, "primary"), (second, "secondary")):
            print(
                f"# {name} = {values[metric + '_per_s']:.6g} per reference second "
                f"({metric}_per_s), {values[metric + '_per_wall_s']:.6g} per wall second"
            )
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
