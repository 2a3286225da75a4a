"""Run every benchmark workload, one fresh interpreter at a time, and tabulate.

    python3 perfbench/suite.py                  # end-to-end metrics, default seed
    python3 perfbench/suite.py --trace          # per-layer metrics (traced runs)
    python3 perfbench/suite.py --held-out       # default seed beside the held-out seed

Each workload runs as its own ``run.py`` process, started one after the
other, so no two measurements share an interpreter or overlap in time.
``--held-out`` runs every workload a second time under
:data:`spec.HELD_OUT_SEED`, a seed never used while the workloads were
sized, and prints both columns side by side.  The exit code is 1 when
any run fails a correctness gate or exits with an error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload in a fresh interpreter; returns (description lines, result)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)

    seeds = [DEFAULT_SEED, HELD_OUT_SEED] if args.held_out else [DEFAULT_SEED]
    results = {}
    ok = True
    for workload in args.workloads:
        for seed in seeds:
            lines, result = run_one(workload, seed, args.seconds, args.trace)
            print(f"== {workload} seed {seed}")
            print("\n".join(lines))
            if result is None or not result["correct"]:
                print(f"!! {workload} seed {seed}: run failed or failed a correctness gate")
                ok = False
            results[workload, seed] = result

    metrics = PER_LAYER if args.trace else END_TO_END
    columns = [(workload, seed) for workload in args.workloads for seed in seeds]
    header = ["metric", "unit"] + [f"{workload}@{seed}" for workload, seed in columns]
    rows = [header]
    for metric in metrics:
        row = [metric.name, metric.unit]
        for column in columns:
            result = results[column]
            value = result["metrics"][metric.name]["value"] if result else None
            row.append("-" if value is None else f"{value:.4g}")
        rows.append(row)
    rows.append(["error_rate", "ratio"] + [
        "-" if results[column] is None
        else f"{results[column]['failed'] / results[column]['attempted']:.3g}"
        for column in columns
    ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
