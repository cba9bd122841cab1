"""Benchmark of the htlr package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, never
from an installed copy.  Each run derives its inputs from --seed, sets the
operator up a fixed number of times (setup_s is the median), then runs the
workload's closed loop for --seconds: a stream of applications, or CG solves
of which the first always completes.  Every application is checked against
an exact reference, and its time is divided by a calibration timed beside it
(see perfbench/README.md).  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1.  The exit code is 1 when any operation failed a check, and the
run stops without a result when ./src/htlr is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: one BLAS thread: the steadiest choice on a shared two-core machine
BLAS_THREADS = "1"


def _bootstrap():
    """Point the imports at ./src and pin BLAS threads before numpy loads."""
    if not (SRC / "htlr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no htlr package under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import htlr

    if not Path(htlr.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported htlr from {htlr.__file__}, not {SRC}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from bench import Bench

    w = workloads.WORKLOADS[name]
    bench = Bench(w, seed, seconds, trace)
    result = bench.run()
    print(f"workload {name} seed {seed} ({'traced' if trace else 'untraced'}): {w.why}")
    for key, item in result["metrics"].items():
        print(f"  {key:40s} {item['value']:.6g} {item['unit']}")
    for line in bench.lines:
        print(line)
    for failure in bench.tally.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"operations attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] &= proc.returncode == 0 and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, item in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = item
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _bootstrap()
    import workloads  # from this script's directory, which Python puts on sys.path

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
