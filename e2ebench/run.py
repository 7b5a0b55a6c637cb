#!/usr/bin/env python3
"""Run one workload of the qsens end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qsens source tree.  It builds e2ebench/e2e.exe
from source with dune (build directory .bench_build, dune's shared cache
off, so the build writes nothing outside the tree), runs the workload,
and echoes e2e.exe's output.  The last line of standard output is the
JSON result: {"correct", "attempted", "failed", "metrics"}.  The run's
environment, result and (traced runs) per-analysis breakdown are also
saved under .bench_build/e2e-results/.

Exits non-zero without a result line when the tree cannot be built or
e2e.exe fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "e2ebench", "e2e.exe")
RESULTS_DIR = os.path.join(BUILD_DIR, "e2e-results")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("e2ebench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"not a qsens source tree: {needed} is missing under {ROOT}")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--cache", "disabled", "--display", "quiet", "./e2ebench/e2e.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail(f"build failed (dune exit {done.returncode})")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    # A terminated run stops its child too: subprocess.run kills and
    # reaps the child when the wait is interrupted by an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit(), "--out", out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"e2e.exe failed: {e}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"e2e.exe exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(done.stdout)
        fail("e2e.exe printed no result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
