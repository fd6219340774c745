#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the checker library from src/ and
the perfbench program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
one workload. The last line of stdout is the result object; each run's
diagnostics line is also appended to runs.jsonl in the build directory.
Exits non-zero, printing no result, if the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["signoff-cold", "tcp-open-mixed"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", os.path.join(build_dir, "runs.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    out = proc.stdout.decode()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
