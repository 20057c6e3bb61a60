#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_jsonl --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which pulls in the library from the
repository root) with CMake in $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs the benchmark binary. Generated inputs live under the
build directory and are removed when the run ends; a traced run leaves its
spans in <build>/spans/. The last line of standard output is the result
object; any failure exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet_jsonl", "fleet_ttb", "sentinel_live")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"{command[0]} did not complete: {error}")
    if done.returncode != 0:
        fail(f"'{' '.join(command)}' exited with {done.returncode}")


def build(source_dir, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(source_dir), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", "2"], BUILD_TIMEOUT_S)
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source_dir = Path(__file__).resolve().parent
    root = Path.cwd()
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    # The compiler and the benchmark keep their temporary files in the tree.
    (build_root / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(build_root / "tmp")
    binary = build(source_dir, build_dir)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_dir = build_root / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(build_root / "work" / tag),
               "--spans-out", str(spans_dir / f"{tag}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
