#!/usr/bin/env python3
"""Build and run the geosphere end-to-end benchmark (perfbench).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library and the perfbench binary into .bench_build/ (CMake, Release build);
later runs rebuild only what changed. The build log goes to
.bench_build/build.log and a traced run's Chrome trace (open it in Perfetto)
to .bench_build/traces/. Everything the binary prints is passed through; its
last line, the result object, is printed only after it has been checked
against the metric lists in BENCHMARK.json. The exit code is 0 only when the
build succeeded and every check of the run passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if not os.path.exists(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure + generator, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                if os.path.exists(cache):  # Leave no half-configured cache behind.
                    os.remove(cache)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                          stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            return None
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def schema_errors(result, trace):
    """Everything wrong with a result object's shape, as a list of lines."""
    errors = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                      "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            errors.append(f"{key} is not a non-negative integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted is below 1")
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if not isinstance(metrics, dict) or sorted(metrics) != sorted(n for n, _ in want):
        errors.append("metric names differ from BENCHMARK.json")
        return errors
    for name, unit in want:
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            errors.append(f"metric {name} must be {{value, unit: {unit}}}")
        elif not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            errors.append(f"metric {name} is not a number")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print(f"perfbench: build failed, see {os.path.join(BUILD, 'build.log')}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(f"perfbench: binary exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last output line is not JSON", file=sys.stderr)
        return 1
    errors = schema_errors(result, args.trace)
    if errors:
        for e in errors:
            print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
