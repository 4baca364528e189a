#!/usr/bin/env python3
"""Minimal-length self-test of the perfbench benchmark.

usage: python3 perfbench/selftest.py

Run it from the repository root. For every workload in BENCHMARK.json it
makes the shortest run run.py allows (--seconds 1: one pass) untraced and
traced, and checks:
  * the result line's schema against BENCHMARK.json (run.py's own check);
  * correct is true and failed is 0 -- which includes the replay fidelity
    gate (the traced replay reproduced the untraced run's counters exactly);
  * trace.unaccounted_share is within the stated accounting tolerance;
  * the traced run wrote a Chrome trace whose spans all name a valid parent
    and carry a frame/TTI id.
It also checks that an unknown workload fails without a result line.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (run.py: schema_errors)

UNACCOUNTED_TOLERANCE = 0.10  # kUnaccountedTolerance in src/bench.h
SEED = 1


def bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)


def check_trace_file(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        return ["trace file has no spans"]
    errors = []
    if "host" not in doc.get("otherData", {}):
        errors.append("trace file lacks the host stamp")
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0 or "id" not in e["args"]:
            errors.append(f"malformed span {e}")
            break
        parent = e["args"]["parent"]
        if parent >= len(events) or events[parent]["name"] not in ("frame", "tti"):
            errors.append(f"span {e['args']['span']} has no frame/TTI parent")
            break
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for name in workloads:
        for trace in (0, 1):
            out = bench(name, trace)
            label = f"{name} --trace {trace}"
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                failures.append(f"{label}: exit {out.returncode}")
                continue
            result = json.loads(lines[-1])
            errors = run.schema_errors(result, trace)
            if not result.get("correct") or result.get("failed") != 0:
                errors.append("run reported incorrect output (replay gate or checks)")
            if trace:
                share = result["metrics"]["trace.unaccounted_share"]["value"]
                if share > UNACCOUNTED_TOLERANCE:
                    errors.append(f"unaccounted share {share:.3f} over tolerance")
                errors += check_trace_file(
                    os.path.join(run.BUILD, "traces", f"{name}-seed{SEED}.json"))
            failures += [f"{label}: {e}" for e in errors]
            print(f"{label}: {'ok' if not errors else 'FAILED'}")

    out = bench("no-such-workload", 0)
    lines = out.stdout.strip().splitlines()
    if out.returncode == 0 or (lines and lines[-1].startswith("{")):
        failures.append("unknown workload did not fail cleanly")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
