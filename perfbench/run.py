#!/usr/bin/env python3
"""Builds the end-to-end StructSlim benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build tree goes to .bench_build and
run outputs (shards, digest, fingerprint, trace.json) to
.bench_out/<workload>-seed<n>-trace<t>/. Build output goes
to stderr; stdout is the benchmark's own, ending in one JSON line. Exits
non-zero without a result when the sources are missing, the build fails,
the run fails or times out, or the result does not carry exactly the
metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serial_loop", "parallel_loop", "fleet_report")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"StructSlim sources not found under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "structslim_e2e",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=max(1, deadline - time.monotonic()))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as err:
            fail(f"build failed: {err}")
    return os.path.join(build_dir, "structslim_e2e")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    # A first build in a fresh checkout may take most of 15 minutes.
    binary = build(os.path.join(ROOT, ".bench_build"), start + 880)

    # Steady state: the whole invocation ends within 180 s. After a long
    # first build, the run keeps its own ~170 s within the 900 s allowance.
    build_s = time.monotonic() - start
    run_budget = 175 - build_s if build_s < 30 else min(170, 890 - build_s)
    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=run_budget)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark did not end with a JSON result")
    want = expected_metrics(args.trace)
    got = set(result.get("metrics", {}))
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
