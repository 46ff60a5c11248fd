#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload.

    python3 perfbench/run.py --workload social-1m|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); traced runs write their spans to
<build>/traces/<workload>-<seed>.json. The last stdout line is the result
JSON; the exit code is non-zero, with no result line, when the build, the
run or the metric set fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/CMakeLists.txt)")
    log = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "w") as out:
        # Configure once; `cmake --build` re-runs it when a CMakeLists.txt
        # changes, and is a quick no-op on an up-to-date tree.
        steps = [["cmake", "--build", build_dir, "-j4", "--target",
                  "perfbench_driver", "dvicl_server"]]
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
                fail("build failed, see " + log)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["social-1m", "serve-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--server", os.path.join(build_dir, "dvicl", "src", "dvicl_server"),
        "--trace-out",
        os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed)),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = run.stdout.decode().strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("driver exited with %d" % run.returncode)
    result = json.loads(lines[-1])
    # The printed metric set must be exactly the declared one, units too.
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(args.trace)
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in printed
                       if n in expected and printed[n] != expected[n])
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s, "
             "unit %s" % (missing, extra, wrong))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
