#!/usr/bin/env python3
"""Builds and runs the PSM-E wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (the
library from src/ plus the driver binary, Release) under the build
directory -- $CARGO_TARGET_DIR if set, else .bench_build -- then runs the
driver, whose last line of stdout is the result JSON. The traced run
(--trace 1) also writes <build>/perfbench-<workload>.trace.json and
.metrics.json. The exit code is the driver's: non-zero on any correctness
failure, or if the build fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "psme_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "psme_perfbench")


def main():
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args \
        else "unknown"
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    prefix = os.path.join(build_dir, "perfbench-" + os.path.basename(workload))
    try:
        proc = subprocess.run([binary, *args, "--out", prefix],
                              stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)

    # The driver's metric names must be the ones BENCHMARK.json declares
    # for this kind of run; a workload it does not list may print more.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    declared = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    printed = set(result["metrics"])
    listed = workload in {w["name"] for w in spec["workloads"]}
    if not declared <= printed or (listed and printed != declared):
        sys.stderr.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json: %s" % sorted(printed ^ declared))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
