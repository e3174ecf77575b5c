#!/usr/bin/env python3
"""Builds and runs the relynx benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository.  The first call
configures and builds perfbench/ (which compiles ../src) into
.bench_build/ at the repository root; later calls rebuild incrementally.
The benchmark binary's standard output is passed through; its last line
is the JSON result.  The result's metric names are checked against
BENCHMARK.json, so a run that drops or invents a metric fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "relynx_perfbench")
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no relynx sources at %s; run from a full checkout" % ROOT, 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "relynx_perfbench",
           "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fanin-small", "pipeline-bulk", "explore-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        die("benchmark exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    mismatch = expected_metrics(args.trace) ^ set(result["metrics"])
    if mismatch:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("metrics differ from BENCHMARK.json: " + ", ".join(sorted(mismatch)))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
