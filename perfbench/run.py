#!/usr/bin/env python3
"""Builds the ESAM benchmark program from source and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload fig8_cold --seed 1 --seconds 20 --trace 0

The library and esam_perfbench are built with CMake (Release) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when it is unset.
esam_perfbench prints a human-readable report and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. The exit code is esam_perfbench's: 0 when every correctness check
passed. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fig8_cold", "serve_closed", "drift_adapt", "fleet")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    return a


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "esam_perfbench", "-j", "3"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "esam_perfbench")


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # esam_perfbench links the library built from the repository's own sources;
    # without them there is nothing to measure.
    for rel in ("CMakeLists.txt", "include/esam", "src"):
        if not os.path.exists(os.path.join(root, rel)):
            fail(f"{rel} not found under {root}: run from a full checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    with open(os.path.join(root, "perfbench", "expected.json")) as f:
        expected = json.load(f)["expected"]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root]
    for key, value in sorted(expected.items()):
        cmd += ["--expect", f"{key}={value}"]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
