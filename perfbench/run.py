#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload spmspv|bfs|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the root; traces and scratch files go to its out/
directory. The last line of standard output is the JSON result; the exit
code is the binary's (non-zero on any wrong output or failure).
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def build(build_dir):
    """Configures and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found under %s\n"
                         % ROOT)
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["spmspv", "bfs", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    # Relative to the root, so the serve socket path stays short.
    rel_out = os.path.relpath(out_dir, ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", rel_out]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
