#!/usr/bin/env python3
# Copyright 2026 The ARSP Authors.
"""Builds and runs the ARSP serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library from src/ plus
the serve_bench program) in a Release build under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later calls rebuild only what changed. Build
output goes to stderr, so serve_bench's last stdout line stays its JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hot_repeat", "personal_topk", "bulk_full", "cluster_topk")
# A run takes about half a minute and a clean build about one; these bound
# a hung build or run.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout) and returns its code."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{os.path.basename(cmd[0])} timed out after {timeout} s")
    return 1


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.h")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
           BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        fail(f"building {target} failed")
    return build_root, os.path.join(build_dir, target)


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        _, binary = build("serve_bench_selftest")
        sys.exit(run([binary], RUN_TIMEOUT_S * 3, cwd=os.path.dirname(binary)))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root, binary = build("serve_bench")
    env = dict(os.environ, ARSP_GIT_REV=git_revision())
    sys.stdout.flush()
    code = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", os.path.join(build_root, "work")],
               RUN_TIMEOUT_S, env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
