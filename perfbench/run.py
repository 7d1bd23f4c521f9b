#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sg_q4_gl_intra --seed 1 --seconds 20 --trace 0

Every call configures and builds the engine and the benchmark from source
into the build directory ($CARGO_TARGET_DIR, else .bench_build) and runs
the benchmark's self-test; after the first call only what changed is
rebuilt. The
benchmark's report goes to standard output and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Build output goes to standard
error. The exit code is non-zero when the build, the self-test or the run
fails; no result line is printed then.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the benchmark; returns the binary dir."""
    out = os.path.join(build_dir, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = []  # fixed by the first configure
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, *generator,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        out = build(build_dir)
        subprocess.run([os.path.join(out, "perfbench_selftest")], check=True,
                       stdout=sys.stderr)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 1

    spans = os.path.join(
        build_dir, f"spans-{args.workload}-{args.seed}-{args.trace}.jsonl")
    proc = subprocess.run(
        [os.path.join(out, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spans", spans])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
