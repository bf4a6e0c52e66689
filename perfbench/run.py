#!/usr/bin/env python3
"""Build and run the iotaxo pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk_cold --seed 1 --seconds 10 --trace 0

Builds perfbench/ (its own CMake project over the library sources in src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset, then runs one workload. Build output goes to stderr; the last line
of stdout is the result object printed by the benchmark binary.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("bulk_cold", "metadata_many_eras", "live_interleaved")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no library sources: run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(3, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(root, os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    workdir = os.path.join(build_root, "work",
                           f"{args.workload}-{os.getpid()}")
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
