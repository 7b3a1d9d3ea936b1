#!/usr/bin/env python3
"""Builds and runs the zerodb end-to-end benchmark.

    python3 e2ebench/run.py --workload train|whatif --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run from the repository root. The benchmark and the zerodb library are
built from source into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); build output goes to stderr, so the last line of
standard output is the benchmark's JSON result line. A traced run
(--trace 1) writes its spans to <build dir>/spans/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = 4  # the global pool size every run pins (--threads)
RUN_TIMEOUT_S = 175


def fail(message):
    print("e2ebench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("zerodb sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    result = subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(THREADS)], stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["train", "whatif"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    build(build_dir)

    if args.selftest:
        command = [os.path.join(build_dir, "e2ebench_selftest"), build_dir]
    else:
        command = [os.path.join(build_dir, "e2ebench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--threads", str(THREADS)]
        if args.trace:
            span_dir = os.path.join(build_dir, "spans")
            os.makedirs(span_dir, exist_ok=True)
            command += ["--spans", os.path.join(
                span_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
