#!/usr/bin/env python3
"""Builds pqe_perfbench from this checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The CMake build goes under
$CARGO_TARGET_DIR (default .bench_build) and is reused by later runs; build
output goes to stderr. The traced run (--trace 1) writes its spans, one JSON
object per line, to <build dir>/spans/<workload>-<seed>.jsonl. The last line
of stdout is the result object printed by pqe_perfbench; the exit code is
non-zero when the build fails or a check fails.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tree_cold", "path_cold", "serve_updates")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def check_call(cmd):
    # Build chatter must not reach stdout, whose last line is the result.
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs in one checkout share the build; one of them builds.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            check_call(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        check_call(["cmake", "--build", build_dir, "--target",
                    "pqe_perfbench", "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "pqe_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans_out", os.path.join(
            spans_dir, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
