#!/usr/bin/env python3
"""Served-SpMV benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload spmv_fleet --seed 1 --seconds 10 --trace 0

Builds the repository's libraries, the cvr_served daemon and the benchmark
program spmv_bench from source into .bench_build/perfbench (CMake, Release),
then runs one benchmark run of the workload. spmv_bench's last stdout line
is the JSON result; the exit status is spmv_bench's (non-zero when an op
failed or the run could not be set up or built). See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("spmv_fleet", "spmv_hot", "solve_cg")
# A run is killed as hung after this many seconds beyond 3x its window (a
# traced run's in-process layer timing and the set-ups come on top of it).
RUN_SLACK_S = 120
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail("build step failed: %s" % e)


def build(root, build_dir):
    for need in ("src/serve/Service.cpp", "tools/cvr_served.cpp"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("no CVR sources here (missing %s)" % need)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                    "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs,
                "--target", "spmv_bench", "cvr_served"], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)

    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, "%s-s%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
    cmd = [os.path.join(build_dir, "spmv_bench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--served=" + os.path.join(build_dir, "cvr_served"),
           # Relative: it names the daemon's socket, and sun_path is short.
           "--work-dir=" + os.path.relpath(work, root)]
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=3 * args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    spans = os.path.join(work, "spans.json")
    if os.path.isfile(spans):
        os.replace(spans, os.path.join(
            work_root, "spans-%s-s%d.json" % (args.workload, args.seed)))
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
