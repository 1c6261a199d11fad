#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is compiled from source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run builds it, later runs only check that it is up to date. Build
output goes to build.log there, never to stdout, so the last stdout line
of a run is its JSON result. Nothing is written outside the build
directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ingest-uniform", "ingest-hotspot", "serve-sliding"]
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        os.path.dirname(HERE), ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns success."""
    os.makedirs(out, exist_ok=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out] + generator)
    steps.append(["cmake", "--build", out, "-j", jobs])
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                # A failed configure must not pass for a finished one.
                if "-S" in cmd and os.path.exists(cache):
                    os.remove(cache)
                return False
    return True


def run_workload(out, args, workload):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return subprocess.call([os.path.join(out, "perfbench_selftest")])
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = run_workload(out, args, workload) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
