#!/usr/bin/env python3
"""Build and run the PARM performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is paper_matrix, fleet_observed, fault_campaign, psn_sweep, or all
(the four in one process). The first call configures and builds the
simulator libraries and the benchmark (Release) under .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to
.bench_build/perfbench/build.log. The benchmark's stdout is passed through; its
last line is the JSON result. With --trace 1 the spans of the traced run are
written to .bench_build/perfbench/trace-<workload>.json.

The shared thread pool is sized to the CPUs this process may run on
(PARM_THREADS, unless already set), so the benchmark never uses more pool
threads than nproc.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper_matrix", "fleet_observed", "fault_campaign", "psn_sweep")


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: simulator sources (src/CMakeLists.txt) not found "
                 "next to perfbench/; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench", "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.exit("error: build failed: " + " ".join(cmd))


def program_env():
    env = dict(os.environ)
    env.setdefault("PARM_THREADS", str(nproc()))
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in (0, 3600]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=program_env(), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
