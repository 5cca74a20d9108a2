#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload approx-serve --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into .bench_build/, writes the table as a v2 file
(data at rest, untimed), runs the harness on it and relays its output.
The last line of standard output is the result object. Any failure exits
non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
TABLE_ROWS = 2_000_000
RUN_BUDGET_S = 170  # generation + measured run, after the build
# The table is the same for every workload seed; the seed permutes the
# request rotation and seeds the catalog's samples. With the data fixed,
# the accuracy metrics spread only with the catalog seed.
TABLE_SEED = 17

# The knobs each workload runs under. The engine runs on one thread and the
# server with one pipeline worker, so busy threads stay below nproc (4).
# With the morsel pool at 3 threads, its wake-ups and the host's contention
# for all vCPUs at once made wall-clock latency untrackable by the
# single-thread reference kernel: approx-serve's p50 spread 20 % between
# runs (IQR/median) against 3 % serially, and refresh-exact's 36 % when the
# host slowed 2.5x. refresh-exact's catalog holds about one 20k-row
# sample, so every approximate query misses, evicts the last sample and
# rebuilds.
KNOBS = {
    "approx-serve": {"CVOPT_THREADS": "1", "CVOPT_CATALOG_ROW_BUDGET": "0"},
    "refresh-exact": {"CVOPT_THREADS": "1", "CVOPT_CATALOG_ROW_BUDGET": "20000"},
    "ooc-scan": {"CVOPT_THREADS": "1", "CVOPT_CATALOG_ROW_BUDGET": "0"},
}
CHUNK_CACHE_BYTES = str(32 << 20)  # ~1/3 of the decoded table


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, env=None, timeout=None):
    """Runs cmd with stdout captured, stderr passed through; waits for exit."""
    try:
        return subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join("src", "server", "aqp_server.h")):
        fail("run from the repository root (src/ not found)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"])
        sys.stderr.write(r.stdout)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = run(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))])
    sys.stderr.write(r.stdout)
    if r.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(KNOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    # Relative paths keep the server's AF_UNIX socket path short.
    work = os.path.join(".bench_build", "work", str(os.getpid()))
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, **KNOBS[args.workload],
               CVOPT_CHUNK_CACHE_BYTES=CHUNK_CACHE_BYTES)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        table = os.path.join(work, "openaq.cvtb")
        r = run([HARNESS, "gen", "--seed", str(TABLE_SEED), "--rows",
                 str(TABLE_ROWS), "--out", table], env=env,
                timeout=deadline - time.monotonic())
        if r.returncode != 0:
            fail("table generation failed")
        cmd = [HARNESS, "run", "--workload", args.workload, "--file", table,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", work]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl")]
        r = run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()))
        lines = r.stdout.rstrip("\n").split("\n")
        if r.returncode != 0 or not lines[-1].startswith("{\"correct\""):
            sys.stderr.write(r.stdout)
            fail(f"harness exited with {r.returncode}")
        print("\n".join(lines), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
