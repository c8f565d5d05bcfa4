#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload spec_aot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --regen-refs

Run from the root of a checkout. The library and the driver are built
with CMake into .bench_build/ (or $CARGO_TARGET_DIR when set); every run
re-invokes the incremental build, so a stale binary is never measured.
Build output goes to stderr; the driver's stdout is passed through, and
its last line is the result object. Each run also leaves its full result
(machine stamp, exact counts, inputs hash) in .bench_build/results/, and
a traced run its Chrome trace-event JSON and per-span table; compare.py
A/Bs two such directories.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec_aot", "large_parallel_jit", "query_stream")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the driver; returns its path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} missing next to perfbench/; run from "
                     "a full checkout of the repository")
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j4", "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def results_dir():
    d = os.path.join(build_dir(), "results")
    os.makedirs(d, exist_ok=True)
    return d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-refs", action="store_true",
                    help="recompute perfbench/refs.txt with the interpreter "
                         "(several minutes)")
    a = ap.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    refs = os.path.join(HERE, "refs.txt")
    if a.regen_refs:
        return subprocess.run([exe, "--regen-refs", refs]).returncode
    if not a.workload:
        ap.error("--workload is required")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--refs", refs, "--out-dir", results_dir()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
