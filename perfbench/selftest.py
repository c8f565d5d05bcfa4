#!/usr/bin/env python3
"""The benchmark's own tests (about two minutes).

    python3 perfbench/selftest.py

1. A deliberately wrong reference value makes error_rate > 0 and the
   command exit non-zero.
2. Exact counts (code sizes, IR values, symbols, relocations, ...) and the
   inputs repeat bit-for-bit across two runs of one seed, per workload.
3. A different seed changes the inputs, per workload.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"


def bench(exe, out, workload, seed, refs):
    os.makedirs(out, exist_ok=True)
    p = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                        "--seconds", SECONDS, "--trace", "0", "--refs", refs,
                        "--out-dir", out], capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    last = json.loads(p.stdout.strip().splitlines()[-1])
    with open(os.path.join(out, f"{workload}-seed{seed}-trace0.json")) as f:
        full = json.load(f)
    return p.returncode, last, full


def main():
    exe = run.build()
    refs = os.path.join(run.HERE, "refs.txt")
    work = os.path.join(run.build_dir(), "selftest")
    shutil.rmtree(work, ignore_errors=True)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    # 1. Corrupt every reference of one -O1 program.
    bad = os.path.join(work, "refs_bad.txt")
    os.makedirs(work)
    with open(refs) as src, open(bad, "w") as dst:
        for line in src:
            f = line.split()
            if f[:2] == ["ref", "O1/605.mcf"]:
                f[3] = "%016x" % (int(f[3], 16) ^ 1)
                line = " ".join(f) + "\n"
            dst.write(line)
    rc, last, full = bench(exe, os.path.join(work, "bad"), "spec_aot", 1, bad)
    expect(rc != 0, "wrong reference: exit code non-zero")
    expect(full["error_rate"] > 0 and last["failed"] > 0
           and last["correct"] is False,
           "wrong reference: error_rate > 0 and correct = false")

    for wl in run.WORKLOADS:
        runs = [bench(exe, os.path.join(work, f"{wl}-{i}"), wl, seed, refs)
                for i, seed in enumerate((1, 1, 2))]
        expect(all(r[0] == 0 and r[1]["correct"] for r in runs),
               f"{wl}: all runs correct")
        a, b, c = (r[2] for r in runs)
        expect(a["exact_counts"] == b["exact_counts"] and a["exact_counts"],
               f"{wl}: exact counts repeat for one seed {a['exact_counts']}")
        expect(a["inputs_hash"] == b["inputs_hash"],
               f"{wl}: inputs repeat for one seed")
        expect(a["inputs_hash"] != c["inputs_hash"],
               f"{wl}: another seed changes the inputs")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
