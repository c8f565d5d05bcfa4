#!/usr/bin/env python3
"""A/B two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the <workload>-seed<n>-trace0.json files run.py
leaves in .bench_build/results/ of its checkout. Results whose machine
and build stamps differ are refused (exit 2): their numbers are not
comparable. For every workload and end-to-end metric the script prints
both medians and quartile spreads, and flags a change whose median is
worse than the base median by more than the metric's bound (exit 1).
A metric whose base spread exceeds its bound is reported as unresolved.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(d):
    runs = {}
    for p in sorted(glob.glob(os.path.join(d, "*-trace0.json"))):
        with open(p) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], []).append(r)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    stamps = {json.dumps(r["stamp"], sort_keys=True)
              for runs in (base, change) for rs in runs.values() for r in rs}
    if len(stamps) > 1:
        print("refusing to compare: results come from different machines or "
              "builds:", file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2
    worse = 0
    for wl in sorted(set(base) & set(change)):
        print(f"{wl}: {len(base[wl])} base runs, {len(change[wl])} change runs")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name]["value"] for r in base[wl]]
            c = [r["metrics"][name]["value"] for r in change[wl]]
            mb, mc = statistics.median(b), statistics.median(c)
            rel = (mc - mb) / mb if mb else 0.0
            if m["better"] == "higher":
                rel = -rel
            verdict = "ok"
            if rel > bound:
                verdict = "WORSE"
                worse += 1
            elif spread(b) > bound:
                verdict = "unresolved (base spread above bound)"
            print(f"  {name:28s} base {mb:14.6g} (spread {spread(b):6.3f})  "
                  f"change {mc:14.6g} (spread {spread(c):6.3f})  "
                  f"{-rel if m['better'] == 'higher' else rel:+7.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
