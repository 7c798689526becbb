#!/usr/bin/env python3
"""Summarize or compare benchmark results written by perfbench/run.py.

    python3 perfbench/compare.py RESULTS.jsonl
        Per workload and end-to-end metric: run count, median, quartiles
        and spread (q3 - q1) / median, next to the metric's bound from
        BENCHMARK.json.  A spread at or above a third of the bound is
        flagged "noisy".

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
        Median of NEW against median of BASE for every workload and
        end-to-end metric.  A change worse than the bound is a
        regression; a metric whose BASE spread exceeds the bound is
        reported as unresolved.  Refuses (exit 3) when the two files hold
        results from hosts whose fingerprints differ.

Only --trace 0 records are compared; traced runs carry the per-layer
ledger, whose medians the one-file form also prints.  Exit status: 0,
1 on a regression or failed run, 3 on mismatched fingerprints.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent /
                    "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCH["end_to_end"]}


def load(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    by = defaultdict(lambda: defaultdict(list))
    fingerprints = defaultdict(set)  # per workload
    failed = 0
    for r in rows:
        fingerprints[r["workload"]].add(
            json.dumps(r["fingerprint"], sort_keys=True))
        if not r["correct"]:
            failed += 1
        key = (r["workload"], r["trace"])
        for name, m in r["metrics"].items():
            by[key][name].append(m["value"])
    return by, fingerprints, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(path):
    by, fps, failed = load(path)
    for workload, f in sorted(fps.items()):
        if len(f) > 1:
            print(f"warning: {workload}: results from more than one host "
                  "fingerprint")
    for (workload, trace), metrics in sorted(by.items()):
        print(f"{workload}  (trace {trace})")
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            line = (f"  {name:28s} n={len(values):2d} median={med:14.6g} "
                    f"q1={q1:12.6g} q3={q3:12.6g} spread={spread:7.4f}")
            if trace == 0 and name in E2E:
                bound = E2E[name]["bound"]
                line += f" bound={bound:.3f}"
                if spread >= bound / 3:
                    line += "  noisy"
            print(line)
    return 1 if failed else 0


def compare(base_path, new_path):
    base, fb, fail_b = load(base_path)
    new, fn, fail_n = load(new_path)
    for workload in sorted(set(fb) & set(fn)):
        if fb[workload] != fn[workload] or len(fb[workload]) != 1:
            print(f"refusing to compare {workload}: host fingerprints differ")
            for f in sorted(fb[workload] | fn[workload]):
                print("  " + f)
            return 3
    status = 1 if fail_b or fail_n else 0
    for (workload, trace), metrics in sorted(base.items()):
        if trace != 0 or (workload, trace) not in new:
            continue
        print(workload)
        for name, meta in E2E.items():
            b, n = metrics.get(name), new[(workload, trace)].get(name)
            if not b or not n:
                continue
            q1, mb, q3 = quartiles(b)
            mn = statistics.median(n)
            worse = (mn - mb) / mb if meta["better"] == "lower" else (mb - mn) / mb
            spread = (q3 - q1) / mb if mb else float("inf")
            if spread > meta["bound"]:
                verdict = "unresolved"
            elif worse > meta["bound"]:
                verdict = "REGRESSED"
                status = 1
            else:
                verdict = "ok"
            print(f"  {name:18s} base={mb:12.6g} new={mn:12.6g} "
                  f"worse_by={worse:+.4f} bound={meta['bound']:.3f} {verdict}")
    return status


def main():
    if len(sys.argv) == 2:
        sys.exit(summarize(sys.argv[1]))
    if len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    print(__doc__)
    sys.exit(2)


if __name__ == "__main__":
    main()
