#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one.

    python3 bench/suite/agree.py SET_A SET_B
    python3 bench/suite/agree.py SET

A set is a directory of the detail files that `--json FILE` writes, at
least five runs per workload. For every workload and end-to-end metric in
BENCHMARK.json it prints each set's median and quartiles (Python's
statistics.quantiles, n=4) and the quartile spread as a share of the
median. With two sets a metric passes when the medians differ by no more
than its bound; it is "unresolved" where either set's spread exceeds the
bound. Runs of the same workload and seed must also agree exactly on
sim.fingerprint, on the failed count and on the count of wrong answers
from the known GPRS defect. Exits 1 on any failure.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_set(path):
    runs = {}
    for f in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(f) as fh:
            d = json.load(fh)
        if d["env"]["trace"] == "true":
            continue
        runs.setdefault(d["env"]["workload"], []).append(d)
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sets", nargs="+", metavar="SET")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two sets")
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = [load_set(s) for s in args.sets]
    ok = True
    for w in sorted(set.intersection(*[set(s) for s in sets])):
        runs = [s[w] for s in sets]
        if any(len(r) < 5 for r in runs):
            print(f"{w}: fewer than 5 runs in a set")
            ok = False
            continue
        print(f"\n{w}  ({' vs '.join(str(len(r)) for r in runs)} runs)")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = [summary([d["end_to_end"][name]["value"] for d in r]) for r in runs]
            cells = "  ".join(
                f"{med:12.4f} [{q1:.4f}, {q3:.4f}] spread {sp:6.1%}" for med, q1, q3, sp in rows
            )
            if len(rows) == 1:
                verdict = "ok" if rows[0][3] <= bound / 3 else ("within bound" if rows[0][3] <= bound else "SPREAD > BOUND")
            else:
                diff = abs(rows[1][0] - rows[0][0]) / rows[0][0]
                if max(r[3] for r in rows) > bound:
                    verdict = f"unresolved (diff {diff:.1%})"
                elif diff <= bound:
                    verdict = f"pass (diff {diff:.1%})"
                else:
                    verdict = f"FAIL (diff {diff:.1%} > {bound:.0%})"
                    ok = False
            print(f"  {name:12s} bound {bound:4.0%}  {cells}  {verdict}")
        if len(runs) == 2:
            by_seed = [{d["env"]["seed"]: d for d in r} for r in runs]
            for seed in sorted(set(by_seed[0]) & set(by_seed[1]), key=int):
                a, b = by_seed[0][seed], by_seed[1][seed]
                if a["fingerprint"] != b["fingerprint"]:
                    print(f"  seed {seed}: sim.fingerprint {a['fingerprint']} != {b['fingerprint']}")
                    ok = False
                for k in ("failed", "known_wrong"):
                    if a[k] != b[k]:
                        print(f"  seed {seed}: {k} {a[k]} != {b[k]}")
                        ok = False
        for r in runs:
            bad = [d for d in r if d["failed"] > 0]
            if bad:
                print(f"  {len(bad)} run(s) with failed operations")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
