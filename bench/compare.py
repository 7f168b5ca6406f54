#!/usr/bin/env python3
"""Compare a bench JSON run against a committed baseline.

Usage: python3 bench/compare.py BASELINE.json NEW.json [--factor F]

Experiments and alloc profiles are matched on (name, contexts, scale)
and micro-benchmarks on name, so quick and full runs never gate each
other. A measurement fails the run (exit 1) only when it exceeds BOTH
gates: more than F x its baseline (default 1.5 — fused dispatch bought
enough headroom to gate the ratio tightly) AND more than an absolute
slack above it (default 0.25 s for experiment wall-clock, 500 ns for
micro ns/run, 2M words for alloc minor_words, 500 us for mean cold
recovery, 100 ms for the static race/lint pass, 250 ms for service-mode
request latencies). The service section additionally carries two
baseline-independent invariants — zero superblock recompiles and a >= 2x
cold/warm gap on the warm-cache leg — that fail the comparison outright.
The alloc section gates GC minor words per run — the pooled
boundary path must stay allocation-free; promoted_words is reported but
never gated (it wobbles with minor-heap phase). The recovery section
gates mean host seconds per cold recovery over a crashsweep leg —
means over whole sweeps are stable where a single recovery's wall
time is not; max_recovery_s and the replayed/redone/squashed counts
are carried in the JSON for inspection but not gated (the counts are
deterministic, so a drift shows up as a test failure first).
The absolute slack exists because fused dispatch shrank the quick
experiments to tens of milliseconds, where a 1.5x ratio alone is
scheduler noise, not a regression. Anything between 1x and the gates
is printed as a warning. Keys present on only one side are reported
but never fail: new benchmarks land without a baseline, retired ones
linger in the baseline until it is regenerated.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def index(run):
    exps = {
        (e["name"], e["contexts"], round(e["scale"], 4)): e["wall_s"]
        for e in run.get("experiments", [])
    }
    micro = {m["name"]: m["ns_per_run"] for m in run.get("micro", [])}
    alloc = {
        (a["name"], a["contexts"], round(a["scale"], 4)): a["minor_words"]
        for a in run.get("alloc", [])
    }
    recovery = {
        (r["leg"], r["contexts"], round(r["scale"], 4)): r["mean_recovery_s"]
        for r in run.get("recovery", [])
    }
    lint = {
        (l["name"], l["contexts"], round(l["scale"], 4)): l["wall_ms"]
        for l in run.get("lint", [])
    }
    service = {}
    for s in run.get("service", []):
        key = (s["name"], s["contexts"], round(s["scale"], 4))
        for metric in ("cold_ms", "warm_ms", "p50_ms", "p99_ms"):
            service[key + (metric,)] = s[metric]
    return exps, micro, alloc, recovery, lint, service


def fault_point_invariant(run):
    """Baseline-independent: the measured run must have had zero named
    fault points armed (the bench binary refuses to start with one, so
    a nonzero count means a hand-edited JSON or a bypassed run). With
    that pinned, the existing micro/experiment gates double as the
    proof that compiled-in unarmed point checks cost nothing."""
    armed = run.get("fault_points_armed", 0)
    if armed != 0:
        print(f"  FAIL  fault_points_armed: {armed} (must be 0: armed points "
              f"perturb every measurement)")
        return ["fault_points_armed"]
    return []


def service_invariants(run):
    """Baseline-independent gates on the service section: the warm cache
    must skip superblock compilation entirely and keep at least a 2x
    per-request win over the cold path (the bench binary enforces the
    same bounds and aborts, so tripping these here means a hand-edited
    JSON or a bypassed run)."""
    failures = []
    for s in run.get("service", []):
        label = f"service {s['name']}"
        if s.get("warm_recompiles", 0) != 0:
            print(f"  FAIL  {label}: {s['warm_recompiles']} warm recompiles (must be 0)")
            failures.append(f"{label} warm_recompiles")
        if s.get("warm_speedup", 0.0) < 2.0:
            print(f"  FAIL  {label}: warm speedup {s['warm_speedup']:.2f}x < 2x")
            failures.append(f"{label} warm_speedup")
    return failures


def compare(kind, base, new, factor, abs_slack):
    failures = []
    for key in sorted(set(base) | set(new), key=str):
        label = f"{kind} {key}"
        if key not in base:
            print(f"  NEW   {label}: {new[key]:.6g} (no baseline)")
        elif key not in new:
            print(f"  GONE  {label}: baseline {base[key]:.6g}, not in new run")
        else:
            b, n = base[key], new[key]
            ratio = n / b if b > 0 else float("inf")
            if ratio > factor and n - b > abs_slack:
                print(f"  FAIL  {label}: {n:.6g} vs {b:.6g} ({ratio:.2f}x > {factor}x)")
                failures.append(label)
            elif ratio > 1.0:
                print(f"  warn  {label}: {n:.6g} vs {b:.6g} ({ratio:.2f}x)")
            else:
                print(f"  ok    {label}: {n:.6g} vs {b:.6g} ({ratio:.2f}x)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--factor", type=float, default=1.5,
                    help="fail when new > factor x baseline (default 1.5)")
    ap.add_argument("--abs-slack-s", type=float, default=0.25,
                    help="experiment wall-clock must also regress by more "
                         "than this many seconds to fail (default 0.25)")
    ap.add_argument("--abs-slack-ns", type=float, default=500.0,
                    help="micro ns/run must also regress by more than this "
                         "many ns to fail (default 500)")
    ap.add_argument("--abs-slack-words", type=float, default=2e6,
                    help="alloc minor_words/run must also regress by more "
                         "than this many words to fail (default 2e6)")
    ap.add_argument("--abs-slack-recovery-s", type=float, default=500e-6,
                    help="mean cold-recovery seconds must also regress by "
                         "more than this to fail (default 500e-6)")
    ap.add_argument("--abs-slack-lint-ms", type=float, default=100.0,
                    help="static race/lint pass wall ms must also regress "
                         "by more than this to fail (default 100)")
    ap.add_argument("--abs-slack-service-ms", type=float, default=250.0,
                    help="service-mode per-request latency (cold/warm "
                         "medians, open-loop p50/p99) must also regress by "
                         "more than this many ms to fail (default 250; the "
                         "cold path includes a full lint admission pass and "
                         "open-loop tails are load-sensitive)")
    args = ap.parse_args()

    base, new = load(args.baseline), load(args.new)
    base_exps, base_micro, base_alloc, base_rec, base_lint, base_svc = \
        index(base)
    new_exps, new_micro, new_alloc, new_rec, new_lint, new_svc = index(new)

    print(f"comparing {args.new} against {args.baseline} (factor {args.factor})")
    failures = compare("experiment", base_exps, new_exps, args.factor,
                       args.abs_slack_s)
    failures += compare("micro", base_micro, new_micro, args.factor,
                        args.abs_slack_ns)
    failures += compare("alloc", base_alloc, new_alloc, args.factor,
                        args.abs_slack_words)
    failures += compare("recovery", base_rec, new_rec, args.factor,
                        args.abs_slack_recovery_s)
    failures += compare("lint", base_lint, new_lint, args.factor,
                        args.abs_slack_lint_ms)
    failures += compare("service", base_svc, new_svc, args.factor,
                        args.abs_slack_service_ms)
    failures += service_invariants(new)
    failures += fault_point_invariant(new)

    if failures:
        print(f"{len(failures)} regression(s) beyond {args.factor}x")
        return 1
    print("no regressions beyond the factor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
