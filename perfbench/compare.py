#!/usr/bin/env python3
"""Compare two sets of run_benchmark.py results, e.g. a parent and a change.

  python3 perfbench/compare.py --parent runs/parent --change runs/change

Each argument is a result file written by `run_benchmark.py --out`, or a
directory of them. Each side must hold exactly one run per seed, over the
same seeds, and runs are paired by seed; anything else exits 2. Measure
both sides with the same seeds, alternating which side runs first.

For every (workload, end-to-end metric) it prints each side's median and
quartiles and the fraction of pairs the change won (ties count for
neither), then a verdict:

  improved    the change won >= 9/10 of the pairs and the medians differ,
              in its favour, by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every change run beats every parent run;
  unchanged   otherwise.

It also prints failed_frac per side and every sim_fingerprint that differs
between runs of the same workload and seed (simulated results must repeat
exactly). Exits 1 on a regression, a failed op or a fingerprint mismatch,
and 2 when the two sides cannot be paired seed by seed.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpairable(msg):
    print("compare: " + msg, file=sys.stderr)
    sys.exit(2)


def load(paths):
    """One side's runs, keyed by seed; a seed given twice is an error."""
    runs = {}
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "*.json"))) \
            if os.path.isdir(p) else [p]
        for f in files:
            with open(f) as fh:
                r = json.load(fh)
            if r["seed"] in runs:
                unpairable(f"seed {r['seed']} appears twice on one side ({f})")
            runs[r["seed"]] = r
    return runs


def paired(parent, change):
    """Both sides' runs in seed order; exits unless they cover the same
    seeds, so that every pair compares one dataset."""
    if not parent or not change:
        unpairable("no result files found")
    if set(parent) != set(change):
        unpairable(f"seeds differ: parent {sorted(parent)}, "
                   f"change {sorted(change)}")
    seeds = sorted(parent)
    return [parent[s] for s in seeds], [change[s] for s in seeds]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(a, b, lower_better, bound):
    """a[i] and b[i] are the parent's and the change's value on one seed."""
    sign = -1.0 if lower_better else 1.0
    better = lambda x, y: sign * (x - y) > 0  # x better than y
    won = sum(better(y, x) for x, y in zip(a, b, strict=True))
    pairs = len(a)
    ma, mb = statistics.median(a), statistics.median(b)
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[1] - qa[0]) / ma, (qb[1] - qb[0]) / mb)
    if pairs and won >= 0.9 * pairs and sign * (mb - ma) > qa[1] - qa[0]:
        v = "improved"
    elif -sign * (mb - ma) > bound * ma:
        v = "regressed"
    elif spread > bound and not all(better(y, x) for x in a for y in b):
        v = "unresolved"
    else:
        v = "unchanged"
    return v, won, pairs, (ma, qa), (mb, qb)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = paired(load(args.parent), load(args.change))

    bad = False
    workloads = sorted({w for r in parent + change for w in r["workloads"]})
    print(f"{len(parent)} seed pairs: {sorted(r['seed'] for r in parent)}")
    print(f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    for w in workloads:
        both = [(p["workloads"][w], c["workloads"][w])
                for p, c in zip(parent, change)
                if w in p["workloads"] and w in c["workloads"]]
        if len(both) != len(parent):
            unpairable(f"{w} is missing from some runs")
        a_runs = [p for p, _ in both]
        b_runs = [c for _, c in both]
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"]["end_to_end"][name]["value"] for r in a_runs]
            b = [r["metrics"]["end_to_end"][name]["value"] for r in b_runs]
            v, won, pairs, (ma, qa), (mb, qb) = verdict(
                a, b, m["better"] == "lower", m["bound"])
            bad |= v == "regressed"
            cell = lambda m, q: f"{m:.5g} [{q[0]:.5g}, {q[1]:.5g}]"
            print(f"{w:<14} {name:<12} {cell(ma, qa):>34} "
                  f"{cell(mb, qb):>34} {won:>3}/{pairs:<3}  {v}")
        for side, runs in (("parent", a_runs), ("change", b_runs)):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            bad |= fail > 0
            print(f"{w:<14} failed_frac {side}: {fail}/{att}")

    # Simulated statistics are deterministic: same workload + seed must give
    # the same fingerprint on every run, on both sides.
    seen = {}
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            for w, s in r["workloads"].items():
                seen.setdefault((w, r["seed"]), {}).setdefault(
                    s["fingerprint_hash"], []).append(side)
    for (w, seed), hashes in sorted(seen.items()):
        if len(hashes) > 1:
            bad = True
            print(f"sim_fingerprint mismatch: {w} seed {seed}: " +
                  ", ".join(f"{h} ({'/'.join(sorted(set(s)))})"
                            for h, s in hashes.items()))
    if not any(len(h) > 1 for h in seen.values()):
        print("sim_fingerprint: identical across all runs of each "
              "(workload, seed)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
