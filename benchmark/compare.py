#!/usr/bin/env python3
"""Summarise compare.sh results.

Usage: compare.py BENCHMARK.json RESULTS.jsonl

For every workload and metric: each side's median and quartiles, the share
of pairs the new side wins (ties count for neither) and a verdict:
  gain        at least 10 pairs, new wins >= 90% of them, the medians
              differ by more than the base's own quartile spread, and new
              failed no more operations than base;
  REGRESSION  new median worse than base by more than the metric's bound;
  unresolved  base spread wider than the bound (and new not better in every
              run), so "no change" cannot be claimed;
  within      otherwise;
  same / CHANGED for exact metrics (counts, virtual time).
A run that printed no result counts as one failed operation.
"""
import json
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10  # fewer pairs than this never support a claimed gain


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def parse_run(stdout):
    """(metrics, failed operations) of one run; metrics is None unless the
    run printed a correct result. Metrics are the last line's JSON plus the
    exact virt_* lines."""
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if not isinstance(last, dict):
        return None, 1
    failed = max(int(last.get("failed", 1)), 0 if last.get("correct") else 1)
    if not last.get("correct"):
        return None, failed
    vals = {k: v["value"] for k, v in last["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith("virt_"):
            vals[parts[0]] = float(parts[1])
    return vals, failed


def verdict(spec, b, n, b_failed, n_failed):
    better = spec.get("better", "exact")
    if better == "exact" or spec.get("unit") == "count":
        return "same" if set(b) == set(n) and len(set(b)) == 1 else "CHANGED"
    bq1, bmed, bq3 = quartiles(b)
    nmed = statistics.median(n)
    worse = (nmed - bmed) / bmed if better == "lower" else (bmed - nmed) / bmed
    wins = win_share(better, b, n)
    if (len(b) >= MIN_PAIRS and wins >= 0.9 and abs(nmed - bmed) > bq3 - bq1
            and worse < 0):
        return "gain" if n_failed <= b_failed else "no gain: more failures"
    bound = spec.get("bound")
    if bound is None:
        return "-"
    if worse > bound:
        return "REGRESSION"
    all_better = (max(n) < min(b)) if better == "lower" else (min(n) > max(b))
    if (bq3 - bq1) / bmed > bound and not all_better:
        return "unresolved"
    return "within"


def win_share(better, b, n):
    if better not in ("lower", "higher"):
        return float("nan")
    wins = sum(1 for x, y in zip(b, n)
               if (y < x if better == "lower" else y > x))
    return wins / len(b)


def main():
    bench = json.load(open(sys.argv[1]))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs = defaultdict(lambda: defaultdict(dict))
    failed = defaultdict(lambda: {"base": 0, "new": 0})
    for line in open(sys.argv[2]):
        rec = json.loads(line)
        vals, nfail = parse_run(rec["stdout"])
        failed[rec["workload"]][rec["side"]] += nfail
        if vals is not None:
            runs[rec["workload"]][rec["pair"]][rec["side"]] = vals

    for w in failed:
        pairs = runs[w]
        bf, nf = failed[w]["base"], failed[w]["new"]
        complete = [p for p in pairs.values() if "base" in p and "new" in p]
        print(f"== {w}: {len(complete)} complete pairs, failed operations "
              f"base {bf} new {nf}")
        if not complete:
            continue
        print(f"  {'metric':26s} {'base q1 / median / q3':>36s} "
              f"{'new q1 / median / q3':>36s} {'wins':>5s}  verdict")
        names = []
        for p in complete:
            for k in p["base"]:
                if k not in names and k in p["new"]:
                    names.append(k)
        for name in names:
            b = [p["base"][name] for p in complete]
            n = [p["new"][name] for p in complete]
            spec = specs.get(name, {"better": "exact"})
            fmt = lambda q: " / ".join(f"{x:.5g}" for x in q)
            wins = win_share(spec.get("better"), b, n)
            print(f"  {name:26s} {fmt(quartiles(b)):>36s} "
                  f"{fmt(quartiles(n)):>36s} {wins:5.2f}  "
                  f"{verdict(spec, b, n, bf, nf)}")


if __name__ == "__main__":
    main()
