#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perf/compare.py A.json... -- B.json...

Each file holds records written by `main.exe --json FILE` (or
`perf/run.py ... --json FILE`), one JSON object per line.  Run the two
commits alternately (A, B, A, B, ...) with the same settings; the i-th run
of A is paired with the i-th run of B, per workload.

For every workload and metric it prints each side's median and quartiles
(statistics.quantiles, n=4), each side's spread (quartile distance over the
median), the change of the medians, the fraction of pairs B wins (ties count
for neither), and a verdict against BENCHMARK.json:

  improved    B wins at least 9 pairs in 10 and the medians differ by more
              than A's quartile distance
  worse       B's median is worse than A's by more than the bound
  unresolved  a side's spread is wider than the bound, unless every run of
              B beats every run of A (then improved)
  ok          none of these: no worse than the bound

Per-layer metrics have no bound: they read improved, worse (the mirror of
improved) or "-".  The exit status is 1 when an end-to-end metric is worse.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    runs = {}
    for p in paths:
        with open(p) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    if m["value"] is not None:
                        runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a, b, better, bound):
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    qa1, ma, qa3 = quartiles(a)
    mb = statistics.median(b)
    moved = abs(mb - ma) > (qa3 - qa1)
    frac = wins / len(pairs) if pairs else 0.0
    all_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if frac >= 0.9 and moved:
        v = "improved"
    elif bound is None:
        v = "worse" if pairs and losses / len(pairs) >= 0.9 and moved else "-"
    elif sign * (mb - ma) < -bound * abs(ma):
        v = "worse"
    elif max(spread(a), spread(b)) > bound:
        v = "improved" if all_better else "unresolved"
    else:
        v = "ok"
    return frac, v


def main():
    args = sys.argv[1:]
    if "--" not in args:
        sys.exit(__doc__)
    cut = args.index("--")
    a, b = load(args[:cut]), load(args[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    order = [w["name"] for w in spec["workloads"]]
    keys = sorted(set(a) & set(b),
                  key=lambda k: (order.index(k[0]) if k[0] in order else 99,
                                 k[1] not in e2e, k[1]))
    print("%-12s %-30s %12s %12s %12s %12s %7s %7s %8s %5s  %s"
          % ("workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3",
             "A sprd", "B sprd", "change", "wins", "verdict"))
    worse = False
    for k in keys:
        m = e2e.get(k[1]) or layers.get(k[1])
        if m is None:
            continue
        xa, xb = a[k], b[k]
        bound = m.get("bound")
        frac, v = verdict(xa, xb, m["better"], bound)
        qa1, ma, qa3 = quartiles(xa)
        qb1, mb, qb3 = quartiles(xb)
        change = (mb - ma) / abs(ma) if ma else 0.0
        worse |= v == "worse" and bound is not None
        print("%-12s %-30s %12.5g %12s %12.5g %12s %6.1f%% %6.1f%% %+7.1f%% %4.0f%%  %s%s"
              % (k[0], k[1], ma, "%.4g..%.4g" % (qa1, qa3), mb, "%.4g..%.4g" % (qb1, qb3),
                 100 * spread(xa), 100 * spread(xb), 100 * change, 100 * frac, v,
                 "" if bound is None else " (bound %g%%)" % (100 * bound)))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
