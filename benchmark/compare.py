#!/usr/bin/env python3
"""A/B comparison of benchmark results: parent commit vs change.

    python3 benchmark/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...

Each file is a results JSON written by `benchmark/run.sh --seed N --out
FILE` (all five workloads). Run the two commits alternately, at least
ten times each, swapping which side goes first from pair to pair; the
i-th parent file pairs with the i-th change file, and both files of a
pair must have the same seed.

For every workload and metric this prints each side's median and
quartiles, the pair win rate (ties count for neither side) and, for the
end-to-end metrics, a verdict. The simulated metrics repeat exactly at a
given seed, so they are compared pair by pair:

  identical     equal in every pair;
  differs       unequal in some pair: the change altered what is
                simulated.

The host-time metrics are judged under the bounds in BENCHMARK.json:

  improved      the change wins at least 9 in 10 pairs and the medians
                differ by more than the parent's own quartile spread;
  unresolved    either side's quartile spread exceeds the bound, unless
                every change run beats every parent run;
  regressed     the change's median is worse than the parent's by more
                than the bound;
  within bound  otherwise.

Exits 1 when any end-to-end metric regressed or differs, or any run
failed its correctness checks.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
# End-to-end metrics of the simulation itself: exact at a given seed.
EXACT = {"hl_accuracy_pct", "nl_accuracy_pct", "sim_lat_mean_us",
         "sim_lat_p9999_us", "sim_kiops", "ok_pct"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def better(a, b, lower):
    """True when value a is strictly better than value b."""
    return a < b if lower else a > b


def verdict(parent, change, lower, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, lower) for p, c in pairs)
    scale = abs(pm) if pm else 1.0
    worse = (cm - pm) / scale if lower else (pm - cm) / scale
    if (wins >= WIN_SHARE * len(pairs) and better(cm, pm, lower)
            and abs(cm - pm) > p3 - p1):
        return "improved"
    beats_all = all(better(c, p, lower) for c in change for p in parent)
    if max(p3 - p1, c3 - c1) / scale > bound and not beats_all:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "within bound"


def load(paths):
    runs = [json.loads(Path(p).read_text()) for p in paths]
    for p, r in zip(paths, runs):
        if "workloads" not in r:
            sys.exit(f"{p}: not a benchmark/run.sh results file")
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("give as many parent files as change files (one per pair)")
    if len(args.parent) < MIN_PAIRS:
        print(f"warning: {len(args.parent)} pairs; a claim needs at least "
              f"{MIN_PAIRS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] == "lower"
                  for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    for k, (p, c) in enumerate(zip(parent, change)):
        if (p["seed"], p["smoke"]) != (c["seed"], c["smoke"]):
            sys.exit(f"pair {k}: parent seed {p['seed']} smoke {p['smoke']} "
                     f"!= change seed {c['seed']} smoke {c['smoke']}")

    status = 0
    for side, runs in (("parent", parent), ("change", change)):
        for k, r in enumerate(runs):
            for name, w in r["workloads"].items():
                if not w["correct"]:
                    print(f"{side} run {k}: {name} failed its checks: "
                          f"{w['failures']}")
                    status = 1

    header = (f"{'workload':<14} {'metric':<28} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'wins':>6}  verdict")
    print(header)
    for name in parent[0]["workloads"]:
        for group in ("end_to_end", "per_layer"):
            for metric in parent[0]["workloads"][name][group]:
                if metric not in directions:
                    continue
                lower = directions[metric]
                p = [r["workloads"][name][group][metric] for r in parent]
                c = [r["workloads"][name][group][metric] for r in change]
                wins = sum(better(b, a, lower) for a, b in zip(p, c))
                v = "-"
                if metric in EXACT:
                    v = "identical" if p == c else "differs"
                elif metric in bounds:
                    v = verdict(p, c, lower, bounds[metric]["bound"])
                status = 1 if v in ("regressed", "differs") else status
                pq = "/".join(f"{x:.4g}" for x in quartiles(p))
                cq = "/".join(f"{x:.4g}" for x in quartiles(c))
                print(f"{name:<14} {metric:<28} {pq:>30} {cq:>30} "
                      f"{wins:>3}/{len(p):<2}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
