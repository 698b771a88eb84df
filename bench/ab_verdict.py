#!/usr/bin/env python3
"""Summarize an A/B of the end-to-end benchmark into one verdict per metric.

    make perf-ab BASE=<rev> W=<workload> PAIRS=n
    python3 bench/ab_verdict.py [BENCHMARK.json] < pairs.txt

Reads the pair lines `make perf-ab` prints:

    pair <i> <base|this> {"correct": ..., "metrics": {...}}
    pair <i> <base|this> digest=<hex> ...

and prints, for every end-to-end metric of BENCHMARK.json, the median and
interquartile range of each side, the change of the medians and a verdict.
The verdict is "improved" or "regressed" only when there are at least
MIN_PAIRS pairs, at least nine in ten of them move the same way (as the
metric's `better` field reads it; ties count for neither) and this side's
median lies outside the base's interquartile range in that direction;
otherwise it is "unresolved".  A median worse than the base's by more
than the metric's `bound` is marked "over bound".  A pair whose two sides
printed different report digests is flagged: the change altered a result,
not just its speed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIDES = ("base", "this")
# below six pairs, every pair agreeing happens by chance alone with odds
# above 1 in 32 (each pair a fair coin), too often to call a verdict
MIN_PAIRS = 6


def quartiles(xs):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def parse(lines):
    """{pair: {side: {"metrics": {...}, "digests": set}}}, in input order."""
    pairs = {}
    for line in lines:
        parts = line.split(None, 3)
        if len(parts) < 4 or parts[0] != "pair" or parts[2] not in SIDES:
            continue
        runs = pairs.setdefault(int(parts[1]), {})
        run = runs.setdefault(parts[2], {"metrics": None, "digests": set()})
        rest = parts[3].strip()
        if rest.startswith("{"):
            run["metrics"] = json.loads(rest)["metrics"]
        else:
            run["digests"].update(w for w in rest.split()
                                  if w.startswith("digest="))
    return pairs


def verdict(spec, pairs):
    name, higher = spec["name"], spec["better"] == "higher"
    values = {side: [] for side in SIDES}
    wins = losses = 0
    for runs in pairs.values():
        b, t = (runs[s]["metrics"].get(name, {}).get("value") for s in SIDES)
        if b is None or t is None:
            continue
        values["base"].append(b)
        values["this"].append(t)
        if t != b:
            if (t > b) == higher:
                wins += 1
            else:
                losses += 1
    count = len(values["base"])
    if count == 0:
        return None
    bq1, bmed, bq3 = quartiles(values["base"])
    tq1, tmed, tq3 = quartiles(values["this"])
    better_side = tmed > bq3 if higher else tmed < bq1
    worse_side = tmed < bq1 if higher else tmed > bq3
    if count < MIN_PAIRS:
        word = "unresolved (too few pairs)"
    elif 10 * wins >= 9 * count and better_side:
        word = "improved"
    elif 10 * losses >= 9 * count and worse_side:
        word = "regressed"
    else:
        word = "unresolved"
    change = (tmed - bmed) / bmed if bmed else 0.0
    if (-change if higher else change) > spec["bound"]:
        word += ", over bound"
    return (f"{name:15s} {spec['better']:6s} "
            f"base {bmed:10.4g} [{bq1:.4g}, {bq3:.4g}]  "
            f"this {tmed:10.4g} [{tq1:.4g}, {tq3:.4g}]  "
            f"{change * 100:+6.1f}%  {wins}/{count} better  {word}")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        specs = json.load(f)["end_to_end"]
    pairs = parse(sys.stdin)
    complete = {i: runs for i, runs in pairs.items()
                if all(runs.get(s, {}).get("metrics") for s in SIDES)}
    if not complete:
        print("ab_verdict: no complete pair on standard input", file=sys.stderr)
        return 2
    print(f"verdict over {len(complete)} pairs (median [q1, q3])")
    for spec in specs:
        line = verdict(spec, complete)
        if line:
            print(line)
    for i, runs in sorted(pairs.items()):
        b, t = (runs.get(s, {}).get("digests", set()) for s in SIDES)
        if b != t:
            print(f"pair {i}: DIGESTS DIFFER base {' '.join(sorted(b))} "
                  f"this {' '.join(sorted(t))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
