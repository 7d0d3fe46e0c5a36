#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric and workload
by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each input holds one JSON object per line, as `run.py --record FILE`
writes them: {"workload": ..., "seed": ..., "trace": 0|1, "result": {...}}.
The i-th run of a workload in BASE is paired with its i-th run in CHANGE;
make the runs alternating (base, change, change, base, ...) so the pairs
share the machine's conditions.

Verdicts, per workload and metric (choosing-metrics rule):
  better      the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the base
              runs' own quartile spread
  worse       the change's median is worse than the base median by more
              than the metric's bound
  unresolved  the base runs' quartile spread exceeds the bound, so "no
              worse than the bound" cannot be shown (unless every change
              run beats every base run, or loses to every one)
  same        none of the above: no worse than the bound
Per-layer metrics have no bound: they get better/worse/same by the pair
rule alone. Exit code 1 when any end-to-end metric is worse.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec.get("trace", 0))
            runs.setdefault(key, []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, change, lower_better, bound):
    pairs = list(zip(base, change))
    wins = losses = 0
    for b, c in pairs:
        if c == b:
            continue
        if (c < b) == lower_better:
            wins += 1
        else:
            losses += 1
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    spread = q3 - q1
    diff = med_c - med_b
    worse_by = (diff if lower_better else -diff) / med_b if med_b else 0.0
    all_better = all((c < b) == lower_better and c != b
                     for b in base for c in change)
    all_worse = all((c > b) == lower_better and c != b
                    for b in base for c in change)
    rel_spread = spread / med_b if med_b else 0.0
    if pairs and wins >= 0.9 * len(pairs) and abs(diff) > spread:
        return "better", wins, worse_by, rel_spread
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(diff) > spread:
            return "worse", wins, worse_by, rel_spread
        return "same", wins, worse_by, rel_spread
    if worse_by > bound and (rel_spread <= bound or all_worse):
        return "worse", wins, worse_by, rel_spread
    if rel_spread > bound and not (all_better or all_worse):
        return "unresolved", wins, worse_by, rel_spread
    return "same", wins, worse_by, rel_spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    specs = {m["name"]: (m, True) for m in bench["end_to_end"]}
    specs.update({m["name"]: (m, False) for m in bench.get("per_layer", [])})
    base, change = load(args.base), load(args.change)

    any_worse = False
    header = ("workload", "metric", "base median [q1, q3]",
              "change median [q1, q3]", "worse by", "wins", "verdict")
    rows = [header]
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        n = min(len(b_runs), len(c_runs))
        names = [name for name in b_runs[0]["metrics"] if name in specs]
        for name in names:
            spec, end_to_end = specs[name]
            b = [r["metrics"][name]["value"] for r in b_runs[:n]]
            c = [r["metrics"][name]["value"] for r in c_runs[:n]]
            lower = spec.get("better", "lower") == "lower"
            v, wins, worse_by, _ = verdict(
                b, c, lower, spec.get("bound") if end_to_end else None)
            any_worse = any_worse or (v == "worse" and end_to_end)
            bq, cq = quartiles(b), quartiles(c)
            rows.append((workload + ("" if trace == 0 else " (traced)"), name,
                         "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                         "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                         "%+.1f%%" % (100 * worse_by), "%d/%d" % (wins, n), v))
        for label, runs in (("base", b_runs[:n]), ("change", c_runs[:n])):
            bad = sum(1 for r in runs if not r["correct"] or r["failed"])
            if bad:
                rows.append((workload, "(runs)", "", "", "", "",
                             "%s: %d runs incorrect or with failures" % (label, bad)))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
