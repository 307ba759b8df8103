#!/usr/bin/env python3
"""A/B comparison of two sets of benchmark results.

Usage (from the repository root):

    python3 perfbench/compare.py A B [--per-layer]

A and B are directories (or single files) of result files that run.py
writes under <build>/results/ (one JSON per run). For each workload and each
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles (statistics.quantiles, n=4), each side's spread (quartile distance
over the median) and a verdict:

    agree   B's median is within the metric's bound of A's, in the bad
            direction (B may be better by any amount);
    WORSE   B's median is worse than A's by more than the bound;
    noisy   a side's spread exceeds the bound, so the comparison cannot
            resolve a change of that size.

Metrics measured but not gated (p99s, fail_ratio) are listed with their
medians and no verdict; --per-layer adds the traced runs' per-layer
medians. Exit status: 0 when every gated pairing agrees, 1 otherwise, 2 on
bad input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_results(path):
    """Result dicts from a file or every *.json under a directory."""
    files = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".json") and not name.endswith(".trace.json"):
                files.append(os.path.join(path, name))
    else:
        files.append(path)
    results = []
    for name in files:
        with open(name) as f:
            data = json.load(f)
        if isinstance(data, dict) and "workload" in data:
            results.append(data)
    return results


def summarize(values):
    """(median, q1, q3, spread) of a list of numbers."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict(metric, a, b):
    """Compares summaries a and b of one metric under its bound."""
    bound = metric["bound"]
    if a[3] > bound or b[3] > bound:
        return "noisy"
    if metric["better"] == "lower":
        worse = b[0] > a[0] * (1.0 + bound)
    else:
        worse = b[0] < a[0] * (1.0 - bound)
    return "WORSE" if worse else "agree"


def values_of(results, workload, section, name, traced):
    return [r[section][name]["value"] for r in results
            if r["workload"] == workload and bool(r.get("traced")) == traced
            and name in r.get(section, {})]


def compare(spec, a_results, b_results, per_layer, out=sys.stdout):
    """Prints the comparison table; returns True when every gated pairing
    agrees."""
    ok = True
    fmt = "%-14s %-22s %12s %12s %12s %7s %12s %12s %12s %7s  %s"
    for workload in [w["name"] for w in spec["workloads"]]:
        print(fmt % ("workload", "metric", "A median", "A q1", "A q3", "A sprd",
                     "B median", "B q1", "B q3", "B sprd", "verdict"), file=out)
        rows = [("end_to_end", m, False) for m in spec["end_to_end"]]
        reported = set()
        for r in a_results + b_results:
            if r["workload"] == workload and not r.get("traced"):
                reported.update(r.get("reported", {}))
        rows += [("reported", {"name": n}, False) for n in sorted(reported)]
        if per_layer:
            rows += [("per_layer", m, True) for m in spec["per_layer"]]
        for section, metric, traced in rows:
            a = values_of(a_results, workload, section, metric["name"], traced)
            b = values_of(b_results, workload, section, metric["name"], traced)
            if not a or not b:
                if section == "end_to_end":
                    print("%-14s %-22s missing on one side" %
                          (workload, metric["name"]), file=out)
                    ok = False
                continue
            sa, sb = summarize(a), summarize(b)
            if section == "end_to_end":
                v = verdict(metric, sa, sb)
                ok = ok and v == "agree"
            else:
                v = "(not gated)"
            print(fmt % (workload, metric["name"], "%.6g" % sa[0],
                         "%.6g" % sa[1], "%.6g" % sa[2], "%.3f" % sa[3],
                         "%.6g" % sb[0], "%.6g" % sb[1], "%.6g" % sb[2],
                         "%.3f" % sb[3], v), file=out)
        print(file=out)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        a_results = load_results(args.a)
        b_results = load_results(args.b)
    except (OSError, ValueError) as e:
        print("compare: %s" % e, file=sys.stderr)
        return 2
    if not a_results or not b_results:
        print("compare: no result files on one side", file=sys.stderr)
        return 2
    return 0 if compare(spec, a_results, b_results, args.per_layer) else 1


if __name__ == "__main__":
    sys.exit(main())
