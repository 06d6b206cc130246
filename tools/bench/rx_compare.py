#!/usr/bin/env python3
"""Compare rxbench runs of two builds, per workload and metric.

Reads rxbench standard output saved from runs of a parent build and of a
changed build (any number of runs per file, in run order), and the metric
directions and regression bounds in BENCHMARK.json (read only). Runs pair
up in order per workload: the i-th parent run with the i-th change run.
For each workload and metric it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side) and a
verdict:

  GAIN        at least 10 pairs, the change won at least 9 in 10 of them,
              and the medians differ, in the better direction, by more
              than the distance between the parent's quartiles.
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound (a fraction of the parent's median).
  UNRESOLVED  not a regression, but either side's quartile distance is
              wider than the bound, and not every change run beat every
              parent run.
  OK          within the bound.

Per-layer metrics have no bound in BENCHMARK.json: they get GAIN or "-".
A gain that meets every test but the pair count prints as "GAIN?".

Usage:
  rx_compare.py --parent p1.txt [p2.txt ...] --change c1.txt [...]
                [--benchmark BENCHMARK.json]

Exits 1 if any metric regressed or any run reported correct: false.
Stdlib only.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")
MIN_PAIRS = 10
MIN_WIN_FRACTION = 0.9


def read_runs(paths):
    """Returns {workload: [result, ...]} in file and line order.

    An rxbench run prints a detail line ({"rxbench": {"workload": ...}})
    and then its result line ({"correct": ..., "metrics": ...}). Text
    before the first "{" on a line and lines that are not JSON are ignored.
    """
    runs = {}
    for path in paths:
        workload = None
        with open(path) as f:
            for line in f:
                start = line.find("{")
                if start < 0:
                    continue
                try:
                    obj = json.loads(line[start:])
                except ValueError:
                    continue
                if "rxbench" in obj:
                    workload = obj["rxbench"]["workload"]
                elif "metrics" in obj:
                    if workload is None:
                        raise ValueError(
                            f"{path}: result line without a detail line")
                    runs.setdefault(workload, []).append(obj)
                    workload = None
    return runs


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent, change, better, bound):
    """Statistics and verdict for one metric.

    `parent` and `change` are run-ordered values; `better` is "higher" or
    "lower"; `bound` is the allowed worsening as a fraction, or None.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)  # > 0: the change is better
    won = bool(pairs) and wins >= MIN_WIN_FRACTION * len(pairs)
    stat = {
        "pairs": len(pairs), "wins": wins,
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "rel": (c_med - p_med) / p_med if p_med else 0.0,
    }
    scale = abs(p_med)
    if won and gain > p_q3 - p_q1:
        stat["verdict"] = "GAIN" if len(pairs) >= MIN_PAIRS else "GAIN?"
    elif bound is None:
        stat["verdict"] = "-"
    elif -gain > bound * scale:
        stat["verdict"] = "REGRESSION"
    elif (max(p_q3 - p_q1, c_q3 - c_q1) > bound * scale and
          not min(sign * c for c in change) > max(sign * p for p in parent)):
        stat["verdict"] = "UNRESOLVED"
    else:
        stat["verdict"] = "OK"
    return stat


def fmt(v):
    return f"{v:.4g}"


def report(parent_runs, change_runs, benchmark, out):
    """Prints the comparison; returns the number of failures."""
    bounds = {m["name"]: m for m in benchmark.get("end_to_end", [])}
    layers = {m["name"]: m for m in benchmark.get("per_layer", [])}
    failures = 0
    for workload in sorted(set(parent_runs) | set(change_runs)):
        ps = parent_runs.get(workload, [])
        cs = change_runs.get(workload, [])
        p_ok = sum(1 for r in ps if r.get("correct"))
        c_ok = sum(1 for r in cs if r.get("correct"))
        print(f"{workload}: {min(len(ps), len(cs))} pairs; correct runs "
              f"parent {p_ok}/{len(ps)}, change {c_ok}/{len(cs)}", file=out)
        failures += (len(ps) - p_ok) + (len(cs) - c_ok)
        if not ps or not cs:
            print("  (one side has no runs)", file=out)
            continue
        names = [n for n in ps[0]["metrics"] if n in cs[0]["metrics"]]
        print(f"  {'metric':<34} {'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'change':>8} "
              f"{'wins':>6}  verdict", file=out)
        for name in names:
            spec = bounds.get(name) or layers.get(name)
            if spec is None:
                continue
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            n = min(len(pv), len(cv))
            s = compare(pv[:n], cv[:n], spec["better"],
                        bounds[name]["bound"] if name in bounds else None)
            if s["verdict"] == "REGRESSION":
                failures += 1
            p, c = s["parent"], s["change"]
            print(f"  {name:<34} "
                  f"{fmt(p[1]) + ' [' + fmt(p[0]) + ', ' + fmt(p[2]) + ']':<34} "
                  f"{fmt(c[1]) + ' [' + fmt(c[0]) + ', ' + fmt(c[2]) + ']':<34} "
                  f"{s['rel']:>+8.1%} {str(s['wins']) + '/' + str(s['pairs']):>6}"
                  f"  {s['verdict']}", file=out)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    failures = report(read_runs(args.parent), read_runs(args.change),
                      benchmark, sys.stdout)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
