#!/usr/bin/env python3
"""Compare two sets of pagen benchmark reports against BENCHMARK.json bounds.

    python3 bench/pagen_bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/pagen_bench/compare.py --self-test

Each directory holds one or more report.json files (run.sh --out=DIR
writes one; search is recursive), one per run set. Run set i of the parent
pairs with run set i of the change, so alternate the two sides while
collecting them. Each run set contributes the metric's value (the best
operation of its run for the gated metrics). For every workload and
end-to-end metric it prints the parent and change medians over the run
sets with quartiles and a verdict:

  better      at least 10 pairs, the change wins at least 9 of 10, and the
              medians differ by more than the parent's quartile distance
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's spread (quartile distance / median) exceeds the
              bound and not every change run beats every parent run
  same        otherwise

With fewer than ten run sets per side nothing can read "better", and with
a single one nothing can read "unresolved". Exits 1 when any verdict is
"worse".
"""

import argparse
import io
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_runs(directory):
    """All report.json run sets under `directory`, in path order."""
    runs = []
    for path in sorted(Path(directory).rglob("report.json")):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit(f"no report.json under {directory}")
    return runs


def side(runs, workload, metric):
    """The metric's value in every run set, or None if one lacks it."""
    values = []
    for r in runs:
        m = r.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric)
        if m is None:
            return None
        values.append(m["value"])
    return values


def verdict(parent, change, pairs, better, bound):
    """Apply the module docstring's rule to one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (cm - pm) / pm
    spread = (q3 - q1) / pm
    if gain < -bound:
        return "worse"
    if len(pairs) >= 10:
        wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        if gain > 0 and wins >= 0.9 * len(pairs) and abs(cm - pm) > q3 - q1:
            return "better"
    if spread > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return "same" if all_better else "unresolved"
    return "same"


def cell(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_runs, change_runs, spec, out=sys.stdout):
    """Print one row per (workload, metric); returns the verdict list."""
    verdicts = []
    workloads = [w["name"] for w in spec["workloads"]]
    out.write(f"{'workload':<12} {'metric':<16} {'parent median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36} {'delta':>8}  verdict\n")
    for w in workloads:
        for m in spec["end_to_end"]:
            parent = side(parent_runs, w, m["name"])
            change = side(change_runs, w, m["name"])
            if parent is None or change is None:
                out.write(f"{w:<12} {m['name']:<16} missing\n")
                verdicts.append("missing")
                continue
            pairs = list(zip(parent, change))
            v = verdict(parent, change, pairs, m["better"], m["bound"])
            verdicts.append(v)
            out.write(f"{w:<12} {m['name']:<16} {cell(parent):>36} "
                      f"{cell(change):>36} "
                      f"{statistics.median(change) / statistics.median(parent) - 1:>+8.1%}"
                      f"  {v}\n")
    return verdicts


def self_test():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher",
                            "bound": 0.1}]}

    def runs(values):
        return [{"workloads": {"w": {"metrics": {"rate": {"value": v}}}}}
                for v in values]

    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cases = [
        ("same", base, [v + 0.5 for v in base]),
        ("better", base, [v * 1.2 for v in base]),
        ("worse", base, [v * 0.8 for v in base]),
        ("same", base, [v * 0.95 for v in base]),
        ("unresolved", [60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
         [62, 138, 82, 118, 98, 72, 128, 92, 108, 100]),
    ]
    failed = 0
    for want, parent, change in cases:
        got = compare(runs(parent), runs(change), spec, io.StringIO())[0]
        if got != want:
            print(f"self-test: expected {want}, got {got}")
            failed += 1
    print("self-test:", "FAIL" if failed else f"{len(cases)} cases ok")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        p.error("need PARENT_DIR and CHANGE_DIR")
    spec = json.loads(Path(args.benchmark).read_text())
    verdicts = compare(load_runs(args.parent), load_runs(args.change), spec)
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
