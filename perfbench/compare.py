#!/usr/bin/env python3
"""Compares two sets of perfbench runs against the bounds in BENCHMARK.json.

Each input file holds the captured standard output of one or more
`perfbench/run.py` runs (concatenate them). For every workload, the median
of each end-to-end metric in NEW is compared with its median in BASE; a
metric worse by more than its bound is reported as a regression. Traced
runs are skipped. The sensitivity check compares plain runs (BASE) with
`--inject` runs (NEW); one file may not mix injection settings.

A strict comparison is refused (exit 3) when the runs' `meta` differs in
CPU model, core count, thread counts, build type or compiler: such numbers
measure the machine, not the change. --loose compares anyway.

Usage: python3 perfbench/compare.py BASE.txt NEW.txt [--loose]
Exit codes: 0 no regression, 1 regression, 2 usage error, 3 meta differs.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STRICT_META = ("cpu", "nproc", "threads", "build_type", "compiler")


def load_runs(path):
    """{workload: {"meta": [...], "metrics": {name: [values]}}} of untraced
    runs."""
    runs = {}
    meta = None
    with open(path) as f:
        for line in f:
            if line.startswith("meta "):
                meta = json.loads(line[len("meta "):])
            elif line.startswith("{") and meta is not None:
                result = json.loads(line)
                if meta["trace"] == 0:
                    entry = runs.setdefault(meta["workload"],
                                            {"meta": [], "metrics": {}})
                    entry["meta"].append(meta)
                    for name, m in result["metrics"].items():
                        entry["metrics"].setdefault(name, []).append(
                            m["value"])
                meta = None
    return runs


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--loose", action="store_true",
                        help="compare even when meta differs")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load_runs(args.base), load_runs(args.new)
    for path, runs in ((args.base, base), (args.new, new)):
        for workload, entry in runs.items():
            if len({m["inject"] for m in entry["meta"]}) > 1:
                print(f"{path}: {workload} runs mix --inject settings")
                return 2

    mismatched = []
    for workload in sorted(set(base) & set(new)):
        metas = base[workload]["meta"] + new[workload]["meta"]
        for key in STRICT_META:
            values = {json.dumps(m[key], sort_keys=True) for m in metas}
            if len(values) > 1:
                mismatched.append(f"{workload}: {key} differs: "
                                  f"{sorted(values)}")
    if mismatched and not args.loose:
        print("refusing a strict comparison:\n  " + "\n  ".join(mismatched))
        return 3

    regressed = False
    for workload in sorted(set(base) & set(new)):
        for name, metric in spec.items():
            b = statistics.median(base[workload]["metrics"][name])
            n = statistics.median(new[workload]["metrics"][name])
            if b == 0:
                change = 0.0
            elif metric["better"] == "lower":
                change = (n - b) / b
            else:
                change = (b - n) / b
            verdict = "ok"
            if change > metric["bound"]:
                verdict = "REGRESSION"
                regressed = True
            print(f"{workload:14s} {name:16s} base {b:<12.6g} new "
                  f"{n:<12.6g} worse by {change:+.3f} (bound "
                  f"{metric['bound']}) {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
