#!/usr/bin/env python3
"""Compares two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as perfbench writes them to
.bench_build/work/results/ (one JSON file per workload, seed and trace
flag); copy that directory aside after running the parent commit, then run
the change. Results are compared only when their fingerprints match (CPU
model, core count, SIMD path, compiler, build type and thread setting; the
git revision and source hash are expected to differ). For every
end-to-end metric and workload the script prints each side's median and
quartile spread, the change of the median, and a verdict against the
metric's bound in BENCHMARK.json: "worse" when the new median is worse by
more than the bound, "unresolved" when the base's own spread exceeds the
bound, "ok" otherwise. Exit status: 0 when nothing is worse, 1 when
something is, 2 when the fingerprints differ or a side has no results.
"""

import glob
import json
import os
import statistics
import sys

MACHINE_KEYS = ["cpu", "nproc", "simd", "compiler", "build_type", "threads"]


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            result = json.load(f)
        runs.setdefault(result["workload"], []).append(result)
    return runs


def machine(result):
    return {k: result["fingerprint"][k] for k in MACHINE_KEYS}


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / median if median else 0.0


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare: no results in one of the directories", file=sys.stderr)
        return 2
    prints = {json.dumps(machine(r), sort_keys=True)
              for runs in list(base.values()) + list(new.values())
              for r in runs}
    if len(prints) != 1:
        print("compare: fingerprints differ; results are not comparable:",
              file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    worse = False
    print("%-14s %-14s %12s %6s %12s %6s %8s  %s" % (
        "workload", "metric", "base", "iqr", "new", "iqr", "change",
        "verdict"))
    for workload in sorted(set(base) & set(new)):
        for name, m in spec.items():
            b = [r["end_to_end"][name]["value"] for r in base[workload]]
            n = [r["end_to_end"][name]["value"] for r in new[workload]]
            (bm, bs), (nm, ns) = summary(b), summary(n)
            change = (nm - bm) / bm if bm else 0.0
            loss = change if m["better"] == "lower" else -change
            if bs > m["bound"]:
                verdict = "unresolved"
            elif loss > m["bound"]:
                verdict = "worse"
                worse = True
            else:
                verdict = "ok"
            print("%-14s %-14s %12.5g %6.3f %12.5g %6.3f %+7.1f%%  %s" % (
                workload, name, bm, bs, nm, ns, 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
