"""Compare sets of benchmark records: spreads, medians against bounds, exact counts.

usage: python3 perfbench/compare.py RECORD.json ... [--against RECORD.json ...]

Records are the files ``run.py`` writes under ``perfbench/out/``.  For
each workload and end-to-end metric this prints the median of the
first set and its spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; with ``--against``, also the
second set's median and its change.  Per-layer metrics of traced
records are printed as medians.

Exit status 1 when any of these holds:
  * a run was not correct;
  * a spread other than that of ``setup_s`` exceeds the metric's bound;
  * the second median is worse than the first by more than the bound;
  * a count (unit ``count``) differs between two traced records of a
    workload, in either set: counts must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_workload(paths: list[str], trace: int) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = defaultdict(list)
    for p in paths:
        rec = json.loads(Path(p).read_text())
        if rec["trace"] == trace:
            groups[rec["workload"]].append(rec)
    return groups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    problems = []

    for rec in (json.loads(Path(p).read_text()) for p in args.records + args.against):
        if not rec["result"]["correct"]:
            problems.append(f"{rec['workload']} seed {rec['seed']}: not correct")

    first, second = by_workload(args.records, 0), by_workload(args.against, 0)
    for workload in sorted(first):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["result"]["metrics"][name]["value"] for r in first[workload]]
            med_a = statistics.median(a)
            line = f"{workload:13s} {name:14s} median {med_a:.6g} {metric['unit']} (n={len(a)})"
            if len(a) >= 2:
                s = spread(a)
                line += f" spread {s:.3f} of bound {bound}"
                if s > bound and name != "setup_s":
                    problems.append(f"{workload} {name}: spread {s:.3f} > bound {bound}")
            b = [r["result"]["metrics"][name]["value"] for r in second.get(workload, [])]
            if b:
                med_b = statistics.median(b)
                change = (med_b - med_a) / med_a
                worse = change if metric["better"] == "lower" else -change
                line += f" | against {med_b:.6g} (n={len(b)}) change {change:+.1%}"
                if worse > bound:
                    problems.append(f"{workload} {name}: worse by {worse:.1%} > bound {bound}")
            print(line)

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    traced = by_workload(args.records, 1)
    for workload, recs in by_workload(args.against, 1).items():
        traced[workload] += recs
    for workload in sorted(traced):
        recs = traced[workload]
        for metric in spec["per_layer"]:
            name = metric["name"]
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            print(f"{workload:13s} {name:25s} median {statistics.median(vals):.6g} "
                  f"{metric['unit']} (n={len(vals)})")
            if name in counts and len(set(vals)) > 1:
                problems.append(f"{workload} {name}: counts differ between runs: {sorted(set(vals))}")

    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
