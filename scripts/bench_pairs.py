"""Alternating benchmark pairs of two checkouts, metric by metric.

    python scripts/bench_pairs.py PARENT CHANGE [--workload W ...] \\
        --seed 7 --pairs 10 [--seconds 20] [--out BENCH.json]

PARENT and CHANGE are checkout roots.  ``--workload`` may repeat; by
default every workload of the parent's ``BENCHMARK.json`` is run, in its
order, one series each.  Each run is

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

from that root, one run at a time: the parent first on even pairs, the
change first on odd ones.  For every end-to-end metric of the parent's
``BENCHMARK.json`` a series reports each side's median and inclusive
quartiles, the pairs the change wins (ties count for neither) and a
verdict:

- ``better``: over at least ``MIN_PAIRS`` pairs, the change wins at least
  nine tenths of them and its median is better than the parent's by more
  than the parent's interquartile range;
- ``worse beyond bound``: the change's median is worse than the parent's
  by more than the metric's bound;
- ``unresolved``: neither, and either side's interquartile range exceeds
  the bound relative to its median, unless every run of the change reads
  better than every run of the parent;
- ``within bound``: otherwise.

The failed and attempted op counts of both sides are kept with the series.
Each series is printed as JSON, and with ``--out`` appended to the file's
``series`` list.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10      # pairs a gain needs before it can be claimed


def run_once(root, workload, seed, seconds):
    """The JSON result of one benchmark run from the checkout root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs):
    """Median and inclusive quartiles of the runs, with the runs."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") \
        if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": list(runs)}


def compare(parent, change, better, bound):
    """One metric's summary from the runs of each side, in pair order."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    gap = sign * (p["median"] - c["median"])        # > 0: the change is better
    worse = -gap / abs(p["median"]) if p["median"] else 0.0
    wide = any(s["q3"] - s["q1"] > bound * abs(s["median"]) for s in (p, c))
    apart = max(sign * v for v in change) < min(sign * v for v in parent)
    if len(parent) >= MIN_PAIRS and wins >= math.ceil(0.9 * len(parent)) \
            and gap > iqr:
        verdict = "better"
    elif worse > bound:
        verdict = "worse beyond bound"
    elif wide and not apart:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "change_wins": wins,
            "rel_change": c["median"] / p["median"] - 1.0
            if p["median"] else None,
            "gap_over_parent_iqr": gap / iqr if iqr > 0 else None,
            "verdict": verdict}


def run_series(sides, workload, metrics, args):
    """The series of one workload: args.pairs alternating pairs of runs of
    the two sides, and every metric's summary."""
    results = {"parent": [], "change": []}
    order = []
    for i in range(args.pairs):
        first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(first[0])
        for side in first:
            results[side].append(run_once(sides[side], workload, args.seed,
                                          args.seconds))
        print(f"{workload} pair {i} op_s.p50: " + ", ".join(
            f"{s} {results[s][-1]['metrics']['op_s.p50']['value']:.6g} s"
            for s in first), file=sys.stderr)
    series = {
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs, "first": order,
        "failed_ops": {s: sum(r["failed"] for r in results[s])
                       for s in results},
        "attempted_ops": {s: sum(r["attempted"] for r in results[s])
                          for s in results},
        "metrics": {},
    }
    for m in metrics:
        runs = {s: [r["metrics"][m["name"]]["value"] for r in results[s]]
                for s in results}
        series["metrics"][m["name"]] = dict(
            unit=m["unit"], better=m["better"], bound=m["bound"],
            **compare(runs["parent"], runs["change"], m["better"],
                      m["bound"]))
    return series


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        series = run_series(sides, workload, bench["end_to_end"], args)
        print(json.dumps(series, indent=1))
        if args.out is not None:
            doc = json.loads(args.out.read_text()) if args.out.exists() \
                else {}
            doc.setdefault("series", []).append(series)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
