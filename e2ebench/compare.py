#!/usr/bin/env python3
"""Compares benchmark runs of two commits.

    python3 e2ebench/compare.py BASE_runs.jsonl NEW_runs.jsonl [--bench BENCHMARK.json]

Each input is a runs.jsonl written by run.py (one record per run; copy
.bench_build/runs.jsonl out of each checkout). For every workload and
metric it prints both sides' median and quartiles, the change of the
median, and how many seed-matched pairs the new side wins, then a verdict:

  better      the new side wins at least 9 of 10 pairs and the medians
              differ by more than the base side's quartile spread, or
              every new run is better than every base run
  WORSE       the new median is worse than the base median by more than
              the metric's bound
  unresolved  the base side's own spread (quartile distance over median)
              is wider than the bound, so "no change" cannot be claimed
  same        none of the above

End-to-end metrics take their bound and direction from BENCHMARK.json.
The latencies in the runs' detail lines (read_p99_us, point_select_p50_us,
write_p99_us, ...) take the bound of read_p50_us. Traced runs' per-layer
metrics have no bound; they are listed with medians only.
Attempted and failed statement counts are reported per side.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def metrics_of(record):
    """name -> value for one run: result metrics plus per-class latencies."""
    out = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    if "read_p99_us" in record.get("detail", {}):
        out["read_p99_us"] = record["detail"]["read_p99_us"]
    for cls, stats in record.get("detail", {}).get("classes", {}).items():
        for key in ("p50_us", "p99_us"):
            if key in stats:
                out["%s_%s" % (cls, key)] = stats[key]
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def group(records):
    """(workload, trace) -> list of (seed, metrics, attempted, failed)."""
    out = defaultdict(list)
    for r in records:
        m = r["meta"]
        out[(m["workload"], m["trace"])].append(
            (m["seed"], metrics_of(r), r["result"]["attempted"],
             r["result"]["failed"]))
    return out


def verdict(base, new, lower_is_better, bound):
    q1, med_b, q3 = quartiles(base)
    _, med_n, _ = quartiles(new)
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    spread = (q3 - q1) / abs(med_b) if med_b else 0.0
    worse_by = (med_n - med_b) / abs(med_b) if med_b else 0.0
    if not lower_is_better:
        worse_by = -worse_by
    return spread, worse_by, better


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    base, new = group(load(args.base)), group(load(args.new))

    for key in sorted(set(base) | set(new)):
        workload, trace = key
        b_runs, n_runs = base.get(key, []), new.get(key, [])
        print("\n== %s (%s)" % (workload, "traced" if trace else "untraced"))
        for side, runs in (("base", b_runs), ("new", n_runs)):
            att = sum(r[2] for r in runs)
            fail = sum(r[3] for r in runs)
            print("  %-4s %2d runs, %d statements attempted, %d failed (%.4f%%)"
                  % (side, len(runs), att, fail, 100.0 * fail / att if att else 0))
        if not b_runs or not n_runs:
            continue
        names = sorted(set().union(*(r[1] for r in b_runs + n_runs)))
        for name in names:
            bv = [r[1][name] for r in b_runs if name in r[1]]
            nv = [r[1][name] for r in n_runs if name in r[1]]
            if not bv or not nv:
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            line = "  %-34s base %12.4g [%10.4g,%10.4g]  new %12.4g [%10.4g,%10.4g]" % (
                name, bq[1], bq[0], bq[2], nq[1], nq[0], nq[2])
            ref = spec.get(name)
            if ref is None and name.endswith("_us"):
                ref = spec.get("read_p50_us")
            if trace or ref is None:
                print(line)
                continue
            lower = ref["better"] == "lower"
            spread, worse_by, better = verdict(bv, nv, lower, ref["bound"])
            b_seed = {r[0]: r[1][name] for r in b_runs if name in r[1]}
            pairs = [(b_seed[r[0]], r[1][name]) for r in n_runs
                     if name in r[1] and r[0] in b_seed]
            wins = sum(1 for b, n in pairs if better(n, b))
            all_better = all(better(n, b) for n in nv for b in bv)
            if all_better or (pairs and wins >= 0.9 * len(pairs)
                              and abs(nq[1] - bq[1]) > bq[2] - bq[0]
                              and better(nq[1], bq[1])):
                status = "better"
            elif worse_by > ref["bound"]:
                status = "WORSE"
            elif spread > ref["bound"]:
                status = "unresolved"
            else:
                status = "same"
            print("%s  %+6.1f%%  wins %d/%d  bound %.2f  %s" % (
                line, -100 * worse_by, wins, len(pairs), ref["bound"], status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
