#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, to set and check its bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

Runs every workload --runs times in a row in each of --sets sets, each run
with its own seed (seeds 1, 2, ... in set 1, continuing in the next set) and
BENCHMARK.json's run_seconds. For each end-to-end metric of BENCHMARK.json it prints, per set,
the median and quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median. It then checks what
the bounds promise: every spread within its bound, each set's
median no worse than the first set's by more than the bound, and the same
share of failed ops in every set. Exits 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = 1
    for s in range(args.sets):
        for w in workloads:
            for r in range(args.runs):
                result = run_once(w, seed + r, bench["run_seconds"])
                results[w][s].append(result)
                print("set %d run %d %-9s seed %-3d %s" % (
                    s + 1, r + 1, w, seed + r, " ".join(
                        "%s=%.5g" % (m["name"], result["metrics"][m["name"]]["value"])
                        for m in metrics)), file=sys.stderr, flush=True)
        seed += args.runs

    ok = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-13s %-4s %12s %12s %12s %8s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound"))
        every_run = [r for runs in results[w] for r in runs]
        if not all(r["correct"] for r in every_run):
            print("  a run reported correct=false")
            ok = False
        if len(set(r["failed"] / r["attempted"] for r in every_run)) > 1:
            print("  the share of failed ops differs between runs")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r["metrics"][name]["value"] for r in runs])
                    for runs in results[w]]
            for i, st in enumerate(sets):
                print("  %-13s %-4d %12.6g %12.6g %12.6g %7.1f%% %7.0f%%" % (
                    name, i + 1, st["q1"], st["median"], st["q3"],
                    100 * st["spread"], 100 * bound))
                if st["spread"] > bound:
                    print("    spread exceeds the bound")
                    ok = False
                first = sets[0]["median"]
                worse = (st["median"] - first) / first
                if m["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    print("    median worse than set 1 by %.1f%%" % (100 * worse))
                    ok = False
    print("\n" + ("steady: every spread and median shift within its bound" if ok
                  else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
