#!/usr/bin/env python3
"""Steadiness report: run the workloads interleaved, one seed per
round, and print each end-to-end metric's median, quartiles and
spread (Q3 - Q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them) next to its bound in
BENCHMARK.json.

    python3 perfbench/steady.py --runs 10

The runs are made in two sets over the same seeds. A spread that
reaches a third of its bound is marked WIDE (setup_s is exempt but
shown), and a second-set median worse than the first set's by more
than the metric's bound is marked DRIFT. The bounds in BENCHMARK.json
are set from this output (see perfbench/README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout
    # The host line and the probe's time: a run in a slow window shows.
    context = [line.split(", ")[-1] if "host probe" in line else line
               for line in out.splitlines()
               if line.startswith("host ") or "host probe" in line]
    return json.loads(out.splitlines()[-1]), " ".join(context)


def run_set(bench, runs, label):
    """Run every workload once per seed 1..runs, interleaved; return
    {workload: {metric: [values]}}."""
    workloads = [w["name"] for w in bench["workloads"]]
    names = [m["name"] for m in bench["end_to_end"]]
    values = {w: {name: [] for name in names} for w in workloads}
    for i in range(runs):
        seed = i + 1
        for workload in workloads:
            result, context = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect answers {result}")
            for name in names:
                values[workload][name].append(result["metrics"][name]["value"])
            values_now = " ".join(f"{name}={values[workload][name][-1]:.4g}"
                                  for name in names)
            print(f"{label} run {i + 1}/{runs} {workload} seed {seed}: "
                  f"{values_now} | {context}", flush=True)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sets = [run_set(bench, args.runs, f"set {k + 1}") for k in range(SETS)]

    steady = True
    for workload in sets[0]:
        print(f"\n{workload} ({args.runs} runs per set, seeds 1..{args.runs})")
        print(f"  {'metric':16s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'worse':>8s} {'bound':>6s}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, values in enumerate(sets):
                q1, med, q3 = statistics.quantiles(values[workload][name], n=4)
                spread = (q3 - q1) / med
                verdicts = []
                if name != "setup_s" and spread >= bound / 3:
                    verdicts.append("WIDE")
                if first is None:
                    first, worse = med, ""
                else:
                    # How much worse the second set's median is.
                    change = (med - first) / first
                    if metric["better"] == "higher":
                        change = -change
                    worse = f"{change:8.2%}"
                    if change > bound:
                        verdicts.append("DRIFT")
                steady = steady and not verdicts
                print(f"  {name:16s} {k + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.2%} {worse:>8s} {bound:6.2f} "
                      f"{' '.join(verdicts) or 'ok'}")
    print("\nsteady" if steady else
          "\nnot steady: a spread reaches a third of its bound, or a median "
          "moved by more than its bound")


if __name__ == "__main__":
    main()
