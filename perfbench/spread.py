#!/usr/bin/env python3
"""Steadiness check of the benchmark: two sets of untraced runs per workload.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--sets 2] [--workload NAME ...]

Each set runs perfbench/run.py --runs times per workload, each run with its
own seed (set k uses seeds k*1000+1 ... k*1000+runs), for the run_seconds
BENCHMARK.json gives. For every end-to-end metric it prints, per set, the
median and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A workload
passes when every spread, setup_s's too, stays within the metric's bound
and no set's median is worse than the first set's by more than the bound.
Spreads above a third of the bound are marked "wide": within the bound,
but with little room for the host to drift.
Each set's line also gives the medians of run.py's host-load record (the
fault+touch rate of fresh memory, other processes' CPU share, steal), so a
set that ran on a slower host shows as such. Exits 1 if any workload
fails, 2 if a run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    for line in lines[:-1]:
        load = json.loads(line).get("host_load")
        if load:
            result["host_load"] = {
                "fault_touch_gbps": statistics.median(
                    load["fault_touch_gbps"]),
                "others_cpu_frac": load.get("others_cpu_frac", 0.0),
                "steal_frac": load.get("steal_frac", 0.0)}
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    status = 0
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                result = run_once(spec, workload, k * 1000 + i + 1)
                if result is None:
                    print(f"{workload}: run failed (set {k}, run {i})")
                    return 2
                runs.append(result)
            sets.append(runs)
        print(f"== {workload}")
        for k, runs in enumerate(sets):
            loads = [r["host_load"] for r in runs if "host_load" in r]
            if loads:
                print(f"  set {k} host: " + " ".join(
                    f"{key} {statistics.median(l[key] for l in loads):.4g}"
                    for key in loads[0]))
        ok = True
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            first_median = None
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                median = statistics.median(values)
                s = spread(values)
                if first_median is None:
                    first_median = median
                worse = (median - first_median) / first_median
                if metric["better"] == "higher":
                    worse = -worse
                good = worse <= bound and s <= bound
                ok = ok and good
                mark = " FAIL" if not good else (
                    " wide" if s > bound / 3 else "")
                cells.append(f"median {median:.6g} spread {s:.4f}"
                             f" worse {worse:+.4f}{mark}")
            print(f"  {name:20s} bound {bound:<5} " + " | ".join(cells))
            for runs in sets:
                print("    " + " ".join(f"{r['metrics'][name]['value']:.5g}"
                                        for r in runs))
        print(f"  {'pass' if ok else 'FAIL'}")
        if not ok:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
