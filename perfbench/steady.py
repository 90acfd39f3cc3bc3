#!/usr/bin/env python3
"""Repeat benchmark runs and report how steady each metric is.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--trace 0] [--first-seed 1000] [--json out.json] [--log runs.log]

Each workload runs --runs times, each time with the next seed. For every
metric it prints the median, the quartiles (Python's
statistics.quantiles(n=4)), the interquartile spread and the min/max spread
as shares of the median, and, for end-to-end metrics, the bound from
BENCHMARK.json and whether the interquartile spread stays under it and
under a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace, log):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if log:
        log.write(proc.stdout)
        log.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s\n%s" % (
            workload, seed, proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "minmax_share": (max(values) - min(values)) / med if med else 0.0,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--json", default="")
    ap.add_argument("--log", default="", help="append every run's full report to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    summary = {}
    log = open(args.log, "a") if args.log else None
    for wl in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = run_once(wl, seed, bench["run_seconds"], args.trace, log)
            if not out["correct"] or out["failed"]:
                raise SystemExit("%s seed %d: correct=%s failed=%d" % (wl, seed, out["correct"], out["failed"]))
            runs.append(out["metrics"])
            print("%s seed %d done" % (wl, seed), file=sys.stderr)
        summary[wl] = {}
        print("\n%s (%d runs, seeds %d..%d)" % (wl, args.runs, args.first_seed, args.first_seed + args.runs - 1))
        print("%-34s %12s %12s %12s %8s %8s %6s  %s" % ("metric", "median", "q1", "q3", "iqr", "minmax", "bound", "verdict"))
        for metric in sorted(runs[0]):
            vals = [r[metric]["value"] for r in runs]
            s = spread(vals)
            s["values"] = vals
            verdict = ""
            b = bounds.get(metric) if args.trace == 0 else None
            if b is not None:
                s["bound"] = b
                if metric == "setup_s":
                    verdict = "setup (spread not gated)"
                elif s["iqr_share"] <= b / 3:
                    verdict = "ok (< bound/3)"
                elif s["iqr_share"] <= b:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
            summary[wl][metric] = s
            print("%-34s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %6s  %s" % (
                metric, s["median"], s["q1"], s["q3"], 100 * s["iqr_share"], 100 * s["minmax_share"],
                "" if b is None else "%.0f%%" % (100 * b), verdict))
    if log:
        log.close()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
