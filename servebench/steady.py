#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each with another seed, and prints for every end-to-end metric (the gated
ones from BENCHMARK.json and the report-only ones) its median, quartiles
and spread = (q3 - q1) / median, flagging a gated metric whose spread is
above a third of its bound. For each latency percentile it also prints the
request class the percentile fell in on each run and the smallest margin
to a class boundary (see `attribute` in servebench/src/main.rs).

    python3 servebench/steady.py --workloads fresh_analysts --seeds 1-5

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"run failed ({workload}, seed {seed}): {out.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="replay_pipelined,fresh_analysts,durable_writes")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values, classes, correct = {}, {}, True
        for seed in args.seeds:
            report, result = run_once(bench["command"], workload, seed, seconds)
            correct &= result["correct"] and result["failed"] == 0
            for name, m in report["end_to_end"].items():
                values.setdefault(name, []).append(m["value"])
            for name, c in report["percentile_classes"].items():
                classes.setdefault(name, []).append(c)
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"{workload}: {len(args.seeds)} runs, all correct: {correct}")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
        for name, vals in values.items():
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  <-- above bound/3"
                worst = max(worst, s / bound)
            gated = f"{bound}" if bound is not None else "report-only"
            print(f"  {name:26} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f}  {gated}{flag}")
        for name, cs in classes.items():
            names = sorted({c["class"] for c in cs})
            tiers = sorted({"+".join(c["tier"]) for c in cs})
            margin = min(c["margin"] for c in cs)
            print(f"  {name:26} class {'/'.join(names)} in tier {' or '.join(tiers)}; "
                  f"min margin to a tier boundary {margin:.3f} of the pool")
    if worst:
        print(f"some gated spread exceeds a third of its bound (worst {worst:.2f} x bound)")


if __name__ == "__main__":
    main()
