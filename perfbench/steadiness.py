#!/usr/bin/env python3
"""Steadiness check for the PTQ serving benchmark.

Runs every workload of BENCHMARK.json repeatedly (one seed per run,
workloads interleaved so host-speed drift spreads over all of them) and
prints, per (workload, end-to-end metric): median, quartiles, min/max and
the spread (Q3 - Q1) / median, judged against the metric's bound (except
for SPREAD_NOT_GATED, below). With
--sets 2 it repeats the whole sweep and checks that the second median is
not worse than the first by more than the bound. Finally it suggests a
bound per metric: three times the widest spread seen, capped at 0.25.

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --workloads adhoc_miss --runs 5

Raw results go to .bench_build/steadiness.json (re-analyze with --load).
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAW = os.path.join(ROOT, ".bench_build", "steadiness.json")
# Metrics whose spread is printed and compared with the bound but does not
# decide the verdict; their bound still gates the agreement of two sets.
# setup_s: its run-to-run spread is the host's speed, not the program's.
# Five identical set-ups within one run range over 0.92-1.30 s, so the
# per-run median of five moves with the host's regime (measured spreads
# 0.08-0.27 over ten runs), and the acceptance procedure this tool mirrors
# gates every spread except setup_s's.
SPREAD_NOT_GATED = {"setup_s"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect result: %s seed %d" % (workload, seed))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    stolen = re.search(r"host CPU stolen ([0-9.]+)%", proc.stdout)
    if stolen:
        values["host_steal_pct"] = float(stolen.group(1))
    quiet = re.search(r"(\d+) blocks of [0-9.]+ s, (\d+) within the steal limit",
                      proc.stdout)
    if quiet:
        values["quiet_blocks"] = "%s/%s" % (quiet.group(2), quiet.group(1))
    probe = re.search(r'"host_speed_probe_ms": ([0-9.]+)', proc.stdout)
    if probe:
        values["host_probe_ms"] = float(probe.group(1))
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else math.inf}


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--load", action="store_true",
                        help="analyze the last raw results instead of running")
    parser.add_argument("--show-runs", action="store_true",
                        help="also list every run with the host CPU stolen")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in manifest["workloads"]])
    metrics = manifest["end_to_end"]

    if args.load:
        with open(RAW) as f:
            raw = json.load(f)
    else:
        raw = []  # raw[set][workload] = list of metric dicts
        for s in range(args.sets):
            runs = {w: [] for w in workloads}
            for i in range(args.runs):
                for w in workloads:
                    seed = args.seed_base + i
                    runs[w].append(run_once(w, seed, seconds))
                    print("set %d run %d %s seed %d done" % (s + 1, i + 1, w, seed),
                          file=sys.stderr, flush=True)
            raw.append(runs)
        os.makedirs(os.path.dirname(RAW), exist_ok=True)
        with open(RAW, "w") as f:
            json.dump(raw, f)

    if args.show_runs:
        names = [m["name"] for m in metrics]
        print("set workload      run steal%  quiet  probe " +
              " ".join("%12s" % n[:12] for n in names))
        for s_i, runs in enumerate(raw):
            for w, rows in runs.items():
                for i, r in enumerate(rows):
                    print("%3d %-13s %3d %6.2f %6s %6.4f " % (
                        s_i + 1, w, i, r.get("host_steal_pct", -1),
                        r.get("quiet_blocks", "?"), r.get("host_probe_ms", -1))
                          + " ".join("%12.5g" % r[n] for n in names))
        print()

    widest = {}
    all_ok = True
    print("%-13s %-20s %11s %11s %11s %11s %11s %7s %6s %s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max", "spread",
        "bound", "verdict"))
    for w in raw[0]:
        for m in metrics:
            name = m["name"]
            sets = [summarize([r[name] for r in runs[w]]) for runs in raw]
            s = sets[0]
            bound = m["bound"]
            spreads = [x["spread"] for x in sets]
            widest[name] = max([widest.get(name, 0.0)] + spreads)
            ok = max(spreads) <= bound
            if name in SPREAD_NOT_GATED:
                verdicts = ["spread %s, not gated" % ("ok" if ok else "too wide")]
            else:
                all_ok &= ok
                verdicts = ["spread %s" % ("ok" if ok else "TOO WIDE")]
            if ok and max(spreads) > bound / 3:
                verdicts.append("(above bound/3)")
            if len(sets) == 2:
                d = worse_by(sets[0]["median"], sets[1]["median"], m["better"])
                ok = d <= bound
                all_ok &= ok
                verdicts.append("sets agree (%+.3f)" % d if ok else
                                "SETS DISAGREE (%+.3f)" % d)
            print("%-13s %-20s %11.5g %11.5g %11.5g %11.5g %11.5g %7.3f %6s %s" % (
                w, name[:20], s["median"], s["q1"], s["q3"], s["min"], s["max"],
                s["spread"], "%.2f" % bound,
                " ".join(verdicts)))
    print("\nsuggested bounds (3 x widest spread, capped at 0.25):")
    for name, spread in widest.items():
        print("  %-20s widest spread %.3f -> %.2f" % (
            name, spread, min(0.25, math.ceil(300 * spread) / 100)))
    print("\nverdict: %s" % ("steady" if all_ok else "NOT steady"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
