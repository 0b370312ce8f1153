#!/usr/bin/env python3
"""PTQ serving benchmark: builds ptq_bench from source, runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table3_hot --seed 1 --seconds 10 --trace 0

The library and the benchmark are configured in Release into
.bench_build/perfbench (the first run builds; later runs only check that
the build is current). The binary's report is passed through, then a
context line and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A build failure, a crash, a timeout or a
metric set that does not match BENCHMARK.json exits non-zero without
printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "ptq_bench")
# A run must end within 180 s; the measured phase is --seconds of it.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures (once) and builds ptq_bench; cmake's output goes to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "system.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources missing (%s): run from a full checkout" % needed)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ptq_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            if os.path.isfile(p):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    expected = {m["name"]: m["unit"] for m in
                manifest["per_layer" if args.trace else "end_to_end"]}

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ptq_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("ptq_bench exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("ptq_bench printed no result line")
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(expected) - set(got)),
                           sorted(set(got) - set(expected)),
                           sorted(n for n in expected if n in got and got[n] != expected[n])))
    for line in lines[:-1]:
        print(line)
    try:
        loadavg = " ".join(f"{x:.2f}" for x in os.getloadavg())
    except OSError:
        loadavg = "unknown"
    print("run: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "load_average_after": loadavg,
        "git_revision": git_revision(), "source_digest": source_digest(),
        "wall_s": round(time.monotonic() - started, 3)}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
