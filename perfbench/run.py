#!/usr/bin/env python3
"""Serving benchmark for libmant.

Builds the library from this checkout's sources together with the
benchmark program (perfbench/CMakeLists.txt, Release, into
.bench_build/perfbench), then runs one workload:

    python3 perfbench/run.py --workload longctx --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace-event file under .bench_build/). The last
line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--workload all runs every workload in turn and ends with a table of
every metric by workload. The benchmark was tuned on seeds below 1000;
seed 9173 (HELD_OUT_SEED) is held out for confirming later performance
claims on inputs no change was written against.

Run from the root of a checkout. Exits non-zero, printing no result,
when the sources are missing, the build fails, a correctness check
fails, or the build is not an optimized, unsanitized one.
"""

import argparse
import json
import os
import subprocess
import sys

HELD_OUT_SEED = 9173
WORKLOADS = ["longctx", "pressure"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "mant_perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing from %s; the benchmark builds libmant from "
                 "the checkout's sources" % (need, ROOT))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "mant_perfbench",
              "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", WORK_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.exit(code)

    results = {}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(w, args.seed, args.seconds, args.trace)
        worst = worst or code
        lines = out.strip().splitlines()
        if code == 0 and lines:
            results[w] = json.loads(lines[-1])
    names = []
    for r in results.values():
        for m in r["metrics"]:
            if m not in names:
                names.append(m)
    print("\n%-30s" % "metric" + "".join("%18s" % w for w in results))
    for m in names:
        row = "%-30s" % m
        for r in results.values():
            v = r["metrics"].get(m)
            row += "%18s" % ("%.6g %s" % (v["value"], v["unit"]) if v else "-")
        print(row)
    if worst:
        fail("a workload failed (exit code %d)" % worst, worst)


if __name__ == "__main__":
    main()
