#!/usr/bin/env python3
"""Builds and runs the IBBE-SGX real-stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
program's sources and the perfbench binary into .bench_build/perfbench;
later runs only check the build is current.

NAME is one of the workloads in BENCHMARK.json, or "all" to run each in turn.
--trace 0 prints the end-to-end metrics of untraced runs; --trace 1 prints the
per-layer metrics of a traced run (spans are written under .bench_build).
Every metric is printed as "name value unit"; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is 0 only when every op succeeded, every
correctness check held and the metrics printed are exactly the ones
BENCHMARK.json names.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=840)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return [w["name"] for w in spec["workloads"]], {m["name"]: m for m in group}


def check_result(result, expected, trace):
    """Problems with one workload's result line, as strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    metrics = result["metrics"]
    for name in metrics:
        if not NAME.match(name):
            problems.append("invalid metric name %r" % name)
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append("missing metrics: %s" % ", ".join(missing))
    if extra:
        problems.append("unexpected metrics: %s" % ", ".join(extra))
    for name, m in metrics.items():
        if name not in expected:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % name)
        elif not trace and value == 0:
            problems.append("%s is 0" % name)
        if m.get("unit") != expected[name]["unit"]:
            problems.append("%s has unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), expected[name]["unit"]))
    if not result["correct"] or result["failed"] != 0:
        problems.append("%d of %d ops or checks failed"
                        % (result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def run_one(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.txt" % (workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("%s exited with status %d"
                           % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        names, expected = expected_metrics(args.trace)
        if args.workload != "all" and args.workload not in names:
            log("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
            return 2
        build()
        chosen = names if args.workload == "all" else [args.workload]
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        problems = []
        for workload in chosen:
            table, result = run_one(workload, args)
            for line in table:
                print(line if len(chosen) == 1 else "%-13s %s" % (workload, line))
            problems += ["%s: %s" % (workload, p)
                         for p in check_result(result, expected, args.trace)]
            if len(chosen) == 1:
                combined = result
                continue
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"]["%s.%s" % (workload, name)] = m
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    if problems:
        for p in problems:
            log("perfbench: %s" % p)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
