#!/usr/bin/env python3
"""Writes one row of the perf ledger, BENCH_<pr>.json.

Usage, from the repository root:

    python3 tools/bench_ledger.py --pr <n> --label change
    python3 tools/bench_ledger.py --pr <n> --label parent --checkout ../parent

Runs perfbench/run.py of the checkout (default: this repository) on every
workload BENCHMARK.json declares, once with --trace 0 (the end-to-end
metrics) and once with --trace 1 (the per-layer metrics), at the fixed
SEED and SECONDS below, so every row of every ledger runs the same input.
The row records the host, the compiler and build type perfbench built
with, the checkout's commit, and per workload the fingerprint, the
accounting, the calibration kernel's medians and both metric sets. The row
replaces the file's row with the same label, or is appended, in
BENCH_<pr>.json at the repository root. Comparing two rows is a
before/after measurement only when both were taken on the same host.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1800
# The one input every ledger row runs: perfbench's seed and simulated length.
SEED = 1
SECONDS = 10.0


def git(checkout, *args):
    result = subprocess.run(["git", "-C", checkout] + list(args),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, check=False)
    return result.stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host():
    return {"cpu": cpu_model(), "logical_cpus": os.cpu_count(),
            "os": "%s %s" % (platform.system(), platform.release()),
            "machine": platform.machine()}


def build_info(checkout):
    """Compiler and build type from the CMake cache run.py configured."""
    cache = os.path.join(checkout, ".bench_build", "perfbench",
                         "CMakeCache.txt")
    values = {}
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                match = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):"
                                 r"\w+=(.*)", line)
                if match:
                    values[match.group(1)] = match.group(2).strip()
    compiler = values.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        result = subprocess.run([compiler, "--version"],
                                stdout=subprocess.PIPE, text=True,
                                check=False)
        version = result.stdout.splitlines()[0] if result.stdout else ""
    return {"compiler": version or compiler or "unknown",
            "build_type": values.get("CMAKE_BUILD_TYPE", "unknown")}


def kernel_medians(lines):
    """Calibration kernel medians (ms) from the harness summary lines."""
    medians = {}
    for line in lines:
        traced = re.search(r"calibration kernel median: (.*)$", line)
        if traced:
            for arm, ms in re.findall(r"([a-z][a-z ]*?) ([\d.]+) ms",
                                      traced.group(1)):
                medians[arm.strip().replace(" ", "_")] = float(ms)
            continue
        untraced = re.search(r"calibration kernel median ([\d.]+) ms", line)
        if untraced:
            medians["untraced"] = float(untraced.group(1))
    return medians


def run(checkout, workload, trace):
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    print("running: " + " ".join(command), file=sys.stderr)
    result = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                            text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        sys.exit("perfbench failed on %s --trace %d" % (workload, trace))
    report = json.loads(lines[-1])
    fingerprints = [line.split()[1] for line in lines
                    if line.startswith("fingerprint ")]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fingerprint": fingerprints[0] if fingerprints else None,
        "kernel_median_ms": kernel_medians(lines[:-1]),
        "metrics": {name: metric["value"]
                    for name, metric in report["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="names the file, BENCH_<pr>.json")
    parser.add_argument("--label", required=True,
                        help="the row's name, e.g. parent or change")
    parser.add_argument("--checkout", default=ROOT,
                        help="tree whose perfbench/run.py runs")
    args = parser.parse_args()
    checkout = os.path.abspath(args.checkout)

    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    row = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(checkout, "status", "--porcelain",
                                        "--untracked-files=no")),
        "seed": SEED,
        "seconds": SECONDS,
        "host": host(),
        "workloads": {},
    }
    for workload in workloads:
        untraced = run(checkout, workload, 0)
        traced = run(checkout, workload, 1)
        row["workloads"][workload] = {
            "fingerprint": untraced["fingerprint"],
            "correct": untraced["correct"] and traced["correct"] and
                       untraced["fingerprint"] == traced["fingerprint"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "kernel_median_ms": {"trace0": untraced["kernel_median_ms"],
                                 "trace1": traced["kernel_median_ms"]},
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
    row.update(build_info(checkout))

    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    ledger = {"pr": args.pr, "rows": []}
    if os.path.exists(out):
        with open(out) as f:
            ledger = json.load(f)
    ledger["rows"] = [r for r in ledger["rows"] if r["label"] != args.label]
    ledger["rows"].append(row)
    with open(out + ".tmp", "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(out + ".tmp", out)
    print("wrote row %r to %s" % (args.label, out))


if __name__ == "__main__":
    main()
