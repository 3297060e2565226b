#!/usr/bin/env python3
"""End-to-end benchmark of dkc (see perfbench/README.md).

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and with it the library, from the repository's sources)
in Release under .bench_build/perfbench, runs one workload in its own
process, and passes its output through: every metric by name and unit, and
as the last line one JSON object with the keys correct, attempted, failed
and metrics. --workload all runs every workload, one process each, and ends
with one JSON line whose metric names are prefixed by the workload.

Exits 0 only if the build succeeded and every output passed its check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dkc_perfbench")
WORKLOADS = ["solve-dense", "serve-steady"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no dkc sources next to {HERE}; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "dkc_perfbench", "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}")


def run_workload(workload, args):
    work_dir = os.path.join(BUILD, f"run-{os.getpid()}-{workload}")
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", work_dir]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, f"spans-{workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        code, lines, result = run_workload(args.workload, args)
        print("\n".join(lines), flush=True)
        if result is None:
            fail(f"{args.workload} printed no result", 1)
        sys.exit(code if code else (0 if result["correct"] else 1))

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines, result = run_workload(workload, args)
        print(f"== {workload}")
        print("\n".join(lines[:-1]), flush=True)
        if result is None:
            fail(f"{workload} printed no result", 1)
        combined["correct"] &= code == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
