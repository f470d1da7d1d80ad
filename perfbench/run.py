#!/usr/bin/env python3
"""Run one workload of the Curb benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark driver (perfbench/, compiled together with the library
sources in src/) into .bench_build/perfbench, then runs it with every CURB_*
variable removed from its environment, so ambient settings cannot change the
measured program. The last line of standard output is the result object; the
line before it ("perfbench-detail ...") holds sample counts, ratio bases and
the exact virtual results. Exits non-zero when the build fails, the run fails,
or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "curb-perfbench"
# BENCHMARK.json runs the first two; reassign stays runnable by hand (see
# README.md for why it is not part of the benchmark).
WORKLOADS = ("pktin_parallel", "pktin_signed", "reassign")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure (once) and build the driver; build output goes to stderr.
    Compiler temporaries stay inside the build tree."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**clean_env(), "TMPDIR": str(tmp)}
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CURB_")}


def run_driver(args, timeout=RUN_TIMEOUT_S):
    """Run the built driver; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(BINARY), *args], env=clean_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout.splitlines()


def parse_output(lines):
    """Split driver output into (detail dict, result dict)."""
    if len(lines) < 2 or not lines[-2].startswith("perfbench-detail "):
        raise ValueError("driver output lacks the detail and result lines")
    detail = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    return detail, result


def check_against_earlier_runs(workload, seed, virtual):
    """Host-independence across runs: the exact virtual results (genesis hash
    included) of a workload and seed must match every earlier run in this
    build tree, traced or not. A mismatch is reported on stderr."""
    record = BUILD_DIR / "virtual" / f"{workload}-{seed}.json"
    if record.is_file():
        earlier = json.loads(record.read_text())
        if earlier != virtual:
            print(f"perfbench: {workload} seed {seed} differs from an earlier run: "
                  f"{virtual} vs {earlier}", file=sys.stderr)
        return
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(virtual, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        driver_args += ["--profile-out",
                        str(BUILD_DIR / f"profile-{args.workload}-{args.seed}.folded")]
    try:
        code, lines = run_driver(driver_args)
        detail, _ = parse_output(lines)
        check_against_earlier_runs(args.workload, args.seed, detail["virtual"])
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 4
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
