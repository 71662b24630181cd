#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json names it).

Builds benchmark/ -- the idaa_bench binary, compiled together with the
library from src/ -- under .bench_build/, runs it, and prints the result
JSON of the workload as the last line of standard output:

  python3 benchmark/run.py --workload olap_report --seed 1 --seconds 10 --trace 0

--workload all runs every workload in one process; its last line then holds
every metric as "<workload>.<metric>". --self-test checks the harness.
Build output goes to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            # A session of its own, so a timeout stops the compilers too.
            proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    start_new_session=True)
        except OSError as err:
            print(f"build step failed: {err}", file=sys.stderr)
            return False
        try:
            if proc.wait(timeout=BUILD_TIMEOUT_S) != 0:
                return False
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"build exceeded {BUILD_TIMEOUT_S} s", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD_DIR, "idaa_bench")]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=BUILD_DIR, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write(err.stdout or "")
        print(f"idaa_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    results = {}
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            _, name, payload = line.split(" ", 2)
            results[name] = json.loads(payload)
        print(line)
    if args.self_test:
        return done.returncode
    if not results:
        print(f"idaa_bench exited {done.returncode} without a result",
              file=sys.stderr)
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if done.returncode == 0 and final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
