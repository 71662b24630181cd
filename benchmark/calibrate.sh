#!/usr/bin/env bash
# Measures the run-to-run spread of every end-to-end metric and writes it to
# benchmark/baseline.json. The bounds in BENCHMARK.json are set from this
# output: each bound must stay above three times the largest spread.
#
#   benchmark/calibrate.sh                      # every workload, seeds "1 1 1 1 1 2"
#   SEEDS="1 2 3 4 5 6 7 8 9 10" benchmark/calibrate.sh point_lookup
#
# SEEDS lists one untraced run per entry (default: five passes of one seed
# plus one pass of a second); SECONDS_PER_RUN defaults to run_seconds of
# BENCHMARK.json; OUT defaults to benchmark/baseline.json.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "$@" <<'EOF'
import json
import os
import re
import statistics
import subprocess
import sys

config = json.load(open("BENCHMARK.json"))
workloads = sys.argv[1:] or [w["name"] for w in config["workloads"]]
seeds = os.environ.get("SEEDS", "1 1 1 1 1 2").split()
seconds = os.environ.get("SECONDS_PER_RUN", str(config["run_seconds"]))
out_path = os.environ.get("OUT", "benchmark/baseline.json")
bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

report = {}
for workload in workloads:
    runs = []
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", workload,
             "--seed", seed, "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last.startswith("{"):
            sys.exit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
        result = json.loads(last)
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "max_rel_dev": max(abs(v - median) for v in values) / median
            if median else 0.0,
            "values": values,
        }
    report[workload] = {
        "seeds": seeds,
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "metrics": metrics,
    }

print(f"\n{'workload':14} {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
      f"{'spread':>7} {'maxdev':>7} {'bound':>6}")
for workload, entry in report.items():
    for name, m in entry["metrics"].items():
        flag = "" if name == "setup_s" or m["spread"] < bounds.get(name, 1) / 3 else "  > bound/3"
        print(f"{workload:14} {name:24} {m['median']:12.5g} {m['q1']:12.5g} "
              f"{m['q3']:12.5g} {m['spread']:7.2%} {m['max_rel_dev']:7.2%} "
              f"{bounds.get(name, 0):6.2f}{flag}")

build_type = "unknown"
cache = ".bench_build/cmake/CMakeCache.txt"
if os.path.exists(cache):
    found = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", open(cache).read(), re.M)
    build_type = found.group(1) if found else build_type
with open(out_path, "w") as f:
    json.dump({"nproc": os.cpu_count(), "build_type": build_type,
               "run_seconds": float(seconds), "workloads": report}, f, indent=1)
    f.write("\n")
print(f"\nwrote {out_path}")
EOF
