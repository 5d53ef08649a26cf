#!/usr/bin/env python3
"""Run the benchmark over many seeds and record its run-to-run spread.

From the repository root:

    python3 perfbench/spread.py --runs 10

runs every workload of BENCHMARK.json once per seed (untraced), then
writes perfbench/PROVENANCE.json: the machine (nproc, CPU model, Go
version, GOMAXPROCS per workload), every metric's values, median,
quartiles and spread (interquartile distance over the median, the
quantity the bounds in BENCHMARK.json are set against), and whether
every run was correct. It exits 1 if a run fails or any spread
exceeds its bound.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def go_version():
    try:
        out = subprocess.run(["go", "version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    m = re.search(r"gomaxprocs=(\d+)", proc.stderr)
    return result, int(m.group(1)) if m else None


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, seeds 1..runs")
    ap.add_argument("--out", default="perfbench/PROVENANCE.json")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, opts.runs + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {
        "command": " ".join(["python3", "perfbench/spread.py"] + sys.argv[1:]),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "go_version": go_version(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for name in names:
        rows, procs = [], None
        for seed in seeds:
            result, procs = run_once(bench["command"], name, seed, bench["run_seconds"])
            rows.append(result)
            print(f"{name} seed {seed}: " + json.dumps(result["metrics"]), flush=True)
        entry = {
            "gomaxprocs": procs,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in rows),
            "attempted": [r["attempted"] for r in rows],
            "metrics": {},
        }
        ok = ok and entry["all_correct"]
        for metric in bounds:
            s = summarize([r["metrics"][metric]["value"] for r in rows])
            s["bound"] = bounds[metric]
            entry["metrics"][metric] = s
            if s["spread"] > bounds[metric]:
                ok = False
            print(f"  {name:13s} {metric:17s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f} (bound {bounds[metric]})", flush=True)
        report["workloads"][name] = entry

    with open(opts.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
