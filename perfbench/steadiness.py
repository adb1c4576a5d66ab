#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs every workload N times per set, alternating the workload order from
round to round and giving each run its own seed, then prints for each
end-to-end metric its median and quartiles (normalised, and raw where
the benchmark reports a raw value), the spread (q3 - q1) / median against
the metric's bound, and — with two or more sets — how far each set's
median moved from the first set's.

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --runs 5 --workloads scale-1024

Run it from the repository root. Results are also written as JSON under
.bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Seeds run FIRST_SEED, FIRST_SEED + 1, ... across every set and workload.
FIRST_SEED = 100


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr}")
    result = json.loads(lines[-1])
    raw, host = {}, ""
    for line in lines:
        if line.startswith("raw "):
            raw = {k: v["value"] for k, v in json.loads(line[4:]).items()}
        if line.startswith("host: "):
            host = line
    return result, raw, host


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative: better)."""
    if not first:
        return 0.0
    delta = (second - first) / first
    return -delta if metric["better"] == "higher" else delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="independent sets to compare")
    ap.add_argument("--workloads", help="comma-separated subset")
    opts = ap.parse_args()
    if opts.runs < 2:
        sys.exit("--runs must be at least 2 for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = bench["end_to_end"]

    # sets[s][workload] = list of (metrics, raw)
    sets = [{w: [] for w in workloads} for _ in range(opts.sets)]
    seed = FIRST_SEED
    for s in range(opts.sets):
        for r in range(opts.runs):
            k = r % len(workloads)
            for w in workloads[k:] + workloads[:k]:
                result, raw, host = run_once(command, w, seed, seconds)
                if not result["correct"]:
                    sys.exit(f"{w} seed {seed}: incorrect result {result}")
                sets[s][w].append((result["metrics"], raw))
                print(f"set {s} run {r} {w} seed {seed}: "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics) + f"\n  {host}", flush=True)
                seed += 1

    report = {}
    steady = True
    print()
    print(f"{'workload':<14} {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6} {'raw median':>12} {'raw spread':>10}")
    for w in workloads:
        for m in metrics:
            name = m["name"]
            medians = []
            for s, runs in enumerate(sets):
                vals = [r[0][name]["value"] for r in runs[w]]
                q1, med, q3, spread = summary(vals)
                raws = [r[1][name] for r in runs[w] if name in r[1]]
                raw_med, raw_spread = (summary(raws)[1], summary(raws)[3]) if raws else (None, None)
                medians.append(med)
                ok = spread <= m["bound"]
                steady &= ok
                report.setdefault(w, {}).setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": m["bound"], "raw_median": raw_med, "raw_spread": raw_spread,
                     "values": vals})
                raw_cols = (f"{raw_med:>12.6g} {raw_spread:>10.4f}" if raws
                            else f"{'-':>12} {'-':>10}")
                flag = "" if ok else "  SPREAD > BOUND"
                print(f"{w:<14} {name:<18} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                      f" {spread:>8.4f} {m['bound']:>6} {raw_cols}{flag}")
            for s in range(1, len(medians)):
                moved = worse_by(m, medians[0], medians[s])
                ok = moved <= m["bound"]
                steady &= ok
                print(f"{'':<14} {name:<18} set {s} vs 0: worse by {moved:+.4f}"
                      f" (bound {m['bound']}){'' if ok else '  MOVED > BOUND'}")
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"steadiness-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\n{'steady' if steady else 'NOT steady'}; details in {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
