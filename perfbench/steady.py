#!/usr/bin/env python3
"""Steadiness check for the GSTM benchmark.

Runs two sets of repeated runs per workload (each run with its own seed),
prints every end-to-end metric's median and quartiles per set, its spread
(interquartile distance over the median) and whether the two sets agree
within the bound BENCHMARK.json gives it. One traced run per workload
gives the tracing overhead: its traced throughput and latency against the
untraced medians.

    python3 perfbench/steady.py                      # all workloads, 2 x 10 runs
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads ledger-tl2

Run from the repository root. Exits 1 when a set disagrees or a spread is
over its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    header = next((l for l in lines if l.startswith("# perfbench ")), "")
    result = json.loads(lines[-1])
    rss = [float(l.split()[-1]) for l in lines if l.startswith("# peak_rss_mb ")]
    result["peak_rss_mb"] = rss[0] if rss else float("nan")
    return result, header, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for _ in range(args.runs):
                result, header, wall = run_once(bench, workload, seed, args.seconds, 0)
                seed += 1
                if not result["correct"]:
                    ok = False
                    print(f"{workload}: run with seed {seed - 1} failed its output checks")
                results.append((result, wall))
            sets.append(results)
        print(f"\n== {workload}  ({header[2:]})")
        print(f"   run wall time: max {max(w for r in sets for _, w in r):.1f} s")
        shares = [sum(r["failed"] for r, _ in rs) / sum(r["attempted"] for r, _ in rs) for rs in sets]
        print(f"   failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
        medians = {}
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            row = []
            for i, rs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r, _ in rs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                flag = "" if spread <= bound else "  OVER BOUND"
                if flag:
                    ok = False
                row.append(f"set{i + 1} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{flag}")
                medians.setdefault(name, []).append(med)
            agree = ""
            if len(sets) > 1:
                # Two-sided: a second set better by more than the bound
                # disagrees just as one worse by more does.
                a, b = medians[name][0], medians[name][1]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                agrees = abs(worse) <= bound
                agree = f"  second vs first {worse:+.3f} ({'agree' if agrees else 'DISAGREE'})"
                ok &= agrees
            print(f"   {name:<18} bound {bound:<5} " + " | ".join(row) + agree)
        rss = [r["peak_rss_mb"] for rs in sets for r, _ in rs]
        q1, med, q3 = quartiles(rss) if len(rss) > 1 else (rss[0],) * 3
        print(f"   peak RSS (not bounded): median {med:.1f} MB, q1 {q1:.1f}, q3 {q3:.1f}")
        traced, _, _ = run_once(bench, workload, seed, args.seconds, 1)
        seed += 1
        for e2e, tr in [("throughput_per_s", "trace.throughput_per_s"), ("latency_p50_us", "trace.latency_p50_us")]:
            base = statistics.median(medians[e2e])
            value = traced["metrics"][tr]["value"]
            print(f"   tracing overhead on {e2e}: traced {value:.6g} vs untraced median {base:.6g} ({(value - base) / base:+.3f})")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
