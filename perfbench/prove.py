#!/usr/bin/env python3
"""Proves the benchmark steady, and records a held-out-seed baseline.

Runs the command of BENCHMARK.json from the repository root, once per seed,
at the run length BENCHMARK.json sets, and reports for every end-to-end
metric the median, the quartiles and the spread (interquartile distance as
a share of the median) next to the metric's bound.  A spread above its
bound fails the check; one above a third of its bound is flagged.

    python3 perfbench/prove.py --runs 10                   # seeds 1..10
    python3 perfbench/prove.py --runs 5 --workloads dse_sweep
    python3 perfbench/prove.py --held-out 101 202 --repeats 3 \\
        --record perfbench/BASELINE.json

`--held-out A B` runs every workload `--repeats` times on seed A (the
baseline) and as often on seed B (held out), alternating, and checks that
every end-to-end metric's median on B differs from its median on A, in
either direction, by no more than the metric's bound.  `--record` writes the figures, both seeds, nproc, the
build profile and the commit to a JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace=0):
    """One run; returns (metrics {name: value}, detail dict)."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]).get("detail", {})
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def change(base, new):
    """How far `new` moved from `base`, as a share of `base`."""
    return (new - base) / base


def spread_report(bench, workloads, seeds):
    ok = True
    report = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            metrics, _ = run_once(bench, workload, seed)
            runs.append(metrics)
            print(f"  {workload} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = summary([r[name] for r in runs])
            report[workload][name] = dict(s, values=[r[name] for r in runs])
            flag = ""
            if s["spread"] > bound:
                flag, ok = "OVER BOUND", False
            elif s["spread"] > bound / 3:
                flag = "above bound/3"
            print(f"{workload:11s} {name:15s} median {s['median']:14.6g}  spread {s['spread']:7.4f}"
                  f"  bound {bound:5.3f}  {flag}", flush=True)
    return ok, report


def held_out(bench, workloads, seed_a, seed_b, repeats):
    ok = True
    report = {}
    profile = "unknown"
    for workload in workloads:
        values = {seed_a: [], seed_b: []}
        for _ in range(repeats):
            for seed in (seed_a, seed_b):
                metrics, detail = run_once(bench, workload, seed)
                values[seed].append(metrics)
                profile = detail.get("profile", profile)
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = statistics.median(m[name] for m in values[seed_a])
            b = statistics.median(m[name] for m in values[seed_b])
            moved = change(a, b)
            agrees = abs(moved) <= metric["bound"]
            ok &= agrees
            report[workload][name] = {"baseline": a, "held_out": b, "change": moved, "agrees": agrees}
            print(f"{workload:11s} {name:15s} seed {seed_a}: {a:14.6g}  seed {seed_b}: {b:14.6g}"
                  f"  change {moved:+.4f} (bound {metric['bound']})  {'ok' if agrees else 'DISAGREES'}",
                  flush=True)
    return ok, report, profile


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--runs", type=int, help="spread check over seeds 1 .. RUNS")
    parser.add_argument("--held-out", nargs=2, type=int, metavar=("BASELINE_SEED", "HELD_OUT_SEED"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--record", help="write the figures to this JSON file")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    record = {"commit": commit(), "nproc": os.cpu_count(), "run_seconds": bench["run_seconds"]}
    ok = True
    if args.runs:
        seeds = list(range(1, args.runs + 1))
        spread_ok, report = spread_report(bench, workloads, seeds)
        ok &= spread_ok
        record["spread"] = {"seeds": seeds, "workloads": report}
    if args.held_out:
        held_ok, report, profile = held_out(bench, workloads, *args.held_out, args.repeats)
        ok &= held_ok
        record["profile"] = profile
        record["held_out"] = {"baseline_seed": args.held_out[0], "held_out_seed": args.held_out[1],
                              "repeats": args.repeats, "workloads": report}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print("steady and agreeing" if ok else "NOT within bounds")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
