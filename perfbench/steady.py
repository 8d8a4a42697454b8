#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread of
every metric against the benchmark's own bounds.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads batch_m512
    python3 perfbench/steady.py --sets 2             # two sets, compare medians
    python3 perfbench/steady.py --trace 1 --runs 3   # the per-layer ledger

Each run uses its own seed (first seed + run index; every set uses the same
seeds).  Per workload and metric it prints the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them), min and max, and
the spread: the distance between the quartiles as a share of the median;
then every run's value, so that a drift of the host over the runs shows.
With --trace 0 each spread is judged against the metric's bound in
BENCHMARK.json: "ok" below a third of the bound, "wide" below the bound,
"OVER" beyond it (setup_s is exempt from the spread rule).  With --sets 2
the wider of the two sets' spreads is judged, the second set's spread is
printed too, and so is how far the second set's median moved from the
first's in the worse direction.  The noisiest metric, the one with the largest
spread-to-bound ratio, is named at the end.  Exits 1 if a run failed or
reported incorrect output, or a spread or drift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, wall, proc.stderr


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default: all")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [w for w in args.workloads.split(",") if w]
    specs = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}

    bad = False
    noisiest = None
    for workload in names:
        sets = []
        for s in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = args.first_seed + i
                code, result, wall, err = run_once(bench, workload, seed, seconds, args.trace)
                ok = code == 0 and result is not None and result.get("correct") is True
                status = "ok" if ok else "FAILED (exit %d)" % code
                extra = ""
                if result is not None:
                    extra = " attempted %d failed %d" % (result["attempted"], result["failed"])
                print("%s set %d seed %d: %.1f s, %s%s" % (workload, s + 1, seed, wall, status, extra), flush=True)
                if not ok:
                    bad = True
                    sys.stderr.write(err[-2000:])
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)

        print("\n%s: %d runs x %d set(s), %d s each" % (workload, args.runs, args.sets, seconds))
        print("%-32s %13s %13s %13s %13s %13s %8s %6s %s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "verdict"))
        for name, spec in specs.items():
            vals = sets[0].get(name)
            if not vals:
                print("%-32s missing" % name)
                bad = True
                continue
            med, q1, q3, sp = spread(vals)
            # Judge the wider of the sets' spreads.
            sps = [spread(v[name])[3] for v in sets if v.get(name)]
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                if max(sps) < bound / 3:
                    verdict = "ok"
                elif max(sps) <= bound or name == "setup_s":
                    verdict = "wide"
                else:
                    verdict = "OVER"
                    bad = True
                ratio = max(sps) / bound
                if noisiest is None or ratio > noisiest[0]:
                    noisiest = (ratio, workload, name, max(sps), bound)
            if args.sets == 2 and bound is not None:
                med2 = statistics.median(sets[1][name])
                worse = (med2 - med) / med if spec["better"] == "lower" else (med - med2) / med
                verdict += " spread2 %.4f drift %+.4f%s" % (sps[-1], worse, " OVER" if worse > bound else "")
                bad = bad or worse > bound
            print("%-32s %13.6g %13.6g %13.6g %13.6g %13.6g %8.4f %6s %s" % (
                name, med, q1, q3, min(vals), max(vals), sp, "-" if bound is None else "%.3g" % bound, verdict))
        print("\nper-run values, in seed order:")
        for name in specs:
            for s, values in enumerate(sets):
                if name in values:
                    print("  %-30s set %d: %s" % (name, s + 1, " ".join("%.5g" % v for v in values[name])))
        print()

    if noisiest is not None:
        ratio, workload, name, sp, bound = noisiest
        print("noisiest: %s on %s, spread %.4f = %.2f of its bound %.3g" % (name, workload, sp, ratio, bound))
    return 1 if bad else 0


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("steady.py: run from the repository root (BENCHMARK.json not found)")
    sys.exit(main())
