#!/usr/bin/env python3
"""Steadiness report for the pipeline benchmark.

Runs perfbench/run.py untraced once per seed 1..10 on every workload and
prints for each end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.  Run from the checkout
root:

    python3 perfbench/steadiness.py

The bounds in BENCHMARK.json are set from this report: each end-to-end
spread should stay below a third of its bound.  The progress lines on
stderr give each run's wall time, which with run count sizes run_seconds.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for wl in (w["name"] for w in spec["workloads"]):
        values = {}
        failed = 0
        for seed in SEEDS:
            cmd = list(spec["command"]) + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, check=True).stdout
            wall = time.monotonic() - t0
            result = json.loads(out.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        print(f"\n### {wl} (seeds {SEEDS.start}-{SEEDS.stop - 1}, "
              f"failed ops {failed})\n")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{bounds[name]} |")
        sys.stdout.flush()
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
