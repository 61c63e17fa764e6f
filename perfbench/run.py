#!/usr/bin/env python3
"""End-to-end pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload road-diameter --seed 1 --seconds 30 --trace 0

Each run
  1. builds perfbench/ (its own CMake package over the library sources in
     src/) into .bench_build/, a no-op when up to date;
  2. generates the workload's inputs from --seed in a separate process,
     into a fresh directory under .bench_runs/ that is removed at exit;
  3. runs the measured process (pipeline_bench run) on those files with
     every GCLUS_* variable cleared, so no thread-count override, fault
     injection or dataset cache reaches it, and glibc's mmap threshold
     fixed (see clean_env);
  4. prints a readable report, then as the last line one JSON object with
     the keys correct, attempted, failed and metrics: the end-to-end
     metrics with --trace 0, the per-layer metrics with --trace 1.

A traced run also leaves its spans in .bench_traces/<workload>.json.
Exits 2 without a result when the library sources are missing or a step
fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("road-diameter", "social-kcenter", "serve-roads")
RUN_TIMEOUT_S = 170  # generation + measured process, after the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The measured process's environment: no GCLUS_* override reaches it,
    and glibc's mmap threshold is fixed.  Left dynamic, the threshold grows
    after the first large free, so whether later multi-MB buffers return to
    the OS depends on thread timing; that moved peak_rss_mb by 8% between
    runs of one input."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GCLUS_")}
    env["MALLOC_MMAP_THRESHOLD_"] = "1048576"
    return env


def build():
    """Configures and builds pipeline_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "graph", "io.hpp")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pipeline_bench",
                    "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr, timeout=880)
    return os.path.join(build_dir, "pipeline_bench")


def run_step(cmd, deadline):
    """Runs one child to completion (killed and reaped at `deadline`)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=clean_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    return out


def report(workload, seed, trace, result):
    info = result.get("info", {})
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print(f"  ops attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed'] / result['attempted']:.6g}  "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
    print("  " + "  ".join(f"{k}={v:g}" for k, v in info.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 2

    run_dir = os.path.join(ROOT, ".bench_runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", run_dir]
        run_step([binary, "gen"] + common, deadline)
        out = run_step([binary, "run"] + common +
                       ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       deadline)
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            traces = os.path.join(ROOT, ".bench_traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copyfile(os.path.join(run_dir, "trace.json"),
                            os.path.join(traces, f"{args.workload}.json"))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError,
            IndexError) as e:
        log(f"run.py: {args.workload} failed: {e}")
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report(args.workload, args.seed, args.trace, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
