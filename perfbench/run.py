#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run (the form BENCHMARK.json's "command" names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/perfbench.exe from the checkout with dune, runs it in a
pinned environment and prints its report; the last line of standard output
is the JSON result.  The command must be started from the root of the
repository.

Steadiness mode repeats every workload N times with distinct seeds,
alternating the workload order, and prints for each end-to-end metric the
median, the quartiles and the inter-quartile range relative to the median:

    python3 perfbench/run.py --steady N [--seconds S] [--workloads a,b]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["paper-table2", "sql-feed", "http-mixed"]
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    needed = ["dune-project", "BENCHMARK.json", "lib", "bench/workload.ml", "perfbench/dune"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("run from the root of a trigview checkout; missing: " + ", ".join(missing))


def pinned_env():
    """The caller's environment without TRIGVIEW_* and OCAMLRUNPARAM: every
    workload runs with the runtime's defaults (one domain)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TRIGVIEW_") and k != "OCAMLRUNPARAM"}
    # the build writes nowhere outside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(".bench_build", "cache"))
    return env


def build():
    os.makedirs(".bench_build", exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(BUILD_DIR),
           "./perfbench/perfbench.exe"]
    r = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=880)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def expected_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json names for the mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def select_metrics(computed, trace):
    """The metrics BENCHMARK.json names for the mode, out of every metric the
    run computed.  An end-to-end metric must be there; a per-layer metric of
    a layer the workload does not run reads 0."""
    selected = {}
    for name, unit in expected_metrics(trace):
        if name not in computed:
            if not trace:
                fail("the run computed no %s" % name)
            selected[name] = {"value": 0.0, "unit": unit}
            continue
        if computed[name]["unit"] != unit:
            fail("%s is in %s, BENCHMARK.json says %s" % (name, computed[name]["unit"], unit))
        selected[name] = computed[name]
    return selected


def run_once(workload, seed, seconds, trace):
    """Runs one measurement; returns (report lines, result line, result dict)."""
    wal_dir = os.path.join(".bench_build", "wal-%d" % os.getpid())
    shutil.rmtree(wal_dir, ignore_errors=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--wal-dir", wal_dir]
    try:
        r = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("%s exited with code %d" % (workload, r.returncode))
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no result line" % workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    result["metrics"] = select_metrics(result["metrics"], trace)
    return lines[:-1], json.dumps(result), result


def host_spin(lines):
    for line in lines:
        if line.startswith("# host.spin_ms"):
            return line.split(None, 2)[2]
    return "?"


def steady(n, seconds, workloads):
    values = {w: {} for w in workloads}
    bad = 0
    for i in range(n):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = 1000 + i
            t0 = time.time()
            lines, _, result = run_once(w, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                bad += 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %2d %-13s seed %d  %5.1fs  correct %s  spin %s" %
                  (i, w, seed, time.time() - t0, result["correct"], host_spin(lines)),
                  flush=True)
    print("\nper-run values, in run order:")
    for w in workloads:
        for name, vs in values[w].items():
            print("%-13s %-16s %s" % (w, name, " ".join("%.4g" % v for v in vs)))
    print("\n%-13s %-16s %12s %12s %12s %8s" % ("workload", "metric", "median", "q1", "q3",
                                                "iqr/med"))
    for w in workloads:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            rel = (q3 - q1) / med if med else float("nan")
            print("%-13s %-16s %12.5g %12.5g %12.5g %8.3f" % (w, name, med, q1, q3, rel))
    print("\nruns with failed checks: %d" % bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    check_checkout()
    if args.steady is None and (args.workload is None or args.seed is None):
        fail("--workload and --seed are required")
    build()
    if args.steady is not None:
        steady(args.steady, args.seconds, args.workloads.split(","))
        return
    lines, line, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    for report in lines:
        print(report)
    print(line)


if __name__ == "__main__":
    main()
