#!/usr/bin/env python3
"""Build and run the Omniware serving benchmark.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload warm_short --seed 1 --seconds 10 --trace 0

builds perfbench/ (and through it the libraries under src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
untraced driver (--trace 0) or the layer-traced driver (--trace 1), and
passes its output through. The last stdout line is the JSON result.

Spread mode runs every workload N times, each with another seed, and prints
each metric's median, quartiles and spreads against BENCHMARK.json's bounds:

    python3 perfbench/run.py --spread 5 [--workloads warm_spec,l2_spill]
                             [--seconds 10] [--trace 0] [--first-seed 1]
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_short", "warm_spec", "cold_churn", "l2_spill"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once and builds both drivers; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources next to perfbench/ (src/ missing)")
        sys.exit(2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
                log("perfbench: cmake configure failed")
                sys.exit(3)
        cmd = ["cmake", "--build", bdir, "-j", "3",
               "--target", "perfbench", "perfbench_traced"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed")
            sys.exit(3)
    return bdir


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}


def run_once(bdir, workload, seed, seconds, trace, echo):
    """Runs one workload; returns the parsed result or exits on failure."""
    exe = os.path.join(bdir, "perfbench_traced" if trace else "perfbench")
    workdir = os.path.join(bdir, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        sys.exit(4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        log("perfbench: run failed (exit %d)" % proc.returncode)
        sys.exit(proc.returncode or 5)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        sys.exit(5)
    declared = declared_metrics(trace)
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != declared:
        log("perfbench: metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(declared.items())))
        sys.exit(5)
    for line in lines:
        if line.startswith("harness: probe_ms="):
            result["probe_ms"] = float(line.split()[1].split("=")[1])
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    else:
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
    return result


def spread(args, bdir):
    bench = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    steady = True
    for wl in workloads:
        values = {}
        for i in range(args.spread):
            seed = args.first_seed + i
            res = run_once(bdir, wl, seed, seconds, args.trace, echo=False)
            if not res["correct"] or res["failed"]:
                log("perfbench: %s seed %d was not correct" % (wl, seed))
                steady = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("  seed %-4d probe_ms %7.2f  %s" % (
                seed, res.get("probe_ms", 0), "  ".join(
                    "%s=%.5g" % (n, m["value"])
                    for n, m in res["metrics"].items())), flush=True)
        print("== %s: %d runs, seeds %d..%d" % (
            wl, args.spread, args.first_seed, args.first_seed + args.spread - 1))
        print("  %-28s %12s %12s %12s %9s %9s %6s" % (
            "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], 0, vals[0])
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound / 3:
                flag = "  WIDE"
                steady = False
            print("  %-28s %12.5g %12.5g %12.5g %9.4f %9.4f %6s%s" % (
                name, med, q1, q3, iqr, rng,
                "-" if bound is None else bound, flag))
        sys.stdout.flush()
    return 0 if steady else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spread", type=int, default=0,
                    help="run each workload N times and report spreads")
    ap.add_argument("--workloads", default="",
                    help="comma-separated workloads for --spread")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if not args.spread and not args.workload:
        ap.error("--workload is required")
    bdir = build()
    if args.spread:
        return spread(args, bdir)
    run_once(bdir, args.workload, args.seed, args.seconds or 10,
             args.trace, echo=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
