#!/usr/bin/env python3
"""Repository benchmark: builds sunmt from source and measures one workload.

    python3 perfbench/run.py --workload http_keepalive --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first run configures and builds perfbench/ (which builds
../src) into .bench_build/. Then:

  --trace 0  launches the program LAUNCHES times, each measuring a window of
             --seconds / LAUNCHES after a quarter second of warm-up, and prints
             every end-to-end metric named in BENCHMARK.json: latency
             percentiles over the pooled samples of all launches, every
             other metric (setup_s too) as the median over the launches.
  --trace 1  launches it once untraced and once traced, each measuring
             --seconds / 2, and prints every per-layer metric of the traced
             launch; trace.overhead_pct compares the two throughputs. The
             traced spans of both processes are merged into
             .bench_build/traces/<workload>.json (Chrome trace JSON).

Human-readable lines (machine fingerprint, one line per launch, the pooled
p50/p95/p99 with their sample count, failed_ratio with its counts, failed
checks) come first; the last stdout line is the JSON result. The exit code
is 0 only when every check passed.
"""

import argparse
import array
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("http_keepalive", "http_churn", "forkjoin")
# Separate launches per untraced run. Single processes land in better or
# worse scheduling states (forkjoin's p99 flips between ~250 and ~470 us per
# launch on a 4-vCPU VM), so many short launches, pooled, give steadier
# figures than one long window.
LAUNCHES = 20
LAUNCH_TIMEOUT_S = 30  # beyond the window, per program launch


def metric_specs():
    """(end_to_end, per_layer) lists of {name, unit, ...} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build():
    """Configures (once) and builds the benchmark; returns the binaries' dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("sunmt sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "perfbench_program", "perfbench_loadgen",
                    "perfbench_selftest"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR


def shipped_env():
    """The environment without SUNMT_* knobs: the shipped defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SUNMT_")}


def nearest_rank(sorted_values, q):
    """The smallest sample with at least q of the samples at or below it."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def read_samples(path):
    """Reads and deletes a launch's raw int64 latency samples (ns)."""
    samples = array.array("q")
    if os.path.isfile(path):
        with open(path, "rb") as f:
            samples.frombytes(f.read())
        os.remove(path)
    return samples


def run_program(bin_dir, workload, seed, window_ms, latency_out=None,
                trace_dir=None):
    """Runs the program once; returns (values, errors, texts)."""
    cmd = [os.path.join(bin_dir, "perfbench_program"), "--workload", workload,
           "--seed", str(seed), "--window-ms", str(window_ms),
           "--loadgen", os.path.join(bin_dir, "perfbench_loadgen")]
    if latency_out:
        os.makedirs(os.path.dirname(latency_out), exist_ok=True)
        cmd += ["--latency-out", latency_out]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    values, errors, texts = {}, [], {}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=shipped_env(), cwd=ROOT, text=True,
                              timeout=window_ms / 1000 + LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return values, ["program launch timed out"], texts
    for line in proc.stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key == "error":
            errors.append(rest)
            continue
        try:
            values[key] = float(rest)
        except ValueError:
            texts[key] = rest
    if proc.returncode != 0:
        errors.append("program exited with status %d" % proc.returncode)
    return values, errors, texts


def fingerprint(workload, seed, texts, values):
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "kernel": os.uname().release,
        "cpu_model": cpu_model,
        "build_type": BUILD_TYPE,
        "net_backend": texts.get("net_backend", ""),
        "pool_lwps": int(values.get("pool_lwps", 0)),
        "workload": workload,
        "seed": seed,
    }


def merge_traces(trace_dir, out_path):
    events = []
    for name in ("program.json", "loadgen.json"):
        path = os.path.join(trace_dir, name)
        if os.path.isfile(path):
            with open(path) as f:
                events += json.load(f)["traceEvents"]
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events}, f)


def measure(args, bin_dir):
    """Returns (metrics dict name -> value, attempted, failed, errors)."""
    errors = []
    attempted = failed = 0

    def launch(window_ms, latency_out=None, trace_dir=None):
        nonlocal attempted, failed
        values, errs, texts = run_program(bin_dir, args.workload, args.seed,
                                          window_ms, latency_out, trace_dir)
        attempted += int(values.get("attempted", 0))
        failed += int(values.get("failed", 0))
        errors.extend(errs)
        return values, texts

    # Traced: one untraced launch (the overhead baseline), one traced.
    untraced = 1 if args.trace else LAUNCHES
    window_ms = args.seconds * 1000 // (untraced + args.trace)
    runs = []
    texts = {}
    pooled = array.array("q")
    samples_path = os.path.join(BUILD_DIR, "samples", args.workload + ".bin")
    for _ in range(untraced):
        values, texts = launch(window_ms, latency_out=samples_path)
        runs.append(values)
        pooled.extend(read_samples(samples_path))
    metrics = {k: statistics.median(r.get(k, 0.0) for r in runs)
               for k in runs[0]}
    pooled = sorted(pooled)
    for q in (50, 95, 99):
        metrics["latency_p%d_us" % q] = nearest_rank(pooled, q / 100) / 1e3
    print("fingerprint: " + json.dumps(
        fingerprint(args.workload, args.seed, texts, metrics), sort_keys=True))
    for r in runs:
        print("%s launch: %.0f ops/s over %.2f s, p50 %.1f us, p99 %.1f us "
              "(%d samples), setup %.2f ms" % (
                  args.workload, r.get("throughput_ops_s", 0),
                  r.get("window_s", 0), r.get("latency_p50_us", 0),
                  r.get("latency_p99_us", 0), r.get("ops", 0),
                  1e3 * r.get("setup_s", 0)))
    print("%s: p50 %.1f us, p95 %.1f us, p99 %.1f us over %d pooled samples"
          % (args.workload, metrics["latency_p50_us"],
             metrics["latency_p95_us"], metrics["latency_p99_us"],
             len(pooled)))
    if args.trace:
        trace_dir = os.path.join(TRACE_DIR, args.workload)
        traced, _ = launch(window_ms, trace_dir=trace_dir)
        merged = os.path.join(TRACE_DIR, args.workload + ".json")
        merge_traces(trace_dir, merged)
        print("traced launch: %.0f ops/s; trace %s (%d spans dropped beyond "
              "the in-memory log)" % (traced.get("throughput_ops_s", 0),
                                      os.path.relpath(merged, ROOT),
                                      traced.get("spans_dropped", 0)))
        base = metrics.get("throughput_ops_s", 0)
        metrics = dict(traced)
        metrics["trace.overhead_pct"] = (
            100.0 * (base - traced.get("throughput_ops_s", 0)) / base
            if base > 0 else 0.0)
    print("failed_ratio %g (%d failed / %d attempted)" %
          (failed / attempted if attempted else 0.0, failed, attempted))
    return metrics, attempted, failed, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        end_to_end, per_layer = metric_specs()
        bin_dir = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print("perfbench: cannot build the benchmark: %s" % e, file=sys.stderr)
        return 2

    metrics, attempted, failed, errors = measure(args, bin_dir)
    wanted = per_layer if args.trace else end_to_end
    out = {}
    for spec in wanted:
        if spec["name"] not in metrics:
            errors.append("metric %s was not measured" % spec["name"])
            continue
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    if attempted < 1:
        # A run that never got to an op counts as one failed attempt.
        errors.append("no op was attempted")
        attempted = failed = 1
    for e in errors:
        print("check failed: " + e)
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
