#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

    python3 perfbench/smoke_test.py

Builds the benchmark, runs the arithmetic self-test (percentiles, span self
time), then runs every workload briefly, untraced and traced, and checks
that:
  * every metric BENCHMARK.json names is printed with its unit;
  * failed_ratio is 0 and the run reports itself correct;
  * the traced counts keep the workloads apart (threads created per op of
    0 / 1 / 64, cache hit ratio, no net parks on forkjoin);
  * the traced run leaves a Chrome trace JSON with spans of both processes;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when all checks hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(HERE, "run.py")

sys.dont_write_bytecode = True  # importing run.py leaves no __pycache__
sys.path.insert(0, HERE)
import run as run_py  # noqa: E402

# Traced-run counts that show the workloads exercise different layers:
# (metric, lowest, highest) per workload.
SEPARATION = {
    "http_keepalive": [("core.threads_created_per_op", 0, 0),
                       ("http.cache_hit_ratio", 0.99, 1.0)],
    "http_churn": [("core.threads_created_per_op", 0.98, 1.02),
                   ("http.cache_hit_ratio", 0.0, 0.05)],
    "forkjoin": [("core.threads_created_per_op", 63.5, 64.5),
                 ("net.parks_per_op", 0, 0)],
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and bool(lines), label + " exits 0")
            if not lines:
                print(proc.stderr[-3000:])
                continue
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, label + " is correct, 0 failed")
            check(any(l.startswith("failed_ratio 0 (0 failed / ")
                      for l in lines), label + " prints failed_ratio 0")
            check(any(l.startswith("fingerprint: ") for l in lines),
                  label + " prints the machine fingerprint")
            got = result["metrics"]
            missing = [n for n, u in units[trace].items()
                       if got.get(n, {}).get("unit") != u]
            check(not missing and set(got) == set(units[trace]),
                  label + " prints every metric with its unit" +
                  (" (missing %s)" % missing if missing else ""))
            if trace == 0:
                check(all(got[n]["value"] > 0 for n in units[0] if n in got),
                      label + " end-to-end metrics are all nonzero")
                continue
            for name, lo, hi in SEPARATION[workload]:
                v = got.get(name, {}).get("value", -1)
                check(lo <= v <= hi, "%s %s = %g in [%g, %g]" %
                      (label, name, v, lo, hi))
            trace_file = os.path.join(BUILD_DIR, "traces", workload + ".json")
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
            pids = {e["pid"] for e in events if e.get("ph") == "X"}
            want = 1 if workload == "forkjoin" else 2
            check(len(pids) >= want, label + " trace holds spans of %d "
                  "process(es)" % want)

        if workload == spec["workloads"][0]["name"]:
            selftest = subprocess.run(
                [os.path.join(BUILD_DIR, "perfbench_selftest")],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            check(selftest.returncode == 0,
                  "percentile and self-time arithmetic (perfbench_selftest)")
            if selftest.returncode != 0:
                print(selftest.stdout)
            one_to_100 = list(range(1, 101))
            check(run_py.nearest_rank(one_to_100, 0.50) == 50 and
                  run_py.nearest_rank(one_to_100, 0.99) == 99 and
                  run_py.nearest_rank([7], 0.99) == 7 and
                  run_py.nearest_rank([], 0.5) == 0,
                  "pooled percentile arithmetic (run.nearest_rank)")

    # Without the sources next to it the benchmark must fail, not report.
    bare = os.path.join(BUILD_DIR, "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("forkjoin", 0, cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test: %s" % ("passed" if not failures else
                              "%d check(s) failed" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
