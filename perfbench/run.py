#!/usr/bin/env python3
"""Analyzer benchmark: trace file -> logical structure -> metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload lstrace-lulesh-250k --seed 1 \\
        --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (and with it the logstruct libraries from src/) into
.bench_build, generates the workload's input from --seed in a prepare
process, then runs untraced analyses, each in a fresh process, until
--seconds have passed (at least MIN_ANALYSES). After each analysis the
prepare process, still up, times one more set-up, so the set-up and the
analysis samples span the same stretch of time. analysis_s and setup_s
are the means of their samples. With --trace 1 one more, traced,
analysis follows and the per-layer figures are reported. The last line of stdout is the result JSON; everything else
goes before it or to stderr. See perfbench/README.md for the workloads
and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BUILD_DIR, "analyze_bench")

MIN_ANALYSES = 3      # untraced analyses per run, whatever --seconds says
STEP_TIMEOUT_S = 150  # per worker process
RUN_DEADLINE_S = 170  # a run, after the build, must end within 180 s
MIN_SPAN_COVERAGE = 0.95


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_contract():
    """Workload names and the metric units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no logstruct sources next to perfbench/")
    steps = [["cmake", "--build", BUILD_DIR, "--target", "analyze_bench",
              "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def worker(args):
    """Run one worker process; return its JSON stdout lines, parsed."""
    done = subprocess.run([WORKER] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=STEP_TIMEOUT_S)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if done.returncode != 0 or not lines:
        raise BenchError("worker failed: " + " ".join(args))
    return [json.loads(line) for line in lines]


class SetUp:
    """The prepare process. It makes the inputs, then stays up and times
    one more set-up each time rep() asks; close() ends it."""

    def __init__(self, args):
        self.proc = subprocess.Popen([WORKER] + args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True)
        try:
            self.prepared = self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line.startswith("{"):
            raise BenchError("prepare failed")
        return json.loads(line)

    def rep(self):
        self.proc.stdin.write("rep\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        """Close stdin, so the process cleans up and exits; wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        return self.proc.returncode


def run(workload, seed, seconds, traced, perturb=False):
    """One benchmark run. Returns (result dict, info line)."""
    _, e2e_units, layer_units = load_contract()
    run_id = "%s-seed%d-%d-%d" % (workload, seed, os.getpid(),
                                  int(time.time()))
    work = os.path.join(WORK_DIR, run_id)
    os.makedirs(work)
    setup = None
    signal.alarm(RUN_DEADLINE_S)
    try:
        common = ["--workload=" + workload, "--dir=" + work]
        setup = SetUp(["--mode=prepare", "--seed=%d" % seed] + common)
        prep = setup.prepared
        analyze = ["--mode=analyze"] + common
        if perturb:
            analyze.append("--perturb-reference")

        outs, reps = [], []
        start = time.monotonic()
        while (len(outs) < MIN_ANALYSES or
               time.monotonic() - start < seconds):
            outs.append(worker(analyze)[-1])
            reps.append(setup.rep())
        if traced:
            spans_dir = os.path.join(WORK_DIR, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            lines = worker(analyze + [
                "--traced", "--run-id=" + run_id,
                "--spans=" + os.path.join(spans_dir, run_id + ".json")])
            layers, traced_out = lines[0]["layers"], lines[-1]
        code, setup = setup.close(), None
        if code != 0:
            raise BenchError("prepare exited with %d" % code)
    finally:
        signal.alarm(0)
        if setup is not None:
            setup.close()
        shutil.rmtree(work, ignore_errors=True)

    every = outs + ([traced_out] if traced else [])
    attempted = len(every)
    passed = sum(o["passed"] for o in every)
    counts = {(o["merges"], o["phases"], o["steps"]) for o in every}
    problems = sorted({o["problem"] for o in every} - {""})
    samples = [o["analysis_s"] for o in outs]
    analysis_s = statistics.mean(samples)
    setup_samples = [r["setup_s"] for r in reps]
    setup_s = statistics.mean(setup_samples)
    correct = passed == attempted and len(counts) == 1

    if traced:
        layers["apps.generate_s"] = prep["generate_s"]
        layers["trace.write_s"] = statistics.mean(r["write_s"] for r in reps)
        layers["storage.convert_s"] = statistics.mean(
            r["convert_s"] for r in reps)
        layers["storage.cache_budget_mb"] = outs[0]["cache_budget_mb"]
        layers["order.merges"] = traced_out["merges"]
        layers["order.phases"] = traced_out["phases"]
        layers["order.steps"] = traced_out["steps"]
        # The untraced samples behind analysis_s and setup_s: how many,
        # and their medians beside the means that the end-to-end metrics
        # report.
        layers["analysis.samples"] = len(samples)
        layers["analysis.median_s"] = statistics.median(samples)
        layers["setup.median_s"] = statistics.median(setup_samples)
        layers["obs.tracing_overhead_s"] = (
            traced_out["analysis_s"] - analysis_s)
        if layers["obs.span_coverage"] < MIN_SPAN_COVERAGE:
            correct = False
            problems.append("layer spans cover %.3f of the traced analysis"
                            % layers["obs.span_coverage"])
        values, units = layers, layer_units
    else:
        values = {
            "analysis_s": analysis_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
            "success_ratio": passed / attempted,
        }
        units = e2e_units
    missing = set(units) - set(values)
    if missing:
        raise BenchError("worker did not report: " + ", ".join(sorted(missing)))

    info = ("# %s seed=%d events=%d analyses=%d analysis_s=[%s] setup_s=[%s]"
            " cache_budget_mb=%g cache_hit_ratio=%.4f%s"
            % (workload, seed, prep["events"], len(samples),
               " ".join("%.3f" % x for x in samples),
               " ".join("%.3f" % x for x in setup_samples),
               outs[0]["cache_budget_mb"],
               outs[0]["cache_hit_ratio"],
               "".join(" problem=%r" % p for p in problems)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, info


def self_test():
    """Negative check: a perturbed reference must fail the output check."""
    workload = "lsblk-lulesh-tightcache"
    good, _ = run(workload, 1, 0, False)
    bad, info = run(workload, 1, 0, False, perturb=True)
    log(info)
    ok = (good["correct"] and good["metrics"]["success_ratio"]["value"] == 1
          and not bad["correct"]
          and bad["metrics"]["success_ratio"]["value"] < 1)
    print("self-test %s: success_ratio %g clean, %g with a perturbed "
          "reference" % ("ok" if ok else "FAILED",
                         good["metrics"]["success_ratio"]["value"],
                         bad["metrics"]["success_ratio"]["value"]))
    return 0 if ok else 1


def overran(signum, frame):
    raise BenchError("run did not end within %d s" % RUN_DEADLINE_S)


def main():
    try:
        workloads = load_contract()[0]
    except (OSError, ValueError, KeyError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that a wrong structure drops success_ratio")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    signal.signal(signal.SIGALRM, overran)
    try:
        build()
        if args.self_test:
            return self_test()
        result, info = run(args.workload, args.seed, args.seconds,
                           args.trace == 1)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(info)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
