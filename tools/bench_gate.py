#!/usr/bin/env python3
"""Perf/memory regression gate over BENCH_pipeline.json trajectories.

Diffs two pipeline-trajectory runs (schema logstruct-bench-pipeline/v1
through /v7, see docs/OBSERVABILITY.md) pass-by-pass and fails when a
pass got substantially slower or hungrier:

    tools/bench_gate.py                       # last two runs in BENCH_pipeline.json
    tools/bench_gate.py FILE                  # last two runs in FILE
    tools/bench_gate.py BASE FRESH            # last run of BASE vs last run of FRESH
    tools/bench_gate.py --self-test           # verify the gate catches a 2x regression
                                              # and diagnoses missing/empty baselines

Comparison rules:
  * Only (workload, pass) pairs present in BOTH runs with `ran: true`
    are compared; each workload's `total_seconds` is compared as a
    pseudo-pass named `(total)`. Passes that exist on only one side are
    listed as informational rows, never failures (pipelines evolve).
  * Comparison is like-for-like per thread count: a workload's
    `threads` field (v3; absent means 1) is part of its identity, so a
    `threads=8` run is never judged against a `threads=1` baseline —
    and hardware-sized runs from machines with different core counts
    simply show up as informational rows.
  * Wall time is compared only when the base pass took at least
    --min-seconds (default 1 ms): short passes are timer noise.
  * alloc_bytes (v2 runs only) is compared when both sides carry it and
    the base allocated at least --min-alloc-bytes (default 1 MiB).
    Allocation counts are deterministic, so the floor is about
    relevance, not noise.
  * A workload's `peak_rss_kb` (v4 runs; the harness-measured resident
    growth of that workload) is compared as a pseudo-pass named
    `(peak_rss)` under the alloc thresholds — the out-of-core storage
    workloads rely on this to keep the blocked backend's footprint from
    regressing toward the mem backend's.
  * A pass FAILs above --fail-wall (default +25%) or --fail-alloc
    (default +30%), WARNs above --warn (default +10%). Improvements
    never fail.

Override knob: `--warn-only`, or the environment variable
BENCH_GATE_ALLOW_REGRESSION=1, demotes failures to warnings (exit 0)
while still printing the full table -- for landing a PR that knowingly
trades speed for something else. Record the justification in the run's
`label` field when you use it.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import sys
import tempfile


class TrajectoryError(Exception):
    """A trajectory file is missing, unreadable, or has no runs."""


def load_runs(path):
    """Load a trajectory file's `runs`; raise TrajectoryError with a
    actionable message (never a traceback) when the baseline is missing,
    malformed, or empty."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise TrajectoryError(
            f"{path} does not exist — record a baseline first with "
            "./build/bench/micro_pipeline --benchmark_filter=NOTHING "
            "(see docs/OBSERVABILITY.md)"
        )
    except OSError as e:
        raise TrajectoryError(f"cannot read {path}: {e.strerror or e}")
    except ValueError as e:
        raise TrajectoryError(f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        raise TrajectoryError(
            f"{path} is not a pipeline trajectory (no `runs` array); "
            "expected schema logstruct-bench-pipeline/v1..v7"
        )
    if not doc["runs"]:
        raise TrajectoryError(
            f"{path} has an empty `runs` array — the baseline was never "
            "recorded; rerun ./build/bench/micro_pipeline"
        )
    return doc["runs"]


def collect(run):
    """Flatten one run into {(workload, pass): (seconds, alloc_bytes|None)}.

    The workload key embeds its thread count (v3 schema; missing means
    1, matching v1/v2 serial-only runs), so only like-for-like thread
    counts are ever compared.
    """
    rows = {}
    for w in run.get("workloads", []):
        name = w.get("name", "?")
        threads = int(w.get("threads", 1))
        if threads != 1:
            name = f"{name} [threads={threads}]"
        total = w.get("total_seconds")
        if total is not None:
            rows[(name, "(total)")] = (float(total), None)
        rss = w.get("peak_rss_kb")
        if rss is not None and int(rss) > 0:
            # Gated through the alloc channel (deterministic-ish bytes);
            # seconds=0 keeps it below the wall floor.
            rows[(name, "(peak_rss)")] = (0.0, int(rss) * 1024)
        for p in w.get("passes", []):
            if not p.get("ran", False):
                continue
            alloc = p.get("alloc_bytes")
            rows[(name, p.get("pass", "?"))] = (
                float(p.get("seconds", 0.0)),
                int(alloc) if alloc is not None else None,
            )
    return rows


def fmt_delta(ratio):
    if ratio is None:
        return "—"
    return f"{ratio * 100.0:+.1f}%"


def fmt_seconds(s):
    return f"{s * 1e3:.3f}"


def compare(base_rows, fresh_rows, opts):
    """Return (table_rows, n_fail, n_warn). table_rows are markdown cells."""
    rows = []
    n_fail = n_warn = 0
    for key in sorted(set(base_rows) | set(fresh_rows)):
        workload, pname = key
        if key not in base_rows or key not in fresh_rows:
            if key in fresh_rows:
                cells = ["—", fmt_seconds(fresh_rows[key][0]), "fresh only"]
            else:
                cells = [fmt_seconds(base_rows[key][0]), "—", "base only"]
            rows.append(
                [workload, pname, cells[0], cells[1], "—", "—", cells[2]]
            )
            continue
        base_s, base_a = base_rows[key]
        fresh_s, fresh_a = fresh_rows[key]

        wall = None
        if base_s >= opts.min_seconds and base_s > 0:
            wall = fresh_s / base_s - 1.0
        alloc = None
        if (
            base_a is not None
            and fresh_a is not None
            and base_a >= opts.min_alloc_bytes
        ):
            alloc = fresh_a / base_a - 1.0

        status = "ok"
        if (wall is not None and wall > opts.fail_wall) or (
            alloc is not None and alloc > opts.fail_alloc
        ):
            status = "FAIL"
            n_fail += 1
        elif (wall is not None and wall > opts.warn) or (
            alloc is not None and alloc > opts.warn
        ):
            status = "warn"
            n_warn += 1
        elif wall is None and alloc is None:
            status = "below floor"
        rows.append(
            [
                workload,
                pname,
                fmt_seconds(base_s),
                fmt_seconds(fresh_s),
                fmt_delta(wall),
                fmt_delta(alloc),
                status,
            ]
        )
    return rows, n_fail, n_warn


def render(rows):
    header = [
        "workload",
        "pass",
        "base (ms)",
        "fresh (ms)",
        "wall Δ",
        "alloc Δ",
        "status",
    ]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for r in rows:
        lines.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(lines)


def run_label(run):
    label = run.get("label", "")
    return f"{run.get('program', '?')}" + (f" — {label}" if label else "")


def gate(base_run, fresh_run, opts):
    """Compare two runs; print the table; return the exit code."""
    rows, n_fail, n_warn = compare(collect(base_run), collect(fresh_run), opts)
    print(f"base:  {run_label(base_run)}")
    print(f"fresh: {run_label(fresh_run)}")
    print()
    print(render(rows))
    print()
    allow = opts.warn_only or os.environ.get(
        "BENCH_GATE_ALLOW_REGRESSION", ""
    ) not in ("", "0")
    if n_fail and allow:
        print(
            f"bench gate: {n_fail} failure(s), {n_warn} warning(s) — "
            "DEMOTED to warnings (--warn-only / "
            "BENCH_GATE_ALLOW_REGRESSION set)"
        )
        return 0
    if n_fail:
        print(
            f"bench gate: FAILED — {n_fail} regression(s) over "
            f"+{opts.fail_wall * 100:.0f}% wall / "
            f"+{opts.fail_alloc * 100:.0f}% alloc "
            f"({n_warn} warning(s)). Rerun to rule out noise; if the "
            "regression is intended, set BENCH_GATE_ALLOW_REGRESSION=1 "
            "and justify it in the run label."
        )
        return 1
    print(f"bench gate: ok ({n_warn} warning(s))")
    return 0


def synthetic_run(scale_wall=1.0, scale_alloc=1.0, scale_eff=1.0,
                  scale_rss=1.0, scale_causality=1.0,
                  scale_checksum=1.0, extra_threads=None):
    run = {
        "program": "self-test",
        "workloads": [
            {
                "name": "synthetic/w1",
                "events": 1000,
                "phases": 4,
                "total_seconds": 0.010 * scale_wall,
                "peak_rss_kb": int(50000 * scale_rss),
                "passes": [
                    {
                        "pass": "initial",
                        "seconds": 0.004 * scale_wall,
                        "alloc_bytes": int(8 << 20),
                        "ran": True,
                    },
                    {
                        "pass": "stepping",
                        "seconds": 0.006,
                        "alloc_bytes": int((4 << 20) * scale_alloc),
                        "ran": True,
                    },
                    # Harness-timed pseudo-pass appended after the pass
                    # manager (metrics/efficiency_suite in the real
                    # trajectory): the gate must treat it exactly like a
                    # manager pass.
                    {
                        "pass": "metrics/efficiency_suite",
                        "seconds": 0.002 * scale_eff,
                        "alloc_bytes": int(2 << 20),
                        "ran": True,
                    },
                    # v6 causality-checker pseudo-pass: vector-clock
                    # oracle build + the happened-before check over the
                    # recovered structure. The checker is opt-in in
                    # production, so this row is where a slowdown in
                    # the oracle's topological sweep or fallback walk
                    # gets caught.
                    {
                        "pass": "order/check_causality",
                        "seconds": 0.002 * scale_causality,
                        "alloc_bytes": int(1 << 20),
                        "ran": True,
                    },
                    # Storage-checksum pseudo-pass: CRC32C kernel
                    # throughput over a fixed buffer (every v2 .lsblk
                    # block write and verified read pays it). A broken
                    # hardware dispatch shows up as a 2x+ wall slip on
                    # exactly this row.
                    {
                        "pass": "trace/storage/checksum",
                        "seconds": 0.002 * scale_checksum,
                        "ran": True,
                    },
                    {"pass": "tiny", "seconds": 1e-05, "ran": True},
                ],
            }
        ],
    }
    if extra_threads is not None:
        # Same workload name, different thread count, deliberately 3x
        # slower than the serial baseline: the gate must treat it as a
        # separate (informational) row, never a regression.
        run["workloads"].append(
            {
                "name": "synthetic/w1",
                "events": 1000,
                "phases": 4,
                "threads": extra_threads,
                "total_seconds": 0.030,
                "passes": [
                    {
                        "pass": "initial",
                        "seconds": 0.012,
                        "alloc_bytes": int(8 << 20),
                        "threads": extra_threads,
                        "ran": True,
                    }
                ],
            }
        )
    return run


def self_test(opts):
    # Identical runs must pass.
    code = gate(synthetic_run(), synthetic_run(), opts)
    if code != 0:
        print("self-test: FAILED — identical runs did not pass")
        return 1
    print()
    # A 2x wall regression on a >=1ms pass must fail.
    saved = os.environ.pop("BENCH_GATE_ALLOW_REGRESSION", None)
    try:
        code = gate(synthetic_run(), synthetic_run(scale_wall=2.0), opts)
        if code == 0:
            print("self-test: FAILED — 2x wall regression not caught")
            return 1
        print()
        # A 2x allocation regression must fail too.
        code = gate(synthetic_run(), synthetic_run(scale_alloc=2.0), opts)
        if code == 0:
            print("self-test: FAILED — 2x alloc regression not caught")
            return 1
        print()
        # A 2x wall regression confined to the harness-timed
        # metrics/efficiency_suite pseudo-pass must fail on its own.
        code = gate(synthetic_run(), synthetic_run(scale_eff=2.0), opts)
        if code == 0:
            print(
                "self-test: FAILED — 2x efficiency-suite regression "
                "not caught"
            )
            return 1
        print()
        # A 2x wall regression confined to the order/check_causality
        # pseudo-pass (vector-clock oracle build + HB check) must fail
        # on its own.
        code = gate(synthetic_run(), synthetic_run(scale_causality=2.0),
                    opts)
        if code == 0:
            print(
                "self-test: FAILED — 2x causality-checker regression "
                "not caught"
            )
            return 1
        print()
        # A 2x wall regression confined to the trace/storage/checksum
        # pseudo-pass (the CRC32C kernel behind every v2 block write and
        # verified read) must fail on its own.
        code = gate(synthetic_run(), synthetic_run(scale_checksum=2.0),
                    opts)
        if code == 0:
            print(
                "self-test: FAILED — 2x storage-checksum regression "
                "not caught"
            )
            return 1
        print()
        # A 2x per-workload peak-RSS regression (the out-of-core storage
        # gate) must fail on its own.
        code = gate(synthetic_run(), synthetic_run(scale_rss=2.0), opts)
        if code == 0:
            print("self-test: FAILED — 2x peak-RSS regression not caught")
            return 1
        print()
        # A threads=8 rerun of the same workload, 3x slower than the
        # serial baseline, must NOT fail: thread counts are compared
        # like-for-like, never cross-count.
        code = gate(synthetic_run(), synthetic_run(extra_threads=8), opts)
        if code != 0:
            print(
                "self-test: FAILED — threads=8 row was compared against "
                "the threads=1 baseline"
            )
            return 1
    finally:
        if saved is not None:
            os.environ["BENCH_GATE_ALLOW_REGRESSION"] = saved
    print()
    # A missing or empty baseline must raise a structured, actionable
    # error, never a traceback or a silent pass.
    with tempfile.TemporaryDirectory() as d:
        missing = os.path.join(d, "no-such-baseline.json")
        try:
            load_runs(missing)
            print("self-test: FAILED — missing baseline not diagnosed")
            return 1
        except TrajectoryError as e:
            if missing not in str(e):
                print("self-test: FAILED — missing-baseline error does "
                      "not name the file")
                return 1
        for label, content in (
            ("empty", {"runs": []}),
            ("shapeless", {"schema": "bogus"}),
        ):
            path = os.path.join(d, f"{label}.json")
            with open(path, "w") as f:
                json.dump(content, f)
            try:
                load_runs(path)
                print(f"self-test: FAILED — {label} baseline not diagnosed")
                return 1
            except TrajectoryError:
                pass
        garbled = os.path.join(d, "garbled.json")
        with open(garbled, "w") as f:
            f.write("{ not json")
        try:
            load_runs(garbled)
            print("self-test: FAILED — garbled baseline not diagnosed")
            return 1
        except TrajectoryError:
            pass
    print(
        "self-test: ok (identical passes, 2x wall fails, 2x alloc fails, "
        "2x efficiency-suite pseudo-pass fails, "
        "2x causality-checker pseudo-pass fails, "
        "2x storage-checksum pseudo-pass fails, 2x peak-RSS fails, "
        "cross-thread-count rows never compared, "
        "missing/empty/garbled baselines diagnosed)"
    )
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    ap.add_argument(
        "files",
        nargs="*",
        help="trajectory file (last two runs) or BASE FRESH pair "
        "(default: BENCH_pipeline.json)",
    )
    ap.add_argument("--fail-wall", type=float, default=0.25,
                    help="fail above this wall-time increase (default 0.25)")
    ap.add_argument("--fail-alloc", type=float, default=0.30,
                    help="fail above this alloc_bytes increase (default 0.30)")
    ap.add_argument("--warn", type=float, default=0.10,
                    help="warn above this increase (default 0.10)")
    ap.add_argument("--min-seconds", type=float, default=0.001,
                    help="ignore wall deltas on passes under this base "
                    "duration (default 0.001)")
    ap.add_argument("--min-alloc-bytes", type=int, default=1 << 20,
                    help="ignore alloc deltas under this base size "
                    "(default 1 MiB)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report failures but exit 0 "
                    "(same as BENCH_GATE_ALLOW_REGRESSION=1)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate catches a synthetic 2x regression")
    opts = ap.parse_args()

    if opts.self_test:
        sys.exit(self_test(opts))

    if len(opts.files) == 0:
        opts.files = ["BENCH_pipeline.json"]
    try:
        if len(opts.files) == 1:
            runs = load_runs(opts.files[0])
            if len(runs) < 2:
                print(
                    f"bench gate: {opts.files[0]} has only {len(runs)} "
                    "run(s); nothing to compare"
                )
                sys.exit(0)
            base_run, fresh_run = runs[-2], runs[-1]
        elif len(opts.files) == 2:
            base_run = load_runs(opts.files[0])[-1]
            fresh_run = load_runs(opts.files[1])[-1]
        else:
            ap.error("expected at most two trajectory files")
    except TrajectoryError as e:
        sys.exit(f"bench gate: error: {e}")

    sys.exit(gate(base_run, fresh_run, opts))


if __name__ == "__main__":
    main()
