#!/usr/bin/env python3
"""Merge BENCH_simcore.json runs into the perf gate's baseline.

Usage:
    rebaseline.py run1.json run2.json run3.json run4.json run5.json \
                  --output bench/baselines/BENCH_simcore.baseline.json
    rebaseline.py --self-test

A thin CLI over bench_trend.merge: the runs must agree on every exact
field of bench_trend.SPEC, while host and report fields keep every run's
value. A baseline needs at least bench_trend.BASELINE_RUNS runs, and it is
refused if it breaks one of the gate's absolute bounds (bench_trend.bounds),
so no refresh writes a baseline the gate would fail.

Exit codes: 0 ok, 1 runs that disagree or break a bound, 2 usage, I/O or
malformed input.
"""

import argparse
import json
import statistics
import sys

import bench_trend as bt

# (case, dotted path, value or per-run median the merged baseline must hold)
MERGE_CASES = [
    ("workload-eps-median", "workloads.0.events_per_sec", 3e6),
    ("workload-wall-median", "workloads.0.wall_ms", 3.0),
    ("million-eps-median", "million_client.0.events_per_sec", 3e6),
    ("million-coalesced-median", "million_client.1.events_per_sec", 3e6),
    ("deterministic-verbatim", "workloads.0.events", 1),
    ("calibration-median", "engine_comparison.legacy_events_per_sec", 3.0),
    ("coalescing-eps-median", "coalescing.per_message_events_per_sec", 3e6),
    ("coalescing-eps-median", "coalescing.coalesced_events_per_sec", 3e6),
    ("soak-medians", "checked_soak.events_per_sec", 3e6),
    ("soak-medians", "checked_soak.wall_ms", 3.0),
    ("soak-medians", "checked_soak.checker_ns_per_op", 3.0),
    ("soak-deterministic-verbatim", "checked_soak.verdict_atomic", True),
    ("soak-deterministic-verbatim", "checked_soak.peak_window", 1),
    ("runs-kept-in-order", "workloads.0.events_per_sec",
     [1e6, 2e6, 3e6, 4e6, 5e6]),
]


def _scale_run(doc, i):
    """Run i's host and report values are (i + 1) times the synthetic."""
    for key, (kind, obj) in bt.flatten(doc).items():
        if kind in (bt.HOST, bt.REPORT):
            obj[key[1]] = [v * (i + 1) for v in obj[key[1]]]


def self_test():
    merged = bt.merge(bt.build_runs(_scale_run, 5, 0))
    ok = True
    for name, path, want in MERGE_CASES:
        c, k = bt.at(merged, path)
        got = c[k]
        if isinstance(got, list) and not isinstance(want, list):
            got = statistics.median(got)
        print("self-test {:<32} {}".format(
            name, "ok" if got == want else "FAILED: {}".format(got)))
        ok = ok and got == want
    # bt.edit touches runs 2..5 only, so run 1 (run0.json) stays intact.
    cases = bt.MALFORMED + [
        ("writes-baseline", 0, bt.edit(), "(5 runs)"),
        ("mismatch-detected", 1, bt.edit("workloads.0.cluster", "S=7"),
         "in run 1 but not in run 2"),
        ("runs-disagree", 1, bt.edit("workloads.0.bytes_on_wire", 2),
         "workloads/fr/S=5.bytes_on_wire: run 2 has 2, run 1 has 1"),
        ("too-few-runs", 2, lambda d, i: bt.DROP if i == 3 else None,
         "a baseline needs at least 5 runs, got 4"),
        ("bound-refused", 1,
         lambda d, i: d["checked_soak"].update(verdict_atomic=False),
         "checked_soak.verdict_atomic: false breaks the bound == true"),
        ("bound-section-missing", 1,
         lambda d, i: d.pop("checked_soak") and None,
         "checked_soak: ops_checked, verdict_atomic, steady_engine_allocs, "
         "steady_pool_misses missing"),
    ]
    rc = bt.run_cases(main, cases, lambda p: p + ["--output", p[0] + ".out"],
                      lambda fn: bt.build_runs(
                          lambda d, i: fn(d, i - 1), 5, 0))
    return 0 if ok and rc == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("runs", nargs="*", help="BENCH_simcore.json runs")
    ap.add_argument("--output", help="baseline path to write")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.runs or not args.output:
        ap.error("runs and --output are required (or --self-test)")
    try:
        docs = [bt.load(path) for path in args.runs]
        n = sum(map(bt.runs, docs))
        if n < bt.BASELINE_RUNS:
            raise bt.ArtifactError("a baseline needs at least {} runs, got {}"
                                   .format(bt.BASELINE_RUNS, n))
        merged = bt.merge(docs)
        broken = bt.bounds(bt.flatten(merged))
    except bt.ArtifactError as e:
        print("rebaseline:", e, file=sys.stderr)
        return 2
    except bt.GateError as e:
        broken = [str(e)]
    if broken:
        print("\n".join("rebaseline: " + b for b in broken), file=sys.stderr)
        return 1
    try:
        with open(args.output, "w") as f:
            json.dump(merged, f, indent=1)
            f.write("\n")
    except OSError as e:
        print("rebaseline: cannot write output:", e, file=sys.stderr)
        return 2
    print("rebaseline: wrote {} ({} runs)".format(args.output, n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
