#!/usr/bin/env python3
"""Merge N BENCH_simcore.json runs into one baseline by per-row medians.

Usage:
    rebaseline.py run1.json run2.json run3.json \
                  --output bench/baselines/BENCH_simcore.baseline.json
    rebaseline.py --self-test

A single bench run's wall-clock numbers carry shared-runner noise even
after best-of-3; the scheduled re-baseline job shrinks it further by
running the whole bench N times and keeping, per row, the MEDIAN
events_per_sec and wall_ms across runs. Everything deterministic (events,
msgs, bytes, allocation counters) is identical across runs and is taken
from the first artifact verbatim; the calibration row and the
engine-comparison speedup are re-derived from medians too.

All runs must contain the same row set — a mismatch means a stale binary
or a half-finished run and is an error, not something to paper over.

Exit codes: 0 ok, 1 row-set mismatch, 2 usage or I/O error.
"""

import argparse
import json
import statistics
import sys

# (section, key fields...) — keys must match scripts/bench_trend.py.
# "coalesce" (schema v4) distinguishes batched-delivery million_client rows
# from their per-message twins, "dest_major" (schema v5) splits the batched
# rows again into destination-major and frame-order drains; row_key uses
# .get() so older artifacts without the fields still key correctly.
SECTIONS = {
    "workloads": ("protocol", "cluster"),
    "valuevector": ("protocol", "cluster", "workload"),
    "million_client": (
        "protocol",
        "clients",
        "ops_per_client",
        "coalesce",
        "dest_major",
    ),
}
MEDIANED_FIELDS = ("events_per_sec", "wall_ms")

# Must match kPartialVersion in src/exp/partial.h (and PARTIAL_VERSION in
# scripts/merge_shards.py). Runs assembled from a sharded sweep fleet
# stamp "sweep_partial_version"; medianing runs produced by different
# partial codecs would bake a format skew into the baseline, so any
# stamped run must carry the version this tree supports.
SWEEP_PARTIAL_VERSION = 2


def row_key(section, row):
    return (section,) + tuple(row.get(f, False) for f in SECTIONS[section])


def index_rows(doc):
    """{row_key: row} over every known section of one artifact."""
    out = {}
    for section in SECTIONS:
        for row in doc.get(section, []):
            out[row_key(section, row)] = row
    return out


def merge(docs):
    """Median-merge artifacts into a baseline; raises ValueError on
    mismatched row sets."""
    template = docs[0]
    for i, doc in enumerate(docs, start=1):
        version = doc.get("sweep_partial_version")
        if version is not None and version != SWEEP_PARTIAL_VERSION:
            raise ValueError(
                "run {} was assembled from sweep partials v{}, but this "
                "tree reads v{} — rebaseline with matching binaries".format(
                    i, version, SWEEP_PARTIAL_VERSION
                )
            )
    indexes = [index_rows(d) for d in docs]
    keys = set(indexes[0])
    for i, idx in enumerate(indexes[1:], start=2):
        if set(idx) != keys:
            diff = sorted(set(idx) ^ keys)
            raise ValueError(
                "run {} has a different row set ({} mismatched rows, "
                "e.g. {})".format(i, len(diff), "/".join(map(str, diff[0])))
            )

    merged = json.loads(json.dumps(template))  # deep copy
    for section in SECTIONS:
        for row in merged.get(section, []):
            key = row_key(section, row)
            for field in MEDIANED_FIELDS:
                if field in row:
                    row[field] = statistics.median(
                        float(idx[key][field]) for idx in indexes
                    )

    cmp_rows = [d.get("engine_comparison", {}) for d in docs]
    cmp_out = merged.get("engine_comparison", {})
    for field in (
        "legacy_events_per_sec",
        "pooled_events_per_sec",
        "batched_events_per_sec",
    ):
        if all(field in c for c in cmp_rows):
            cmp_out[field] = statistics.median(float(c[field]) for c in cmp_rows)
    if cmp_out.get("legacy_events_per_sec"):
        cmp_out["speedup"] = (
            cmp_out["pooled_events_per_sec"] / cmp_out["legacy_events_per_sec"]
        )
    if cmp_out.get("pooled_events_per_sec") and "batched_events_per_sec" in cmp_out:
        cmp_out["batched_speedup"] = (
            cmp_out["batched_events_per_sec"] / cmp_out["pooled_events_per_sec"]
        )

    # Schema v4 coalescing section: median the two wall-clock rates and
    # re-derive their ratio; batches, histogram, and steady counters are
    # deterministic and stay verbatim from the first run.
    co_rows = [d.get("coalescing", {}) for d in docs]
    co_out = merged.get("coalescing", {})
    for field in ("per_message_events_per_sec", "coalesced_events_per_sec"):
        if all(field in c for c in co_rows):
            co_out[field] = statistics.median(float(c[field]) for c in co_rows)
    if co_out.get("per_message_events_per_sec"):
        co_out["coalesce_speedup"] = (
            co_out["coalesced_events_per_sec"]
            / co_out["per_message_events_per_sec"]
        )

    # Schema v5 fanout_replay: median the two wall-clock rates and wall_ms,
    # re-derive the speedup; mean_run_len, tick and staging counters are
    # deterministic and stay verbatim from the first run.
    fo_rows = [d.get("fanout_replay", {}) for d in docs]
    fo_out = merged.get("fanout_replay", {})
    for field in (
        "frame_order_events_per_sec",
        "dest_major_events_per_sec",
        "wall_ms",
    ):
        if all(field in f for f in fo_rows):
            fo_out[field] = statistics.median(float(f[field]) for f in fo_rows)
    if fo_out.get("frame_order_events_per_sec"):
        fo_out["dest_major_speedup"] = (
            fo_out["dest_major_events_per_sec"]
            / fo_out["frame_order_events_per_sec"]
        )

    # Schema v6 checked_soak: median the wall-clock numbers (throughput and
    # the noisy checker-overhead difference); verdict, window peaks, and
    # retirement counters are deterministic and stay verbatim from the
    # first run.
    cs_rows = [d.get("checked_soak", {}) for d in docs]
    cs_out = merged.get("checked_soak", {})
    for field in ("events_per_sec", "wall_ms", "checker_ns_per_op"):
        if all(field in c for c in cs_rows):
            cs_out[field] = statistics.median(float(c[field]) for c in cs_rows)
    return merged


# ---- self-test -------------------------------------------------------------


def _run(eps, wall, legacy=1e6, pooled=3e6, batched=9e6):
    return {
        "bench": "simcore_throughput",
        "schema_version": 5,
        "engine_comparison": {
            "legacy_events_per_sec": legacy,
            "pooled_events_per_sec": pooled,
            "batched_events_per_sec": batched,
            "speedup": pooled / legacy,
            "batched_speedup": batched / pooled,
        },
        "coalescing": {
            "frames": 300000,
            "per_message_events_per_sec": eps * 10,
            "coalesced_events_per_sec": eps * 30,
            "coalesce_speedup": 3.0,
            "batches": 50000,
            "frames_per_batch": 6.0,
            "batch_size_hist": [{"ge": 4, "count": 50000}],
            "steady_engine_allocs": 0,
            "steady_pool_misses": 0,
        },
        "workloads": [
            {
                "protocol": "fr",
                "cluster": "S=5",
                "events": 1000,
                "events_per_sec": eps,
                "wall_ms": wall,
            }
        ],
        "fanout_replay": {
            "workload": "w2r2_table_fanout",
            "protocol": "mw-abd(W2R2)",
            "clients": 10000,
            "ops_per_client": 4,
            "frames": 800000,
            "frame_order_events_per_sec": eps * 20,
            "frame_order_mean_run_len": 3.0,
            "dest_major_events_per_sec": eps * 40,
            "dest_major_speedup": 2.0,
            "mean_run_len": 11.0,
            "dest_major_ticks": 12000,
            "staged_replies": 600000,
            "wall_ms": wall,
        },
        "checked_soak": {
            "workload": "million_client_checked",
            "protocol": "mw-abd(W2R2)",
            "keyspace": "keys=64 shards=8 zipf=0.99",
            "clients": 100000,
            "ops_per_client": 10,
            "ops_checked": 1000000,
            "verdict_atomic": True,
            "peak_window": 1200,
            "peak_pending": 2400,
            "retired_tags": 450000,
            "history_live": 30000,
            "events": 40000000,
            "wall_ms": wall * 3,
            "events_per_sec": eps * 7,
            "checker_ns_per_op": wall * 5,
            "steady_engine_allocs": 0,
            "steady_pool_misses": 0,
        },
        "million_client": [
            {
                "protocol": "mw-abd(W2R2)",
                "clients": 100000,
                "ops_per_client": 10,
                "coalesce": coalesce,
                "dest_major": dest_major,
                "events_per_sec": eps * (2 if not coalesce else 6 if not dest_major else 8),
                "wall_ms": wall * 2,
                "steady_engine_allocs": 0,
                "steady_pool_misses": 0,
            }
            for coalesce, dest_major in (
                (False, False),
                (True, False),
                (True, True),
            )
        ],
        "valuevector": [],
    }


def self_test():
    runs = [_run(100.0, 10.0), _run(500.0, 2.0), _run(300.0, 6.0, legacy=2e6)]
    m = merge(runs)
    ok = True

    def check(name, cond):
        nonlocal ok
        print("self-test {:<28} {}".format(name, "ok" if cond else "FAILED"))
        ok = ok and cond

    check("workload-eps-median", m["workloads"][0]["events_per_sec"] == 300.0)
    check("workload-wall-median", m["workloads"][0]["wall_ms"] == 6.0)
    check("million-eps-median", m["million_client"][0]["events_per_sec"] == 600.0)
    check(
        "million-coalesced-median",
        m["million_client"][1]["events_per_sec"] == 1800.0,
    )
    check("deterministic-verbatim", m["workloads"][0]["events"] == 1000)
    check(
        "calibration-median",
        m["engine_comparison"]["legacy_events_per_sec"] == 1e6,
    )
    check("speedup-rederived", m["engine_comparison"]["speedup"] == 3.0)
    check(
        "batched-median-rederived",
        m["engine_comparison"]["batched_events_per_sec"] == 9e6
        and m["engine_comparison"]["batched_speedup"] == 3.0,
    )
    check(
        "coalescing-eps-median",
        m["coalescing"]["per_message_events_per_sec"] == 3000.0
        and m["coalescing"]["coalesced_events_per_sec"] == 9000.0,
    )
    check("coalescing-ratio-rederived", m["coalescing"]["coalesce_speedup"] == 3.0)
    check(
        "million-dest-major-keyed",
        m["million_client"][2]["dest_major"] is True
        and m["million_client"][2]["events_per_sec"] == 2400.0,
    )
    check(
        "fanout-eps-median",
        m["fanout_replay"]["frame_order_events_per_sec"] == 6000.0
        and m["fanout_replay"]["dest_major_events_per_sec"] == 12000.0,
    )
    check("fanout-wall-median", m["fanout_replay"]["wall_ms"] == 6.0)
    check("fanout-speedup-rederived", m["fanout_replay"]["dest_major_speedup"] == 2.0)
    check(
        "fanout-runlen-verbatim",
        m["fanout_replay"]["mean_run_len"] == 11.0
        and m["fanout_replay"]["frames"] == 800000,
    )
    check(
        "soak-medians",
        m["checked_soak"]["events_per_sec"] == 2100.0
        and m["checked_soak"]["wall_ms"] == 18.0
        and m["checked_soak"]["checker_ns_per_op"] == 30.0,
    )
    check(
        "soak-deterministic-verbatim",
        m["checked_soak"]["verdict_atomic"] is True
        and m["checked_soak"]["peak_window"] == 1200
        and m["checked_soak"]["retired_tags"] == 450000,
    )
    try:
        bad = _run(100.0, 10.0)
        bad["workloads"][0]["cluster"] = "S=7"
        merge([runs[0], bad])
        check("mismatch-detected", False)
    except ValueError:
        check("mismatch-detected", True)
    stamped = [_run(100.0, 10.0), _run(500.0, 2.0)]
    for r in stamped:
        r["sweep_partial_version"] = SWEEP_PARTIAL_VERSION
    try:
        sm = merge(stamped)
        check(
            "partial-version-ok",
            sm["sweep_partial_version"] == SWEEP_PARTIAL_VERSION
            and sm["workloads"][0]["events_per_sec"] == 300.0,
        )
    except ValueError:
        check("partial-version-ok", False)
    try:
        skewed = _run(300.0, 6.0)
        skewed["sweep_partial_version"] = SWEEP_PARTIAL_VERSION + 1
        merge([stamped[0], skewed])
        check("partial-version-skew", False)
    except ValueError:
        check("partial-version-skew", True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("runs", nargs="*", help="BENCH_simcore.json files to merge")
    ap.add_argument("--output", help="baseline path to write")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.runs or not args.output:
        ap.error("at least one run and --output are required (or --self-test)")

    try:
        docs = []
        for path in args.runs:
            with open(path) as f:
                docs.append(json.load(f))
    except (OSError, ValueError) as e:
        print("rebaseline: cannot load inputs:", e, file=sys.stderr)
        return 2

    try:
        merged = merge(docs)
    except ValueError as e:
        print("rebaseline:", e, file=sys.stderr)
        return 1

    try:
        with open(args.output, "w") as f:
            json.dump(merged, f, indent=1)
            f.write("\n")
    except OSError as e:
        print("rebaseline: cannot write output:", e, file=sys.stderr)
        return 2
    print(
        "rebaseline: wrote {} ({} rows, medians of {} runs)".format(
            args.output, len(index_rows(merged)), len(docs)
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
