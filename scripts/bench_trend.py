#!/usr/bin/env python3
"""Perf-trend gate: diff a fresh BENCH_simcore.json against the checked-in
baseline and fail on events/sec regressions.

Usage:
    bench_trend.py --artifact build/BENCH_simcore.json \
                   --baseline bench/baselines/BENCH_simcore.baseline.json \
                   [--max-regression 0.25]
    bench_trend.py --self-test

Rows are keyed by (section, protocol, cluster[, workload]) so the grid can
grow without invalidating history; a row present in the baseline but
missing from the artifact is itself a failure (silent coverage loss reads
as "no regression").

Shared CI runners differ wildly in absolute speed, so the gate is
ratio-based: every row's events/sec is first normalized by the artifact's
own engine_comparison.legacy_events_per_sec — a fixed single-threaded
replay that acts as an in-run machine-speed calibration — and only then
compared against the baseline's normalized value. A >25% drop of the
normalized ratio fails; absolute machine speed cancels out.

The gate also re-asserts the allocation-free steady state: any workload
row with nonzero steady_engine_allocs/steady_pool_misses fails.

Schema v5 adds two absolute (non-ratio) gates on the fanout_replay
section: the destination-major drain's mean dispatched-run length on the
W2R2 table fan-out must stay >= 8, and the section itself must not vanish
once baselined. Run length is deterministic (a property of the schedule,
not the machine), so it is gated absolutely.

Schema v6 adds the checked_soak section (the 10^6-op run with the
streaming tag-witness checker live). Its events_per_sec rides the normal
ratio gate; on top of that the verdict must be atomic, the steady-state
allocation counters must stay 0, and peak_window — the checker's memory
high-water mark, deterministic for the seeded schedule — must not exceed
2x the baselined value (the checker staying window-bounded is the whole
point of the section). checker_ns_per_op is reported but not gated: it is
a difference of two wall times and too jittery for a hard threshold;
rebaseline.py medians it for trend reading instead.

Refreshing the baseline after a deliberate perf change:
    cmake --build build --target refresh-baseline
then commit bench/baselines/BENCH_simcore.baseline.json with the PR that
changed the numbers (see README "Performance").

Both inputs are validated before any row is compared: a row missing a key
field, a non-numeric metric, or a section of the wrong JSON type is
refused with one line naming the file, section and field.

Exit codes: 0 pass, 1 regression/coverage failure, 2 usage, I/O or
malformed-artifact error.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

# ---- artifact shape ----------------------------------------------------------

# Row-list sections: (key fields, required numeric fields). The key fields
# must match scripts/rebaseline.py's SECTIONS.
ROW_SECTIONS = {
    "workloads": (("protocol", "cluster"), ("events_per_sec",)),
    "valuevector": (("protocol", "cluster", "workload"), ("events_per_sec",)),
    "million_client": (
        ("protocol", "clients", "ops_per_client"),
        ("events_per_sec",),
    ),
}
# Single-object sections: required numeric fields.
OBJECT_SECTIONS = {
    "engine_comparison": (),
    "coalescing": ("per_message_events_per_sec", "coalesced_events_per_sec"),
    "fanout_replay": ("frame_order_events_per_sec", "dest_major_events_per_sec"),
    "checked_soak": ("events_per_sec",),
}
# Fields the gates and rebaseline.py read as numbers, wherever they appear.
NUMERIC_FIELDS = frozenset(
    (
        "events_per_sec", "wall_ms", "steady_engine_allocs",
        "steady_pool_misses", "legacy_events_per_sec", "pooled_events_per_sec",
        "batched_events_per_sec", "per_message_events_per_sec",
        "coalesced_events_per_sec", "coalesce_speedup", "frames_per_batch",
        "batches", "frame_order_events_per_sec", "dest_major_events_per_sec",
        "dest_major_speedup", "mean_run_len", "frame_order_mean_run_len",
        "staged_replies", "ops_checked", "peak_window", "peak_pending",
        "retired_tags", "checker_ns_per_op", "ge", "count",
    )
)


class ArtifactError(Exception):
    """An artifact that cannot be read or has the wrong shape: a usage error
    (exit 2), never a regression (exit 1)."""


_JSON_TYPES = {
    bool: "boolean", dict: "object", list: "list", str: "string",
    type(None): "null",
}


def _json_type(v):
    """JSON type name of a json.load()ed value (int and float: number)."""
    return _JSON_TYPES.get(type(v), "number")


def _check_fields(where, obj, keys, required):
    if not isinstance(obj, dict):
        raise ArtifactError(
            "{}: expected an object, got {}".format(where, _json_type(obj))
        )
    for field in keys + required:
        if field not in obj:
            raise ArtifactError("{}: missing field '{}'".format(where, field))
    for field in keys:
        if _json_type(obj[field]) not in ("string", "number"):
            raise ArtifactError(
                "{}: key field '{}' is a {}".format(
                    where, field, _json_type(obj[field])
                )
            )
    for field, value in obj.items():
        if field in NUMERIC_FIELDS and _json_type(value) != "number":
            raise ArtifactError(
                "{}: field '{}' is not a number: {}".format(
                    where, field, json.dumps(value)
                )
            )


def _check_rows(section, rows, keys, required):
    if not isinstance(rows, list):
        raise ArtifactError(
            "{}: expected a list of rows, got {}".format(
                section, _json_type(rows)
            )
        )
    for i, row in enumerate(rows):
        _check_fields("{}[{}]".format(section, i), row, keys, required)


def validate_artifact(doc):
    """Raise ArtifactError naming the section and field of the first shape
    error; the gates below may then index every field they read."""
    if not isinstance(doc, dict):
        raise ArtifactError("top level: expected an object")
    for section, (keys, required) in ROW_SECTIONS.items():
        _check_rows(section, doc.get(section, []), keys, required)
    for section, required in OBJECT_SECTIONS.items():
        if section in doc:
            _check_fields(section, doc[section], (), required)
    _check_rows(
        "coalescing.batch_size_hist",
        doc.get("coalescing", {}).get("batch_size_hist", []),
        (),
        ("ge", "count"),
    )


def load_artifact(path):
    """Read and validate one artifact; ArtifactError messages name the file."""
    try:
        with open(path) as f:
            doc = json.load(f)
        validate_artifact(doc)
    except (OSError, ValueError) as e:
        raise ArtifactError("{}: cannot load: {}".format(path, e))
    except ArtifactError as e:
        raise ArtifactError("{}: {}".format(path, e))
    return doc


def malformed_cases(make_doc):
    """Three structurally malformed variants of make_doc() (which must have
    a workloads row), each with the words its refusal must contain. Shared
    by both scripts' self-tests."""
    no_key = make_doc()
    del no_key["workloads"][0]["protocol"]
    not_a_number = make_doc()
    not_a_number["workloads"][0]["events_per_sec"] = "n/a"
    wrong_shape = make_doc()
    wrong_shape["workloads"] = {}
    return [
        ("malformed-missing-key", no_key, ("workloads[0]", "'protocol'")),
        (
            "malformed-not-a-number",
            not_a_number,
            ("workloads[0]", "'events_per_sec'"),
        ),
        ("malformed-section-shape", wrong_shape, ("workloads:", "object")),
    ]


def run_on_files(main, docs, make_argv):
    """Write `docs` to temp files, run main(make_argv(paths)) and return
    (exit code, captured stderr) — how the self-tests pin exit codes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, "run{}.json".format(i)))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = main(make_argv(paths))
    return code, err.getvalue()


def malformed_case_ok(code, err, needles):
    """Exit 2 with exactly one stderr line containing every needle."""
    return code == 2 and err.count("\n") == 1 and all(n in err for n in needles)


def collect_rows(doc):
    """Flatten an artifact into {row_key: (events_per_sec, wall_ms)}."""
    rows = {}
    for w in doc.get("workloads", []):
        key = "workloads/{}/{}".format(w["protocol"], w["cluster"])
        rows[key] = (float(w["events_per_sec"]), float(w.get("wall_ms", 0)))
    for v in doc.get("valuevector", []):
        key = "valuevector/{}/{}/{}".format(
            v["protocol"], v["cluster"], v["workload"]
        )
        rows[key] = (float(v["events_per_sec"]), float(v.get("wall_ms", 0)))
    for m in doc.get("million_client", []):
        key = "million_client/{}/{}x{}".format(
            m["protocol"], m["clients"], m["ops_per_client"]
        )
        # Schema v4: coalesced rows share (protocol, clients, ops) with
        # their per-message twins; the suffix keeps per-message keys stable
        # so v3 baselines stay comparable. Schema v5 twins the coalesced
        # rows again on the drain: "/coalesced" stays the default engine
        # (dest-major — absent field defaults True so v4 baselines keep
        # their key), the frame-order ablation gets its own suffix.
        if m.get("coalesce", False):
            key += (
                "/coalesced"
                if m.get("dest_major", True)
                else "/coalesced/frame-order"
            )
        rows[key] = (float(m["events_per_sec"]), float(m.get("wall_ms", 0)))
    fo = doc.get("fanout_replay")
    if fo:
        # Deterministic schedule, wall-clock denominator: both drain lanes
        # ride the normalized ratio gate like every other row.
        for field, name in (
            ("frame_order_events_per_sec", "frame_order"),
            ("dest_major_events_per_sec", "dest_major"),
        ):
            rows["fanout_replay/" + name] = (
                float(fo[field]),
                float(fo.get("wall_ms", 100.0)),
            )
    cs = doc.get("checked_soak")
    if cs:
        # Rides the normalized ratio gate like every other long row; the
        # soak-specific absolute gates live in checked_soak_failures.
        rows["checked_soak/million_client_checked"] = (
            float(cs["events_per_sec"]),
            float(cs.get("wall_ms", 0)),
        )
    co = doc.get("coalescing")
    if co:
        # The batched-delivery replay has no per-row wall_ms; each number is
        # a best-of-5 over ~20ms timed runs, solid enough to hard-gate.
        for field, name in (
            ("per_message_events_per_sec", "per_message"),
            ("coalesced_events_per_sec", "coalesced"),
        ):
            rows["coalescing/" + name] = (float(co[field]), 100.0)
    # Schema v4: the batched cost-model engine rides the same calibration
    # as every other row (legacy stays the denominator), so its ratio to
    # the per-message engines is machine-independent and gateable.
    batched = doc.get("engine_comparison", {}).get("batched_events_per_sec")
    if batched is not None:
        rows["engine_comparison/batched"] = (float(batched), 100.0)
    return rows


def coalescing_lines(doc):
    """Schema v4 coalescing summary: engine ratio + batch-size histogram."""
    co = doc.get("coalescing")
    if not co:
        return []
    lines = [
        "coalescing: {:.2f}x over per-message ({:.1f} frames/batch, "
        "{} batches)".format(
            float(co.get("coalesce_speedup", 0)),
            float(co.get("frames_per_batch", 0)),
            int(co.get("batches", 0)),
        )
    ]
    hist = co.get("batch_size_hist", [])
    if hist:
        lines.append(
            "  batch size   " + " ".join(
                "{:>8}".format(">=" + str(b["ge"])) for b in hist if b["count"]
            )
        )
        lines.append(
            "  batches      " + " ".join(
                "{:>8}".format(b["count"]) for b in hist if b["count"]
            )
        )
    return lines


MIN_MEAN_RUN_LEN = 8.0


def run_length_failures(doc):
    """Schema v5 hard gate: the dest-major drain must keep dispatched runs
    long on the W2R2 table fan-out. Deterministic, so gated absolutely."""
    fo = doc.get("fanout_replay")
    if not fo:
        return []
    mean = float(fo.get("mean_run_len", 0.0))
    if mean < MIN_MEAN_RUN_LEN:
        return [
            "fanout_replay: dest-major mean run length {:.2f} < {:g} "
            "(dispatched runs went short)".format(mean, MIN_MEAN_RUN_LEN)
        ]
    return []


PEAK_WINDOW_HEADROOM = 2.0


def checked_soak_failures(artifact, baseline):
    """Schema v6 absolute gates on the checked_soak section: the live
    verdict must be atomic, the checker must stay allocation-free in steady
    state, and its memory high-water mark (peak_window, deterministic for
    the seeded schedule) must not outgrow the baseline by more than
    PEAK_WINDOW_HEADROOM."""
    cs = artifact.get("checked_soak")
    if not cs:
        return []
    bad = []
    if not cs.get("verdict_atomic", False):
        bad.append(
            "checked_soak: streaming checker reported a violation on the "
            "soak run"
        )
    steady = int(cs.get("steady_engine_allocs", 0)) + int(
        cs.get("steady_pool_misses", 0)
    )
    if steady != 0:
        bad.append(
            "checked_soak: steady-state allocations = {}".format(steady)
        )
    base_cs = baseline.get("checked_soak")
    if base_cs:
        peak = int(cs.get("peak_window", 0))
        base_peak = int(base_cs.get("peak_window", 0))
        if base_peak > 0 and peak > base_peak * PEAK_WINDOW_HEADROOM:
            bad.append(
                "checked_soak: peak_window {} > {:g}x baseline {} "
                "(checker memory no longer window-bounded?)".format(
                    peak, PEAK_WINDOW_HEADROOM, base_peak
                )
            )
    return bad


def checked_soak_lines(doc):
    cs = doc.get("checked_soak")
    if not cs:
        return []
    return [
        "checked_soak: {} ops checked, verdict {}, peak window {} "
        "(pending {}), {} tags retired, {:.1f} ns/op checker overhead".format(
            int(cs.get("ops_checked", 0)),
            "atomic" if cs.get("verdict_atomic", False) else "VIOLATION",
            int(cs.get("peak_window", 0)),
            int(cs.get("peak_pending", 0)),
            int(cs.get("retired_tags", 0)),
            float(cs.get("checker_ns_per_op", 0.0)),
        )
    ]


def fanout_lines(doc):
    fo = doc.get("fanout_replay")
    if not fo:
        return []
    return [
        "fanout_replay: mean run {:.2f} dest-major vs {:.2f} frame-order "
        "({:.2f}x events/sec, {} staged replies)".format(
            float(fo.get("mean_run_len", 0)),
            float(fo.get("frame_order_mean_run_len", 0)),
            float(fo.get("dest_major_speedup", 0)),
            int(fo.get("staged_replies", 0)),
        )
    ]


def calibration(doc):
    """In-run machine-speed reference; None when absent (raw comparison)."""
    eps = doc.get("engine_comparison", {}).get("legacy_events_per_sec")
    if eps is None:
        return None
    eps = float(eps)
    return eps if eps > 0 else None


def steady_alloc_failures(doc):
    bad = []
    for w in doc.get("workloads", []):
        steady = int(w.get("steady_engine_allocs", 0)) + int(
            w.get("steady_pool_misses", 0)
        )
        if steady != 0:
            bad.append(
                "workloads/{}/{}: steady-state allocations = {}".format(
                    w["protocol"], w["cluster"], steady
                )
            )
    for m in doc.get("million_client", []):
        steady = int(m.get("steady_engine_allocs", 0)) + int(
            m.get("steady_pool_misses", 0)
        )
        if steady != 0:
            bad.append(
                "million_client/{}/{}x{}: steady-state allocations = {}".format(
                    m["protocol"], m["clients"], m["ops_per_client"], steady
                )
            )
    co = doc.get("coalescing")
    if co:
        steady = int(co.get("steady_engine_allocs", 0)) + int(
            co.get("steady_pool_misses", 0)
        )
        if steady != 0:
            bad.append(
                "coalescing: steady-state allocations = {}".format(steady)
            )
    return bad


# Must match kPartialVersion in src/exp/partial.h (and PARTIAL_VERSION in
# scripts/merge_shards.py). Artifacts assembled from a sharded sweep
# fleet stamp the partial format they were merged from as
# "sweep_partial_version"; unstamped artifacts (the single-process bench
# path) are exempt.
SWEEP_PARTIAL_VERSION = 2


def partial_version_failures(artifact, baseline):
    """Refuse to gate across sweep-partial format versions.

    A version skew means one side was produced by binaries whose partial
    codec this tree cannot read — the numbers may aggregate differently,
    so a ratio against them is meaningless rather than merely noisy.
    """
    bad = []
    for name, doc in (("artifact", artifact), ("baseline", baseline)):
        version = doc.get("sweep_partial_version")
        if version is not None and version != SWEEP_PARTIAL_VERSION:
            bad.append(
                "{}: assembled from sweep partials v{}, but this gate "
                "reads v{} — regenerate with matching binaries".format(
                    name, version, SWEEP_PARTIAL_VERSION
                )
            )
    return bad


def compare(artifact, baseline, max_regression, min_wall_ms=5.0):
    """Return (failures, report_lines).

    Rows whose wall time is below `min_wall_ms` in either run are reported
    but not hard-gated: at millisecond scale a single scheduler preemption
    exceeds any reasonable threshold, so tiny rows would flake. (Benches
    already report best-of-3 wall times; this is the second guard.)
    Row *presence* is still enforced for every baselined row.
    """
    failures = []
    lines = []
    art_rows = collect_rows(artifact)
    base_rows = collect_rows(baseline)
    art_cal = calibration(artifact)
    base_cal = calibration(baseline)
    normalized = art_cal is not None and base_cal is not None
    if not normalized:
        lines.append(
            "warning: engine_comparison calibration missing; "
            "comparing raw events/sec (machine-speed sensitive)"
        )

    lines.append(
        "{:<58} {:>12} {:>12} {:>8}".format("row", "baseline", "artifact", "ratio")
    )
    for key in sorted(base_rows):
        if key not in art_rows:
            failures.append("row disappeared from artifact: " + key)
            continue
        base_eps, base_wall = base_rows[key]
        art_eps, art_wall = art_rows[key]
        base_v = base_eps / (base_cal if normalized else 1.0)
        art_v = art_eps / (art_cal if normalized else 1.0)
        ratio = art_v / base_v if base_v > 0 else float("inf")
        flag = ""
        if ratio < 1.0 - max_regression:
            if min(base_wall, art_wall) < min_wall_ms:
                flag = "  (regressed, ungated: wall < {:g} ms)".format(
                    min_wall_ms
                )
            else:
                failures.append(
                    "{}: normalized events/sec fell to {:.0%} of baseline".format(
                        key, ratio
                    )
                )
                flag = "  << FAIL"
        lines.append(
            "{:<58} {:>12.4g} {:>12.4g} {:>7.2f}x{}".format(
                key, base_eps, art_eps, ratio, flag
            )
        )
    for key in sorted(set(art_rows) - set(base_rows)):
        lines.append(
            "{:<58} {:>12} {:>12.4g}   (new row, not gated)".format(
                key, "-", art_rows[key][0]
            )
        )

    lines.extend(coalescing_lines(artifact))
    lines.extend(fanout_lines(artifact))
    lines.extend(checked_soak_lines(artifact))
    for msg in steady_alloc_failures(artifact):
        failures.append(msg)
    for msg in run_length_failures(artifact):
        failures.append(msg)
    for msg in checked_soak_failures(artifact, baseline):
        failures.append(msg)
    for msg in partial_version_failures(artifact, baseline):
        failures.append(msg)
    return failures, lines


# ---- self-test -------------------------------------------------------------


def _doc(
    rows,
    legacy_eps=1_000_000.0,
    steady=0,
    wall_ms=100.0,
    million=None,
    coalescing=None,
    batched_eps=None,
    fanout=None,
    soak=None,
):
    """Synthetic artifact with the given {(proto, cluster): eps} workloads.

    `million` is an optional {(clients, ops[, coalesce[, dest_major]]):
    (eps, steady)} dict rendered as the million_client section.
    `coalescing` is an optional (per_message_eps, coalesced_eps, steady)
    tuple rendered as the schema v4 coalescing section. `batched_eps`
    populates the v4 engine_comparison batched-engine row. `fanout` is an
    optional (frame_order_eps, dest_major_eps, mean_run_len) tuple rendered
    as the schema v5 fanout_replay section. `soak` is an optional
    (eps, verdict_atomic, peak_window, steady) tuple rendered as the schema
    v6 checked_soak section.
    """
    doc = {
        "bench": "simcore_throughput",
        "schema_version": 5,
        "engine_comparison": {"legacy_events_per_sec": legacy_eps},
        "workloads": [
            {
                "protocol": p,
                "cluster": c,
                "events_per_sec": eps,
                "wall_ms": wall_ms,
                "steady_engine_allocs": steady,
                "steady_pool_misses": 0,
            }
            for (p, c), eps in rows.items()
        ],
        "million_client": [
            {
                "protocol": "mw-abd(W2R2)",
                "clients": key[0],
                "ops_per_client": key[1],
                "coalesce": bool(key[2]) if len(key) > 2 else False,
                "dest_major": bool(key[3]) if len(key) > 3 else True,
                "events_per_sec": eps,
                "wall_ms": wall_ms,
                "steady_engine_allocs": msteady,
                "steady_pool_misses": 0,
            }
            for key, (eps, msteady) in (million or {}).items()
        ],
        "valuevector": [],
    }
    if batched_eps is not None:
        doc["engine_comparison"]["batched_events_per_sec"] = batched_eps
    if fanout is not None:
        fo_eps, dm_eps, mean_run = fanout
        doc["fanout_replay"] = {
            "workload": "w2r2_table_fanout",
            "protocol": "mw-abd(W2R2)",
            "clients": 10_000,
            "ops_per_client": 4,
            "frames": 800_000,
            "frame_order_events_per_sec": fo_eps,
            "frame_order_mean_run_len": 3.0,
            "dest_major_events_per_sec": dm_eps,
            "dest_major_speedup": dm_eps / fo_eps if fo_eps else 0,
            "mean_run_len": mean_run,
            "dest_major_ticks": 12_000,
            "staged_replies": 600_000,
            "wall_ms": wall_ms,
        }
    if soak is not None:
        s_eps, s_atomic, s_peak, s_steady = soak
        doc["checked_soak"] = {
            "workload": "million_client_checked",
            "protocol": "mw-abd(W2R2)",
            "keyspace": "keys=64 shards=8 zipf=0.99",
            "clients": 100_000,
            "ops_per_client": 10,
            "ops_checked": 1_000_000,
            "verdict_atomic": s_atomic,
            "peak_window": s_peak,
            "peak_pending": s_peak * 2,
            "retired_tags": 450_000,
            "history_live": 30_000,
            "events": 40_000_000,
            "wall_ms": wall_ms,
            "events_per_sec": s_eps,
            "checker_ns_per_op": 55.0,
            "steady_engine_allocs": s_steady,
            "steady_pool_misses": 0,
        }
    if coalescing is not None:
        per_msg, coalesced, csteady = coalescing
        doc["coalescing"] = {
            "workload": "w2r1_replay_real_network",
            "frames": 300_000,
            "per_message_events_per_sec": per_msg,
            "coalesced_events_per_sec": coalesced,
            "coalesce_speedup": coalesced / per_msg if per_msg else 0,
            "batches": 50_000,
            "frames_per_batch": 6.0,
            "batch_size_hist": [
                {"ge": 1, "count": 10_000},
                {"ge": 2, "count": 20_000},
                {"ge": 4, "count": 20_000},
            ],
            "steady_engine_allocs": csteady,
            "steady_pool_misses": 0,
        }
    return doc


def self_test():
    base = _doc({("fr", "S=5"): 400_000.0, ("abd", "S=3"): 8_000_000.0})
    checks = []

    def check(name, doc, want_fail, max_regression=0.25):
        failures, _ = compare(doc, base, max_regression)
        ok = bool(failures) == want_fail
        checks.append((name, ok, failures))
        return ok

    # Identical numbers pass.
    check("identical", _doc({("fr", "S=5"): 400_000.0, ("abd", "S=3"): 8e6}), False)
    # A 10% dip is shared-runner noise: pass.
    check("10pc-dip", _doc({("fr", "S=5"): 360_000.0, ("abd", "S=3"): 8e6}), False)
    # A >25% regression on one row fails.
    check("30pc-drop", _doc({("fr", "S=5"): 280_000.0, ("abd", "S=3"): 8e6}), True)
    # A vanished row fails (coverage loss must be loud).
    check("missing-row", _doc({("fr", "S=5"): 400_000.0}), True)
    # A new, un-baselined row passes (it gets gated once baselined).
    check(
        "new-row",
        _doc({("fr", "S=5"): 4e5, ("abd", "S=3"): 8e6, ("new", "S=9"): 1.0}),
        False,
    )
    # Machine speed cancels: a runner half as fast shows half the eps
    # everywhere, including the calibration row, and still passes.
    check(
        "slow-machine",
        _doc(
            {("fr", "S=5"): 200_000.0, ("abd", "S=3"): 4e6},
            legacy_eps=500_000.0,
        ),
        False,
    )
    # ... but a real 30% drop is still caught on the slow machine.
    check(
        "slow-machine-real-drop",
        _doc(
            {("fr", "S=5"): 140_000.0, ("abd", "S=3"): 4e6},
            legacy_eps=500_000.0,
        ),
        True,
    )
    # Steady-state allocations fail regardless of speed.
    check(
        "steady-allocs",
        _doc({("fr", "S=5"): 4e5, ("abd", "S=3"): 8e6}, steady=3),
        True,
    )
    # An artifact stamped with the supported sweep-partial version passes;
    # a foreign version is refused outright (numbers from a codec this
    # tree cannot read are meaningless to ratio against).
    stamped = _doc({("fr", "S=5"): 4e5, ("abd", "S=3"): 8e6})
    stamped["sweep_partial_version"] = SWEEP_PARTIAL_VERSION
    check("partial-version-ok", stamped, False)
    foreign = _doc({("fr", "S=5"): 4e5, ("abd", "S=3"): 8e6})
    foreign["sweep_partial_version"] = SWEEP_PARTIAL_VERSION + 1
    check("partial-version-skew", foreign, True)
    # Millisecond-scale rows are reported but not hard-gated: at that
    # duration one scheduler preemption exceeds any threshold.
    check(
        "tiny-row-exempt",
        _doc({("fr", "S=5"): 280_000.0, ("abd", "S=3"): 8e6}, wall_ms=2.0),
        False,
    )
    # million_client rows ride the same gates: once baselined, a vanished
    # or regressed row fails, and steady-state allocations always fail.
    mbase = _doc(
        {("fr", "S=5"): 4e5}, million={(100_000, 10): (2e6, 0)}
    )
    mchecks = [
        (
            "million-identical",
            _doc({("fr", "S=5"): 4e5}, million={(100_000, 10): (2e6, 0)}),
            False,
        ),
        (
            "million-30pc-drop",
            _doc({("fr", "S=5"): 4e5}, million={(100_000, 10): (1.4e6, 0)}),
            True,
        ),
        ("million-missing-row", _doc({("fr", "S=5"): 4e5}), True),
        (
            "million-steady-allocs",
            _doc({("fr", "S=5"): 4e5}, million={(100_000, 10): (2e6, 7)}),
            True,
        ),
    ]
    for name, doc, want_fail in mchecks:
        failures, _ = compare(doc, mbase, 0.25)
        checks.append((name, bool(failures) == want_fail, failures))

    # Schema v4: the coalescing section contributes two gated rows (both
    # delivery engines), its steady counters are enforced, and coalesced
    # million_client rows are keyed apart from their per-message twins.
    cbase = _doc(
        {("fr", "S=5"): 4e5},
        million={(100_000, 10): (2e6, 0), (100_000, 10, True): (6e6, 0)},
        coalescing=(15e6, 45e6, 0),
    )
    cchecks = [
        (
            "coalescing-identical",
            _doc(
                {("fr", "S=5"): 4e5},
                million={(100_000, 10): (2e6, 0), (100_000, 10, True): (6e6, 0)},
                coalescing=(15e6, 45e6, 0),
            ),
            False,
        ),
        (
            "coalescing-30pc-drop",
            _doc(
                {("fr", "S=5"): 4e5},
                million={(100_000, 10): (2e6, 0), (100_000, 10, True): (6e6, 0)},
                coalescing=(15e6, 30e6, 0),
            ),
            True,
        ),
        (
            "coalescing-steady-allocs",
            _doc(
                {("fr", "S=5"): 4e5},
                million={(100_000, 10): (2e6, 0), (100_000, 10, True): (6e6, 0)},
                coalescing=(15e6, 45e6, 9),
            ),
            True,
        ),
        (
            # Only the coalesced million row regresses; the per-message twin
            # with the same (clients, ops) must not mask it.
            "coalesced-million-drop",
            _doc(
                {("fr", "S=5"): 4e5},
                million={(100_000, 10): (2e6, 0), (100_000, 10, True): (3e6, 0)},
                coalescing=(15e6, 45e6, 0),
            ),
            True,
        ),
        (
            "coalescing-section-vanished",
            _doc(
                {("fr", "S=5"): 4e5},
                million={(100_000, 10): (2e6, 0), (100_000, 10, True): (6e6, 0)},
            ),
            True,
        ),
    ]
    for name, doc, want_fail in cchecks:
        failures, _ = compare(doc, cbase, 0.25)
        checks.append((name, bool(failures) == want_fail, failures))

    # Schema v5: the fanout_replay section carries two ratio-gated rows and
    # the absolute mean-run-length gate; frame-order million twins are keyed
    # apart from both the dest-major default and the per-message rows.
    fbase = _doc(
        {("fr", "S=5"): 4e5},
        million={
            (100_000, 10): (2e6, 0),
            (100_000, 10, True, False): (6e6, 0),
            (100_000, 10, True, True): (9e6, 0),
        },
        fanout=(3e6, 6e6, 11.0),
    )
    fchecks = [
        (
            "fanout-identical",
            _doc(
                {("fr", "S=5"): 4e5},
                million={
                    (100_000, 10): (2e6, 0),
                    (100_000, 10, True, False): (6e6, 0),
                    (100_000, 10, True, True): (9e6, 0),
                },
                fanout=(3e6, 6e6, 11.0),
            ),
            False,
        ),
        (
            # Run length is gated absolutely: a short-run artifact fails
            # even with throughput intact.
            "fanout-short-runs",
            _doc(
                {("fr", "S=5"): 4e5},
                million={
                    (100_000, 10): (2e6, 0),
                    (100_000, 10, True, False): (6e6, 0),
                    (100_000, 10, True, True): (9e6, 0),
                },
                fanout=(3e6, 6e6, 5.0),
            ),
            True,
        ),
        (
            "fanout-dest-major-eps-drop",
            _doc(
                {("fr", "S=5"): 4e5},
                million={
                    (100_000, 10): (2e6, 0),
                    (100_000, 10, True, False): (6e6, 0),
                    (100_000, 10, True, True): (9e6, 0),
                },
                fanout=(3e6, 4e6, 11.0),
            ),
            True,
        ),
        (
            "fanout-section-vanished",
            _doc(
                {("fr", "S=5"): 4e5},
                million={
                    (100_000, 10): (2e6, 0),
                    (100_000, 10, True, False): (6e6, 0),
                    (100_000, 10, True, True): (9e6, 0),
                },
            ),
            True,
        ),
        (
            # Only the frame-order million twin regresses; neither sibling
            # key may mask it.
            "frame-order-million-drop",
            _doc(
                {("fr", "S=5"): 4e5},
                million={
                    (100_000, 10): (2e6, 0),
                    (100_000, 10, True, False): (4e6, 0),
                    (100_000, 10, True, True): (9e6, 0),
                },
                fanout=(3e6, 6e6, 11.0),
            ),
            True,
        ),
    ]
    for name, doc, want_fail in fchecks:
        failures, _ = compare(doc, fbase, 0.25)
        checks.append((name, bool(failures) == want_fail, failures))

    # Schema v6: the checked_soak section rides the ratio gate on its
    # events_per_sec and carries three absolute gates — verdict, steady
    # counters, and the peak_window headroom bound.
    sbase = _doc({("fr", "S=5"): 4e5}, soak=(5e6, True, 1000, 0))
    schecks = [
        (
            "soak-identical",
            _doc({("fr", "S=5"): 4e5}, soak=(5e6, True, 1000, 0)),
            False,
        ),
        (
            "soak-30pc-drop",
            _doc({("fr", "S=5"): 4e5}, soak=(3.5e6, True, 1000, 0)),
            True,
        ),
        (
            "soak-violation",
            _doc({("fr", "S=5"): 4e5}, soak=(5e6, False, 1000, 0)),
            True,
        ),
        (
            # Window growth inside the headroom passes (concurrency shifts
            # with workload tweaks)...
            "soak-window-within-headroom",
            _doc({("fr", "S=5"): 4e5}, soak=(5e6, True, 1800, 0)),
            False,
        ),
        (
            # ... but a blow-up past 2x the baseline means the checker is no
            # longer window-bounded.
            "soak-window-blowup",
            _doc({("fr", "S=5"): 4e5}, soak=(5e6, True, 5000, 0)),
            True,
        ),
        (
            "soak-steady-allocs",
            _doc({("fr", "S=5"): 4e5}, soak=(5e6, True, 1000, 4)),
            True,
        ),
        ("soak-section-vanished", _doc({("fr", "S=5"): 4e5}), True),
    ]
    for name, doc, want_fail in schecks:
        failures, _ = compare(doc, sbase, 0.25)
        checks.append((name, bool(failures) == want_fail, failures))

    # The batched cost-model engine row is gated like any other once
    # baselined: identical passes, a >25% normalized drop fails.
    bbase = _doc({("fr", "S=5"): 4e5}, batched_eps=50e6)
    for name, doc, want_fail in (
        (
            "batched-engine-identical",
            _doc({("fr", "S=5"): 4e5}, batched_eps=50e6),
            False,
        ),
        (
            "batched-engine-30pc-drop",
            _doc({("fr", "S=5"): 4e5}, batched_eps=35e6),
            True,
        ),
    ):
        failures, _ = compare(doc, bbase, 0.25)
        checks.append((name, bool(failures) == want_fail, failures))

    # A structurally malformed artifact is a usage error (exit 2), never a
    # regression (exit 1): one line naming the file, section and field.
    for name, doc, needles in malformed_cases(lambda: _doc({("fr", "S=5"): 4e5})):
        code, err = run_on_files(
            main, [base, doc], lambda p: ["--baseline", p[0], "--artifact", p[1]]
        )
        ok = malformed_case_ok(code, err, needles + ("run1.json",))
        checks.append((name, ok, ["exit {}: {}".format(code, err.strip())]))

    bad = [name for name, ok, _ in checks if not ok]
    for name, ok, failures in checks:
        print(
            "self-test {:<24} {}".format(name, "ok" if ok else "FAILED"),
            "" if ok else failures,
        )
    if bad:
        print("self-test FAILED:", ", ".join(bad))
        return 1
    print("self-test passed ({} cases)".format(len(checks)))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--artifact", help="fresh BENCH_simcore.json")
    ap.add_argument("--baseline", help="checked-in baseline artifact")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional drop of normalized events/sec (default 0.25)",
    )
    ap.add_argument(
        "--min-wall-ms",
        type=float,
        default=5.0,
        help="rows faster than this are reported but not gated (default 5)",
    )
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.artifact or not args.baseline:
        ap.error("--artifact and --baseline are required (or use --self-test)")

    try:
        artifact = load_artifact(args.artifact)
        baseline = load_artifact(args.baseline)
    except ArtifactError as e:
        print("bench_trend:", e, file=sys.stderr)
        return 2

    failures, lines = compare(
        artifact, baseline, args.max_regression, args.min_wall_ms
    )
    print(
        "bench_trend: {} vs {} (max regression {:.0%}, {})".format(
            args.artifact,
            args.baseline,
            args.max_regression,
            "normalized by in-run calibration"
            if calibration(artifact) and calibration(baseline)
            else "raw",
        )
    )
    for line in lines:
        print(line)
    if failures:
        print("\nbench_trend: FAIL")
        for f in failures:
            print("  -", f)
        print(
            "If this change is a deliberate trade-off, refresh the baseline:\n"
            "  cmake --build build --target refresh-baseline\n"
            "and commit bench/baselines/BENCH_simcore.baseline.json."
        )
        return 1
    print("\nbench_trend: OK ({} rows gated)".format(len(collect_rows(baseline))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
