#!/usr/bin/env python3
"""Perf gate for BENCH_simcore.json: one spec table is the artifact's
schema and its gate.

Usage:
    bench_trend.py --baseline bench/baselines/BENCH_simcore.baseline.json \
                   --artifact run1.json run2.json run3.json
    bench_trend.py --self-test

SPEC names every section, the key fields that identify a row of a list
section, and gives every other field one kind:

  exact   seed-determined (events, messages, bytes, counters, run lengths,
          windows, p99s, ack sizes): must equal the baseline.
  host    a throughput row. Each run's value is divided by that run's own
          engine_comparison.legacy_events_per_sec, an in-run replay of a
          fixed engine that calibrates for machine speed. The row fails
          only when every gated run is more than MAX_DROP below every
          baseline run: noise that lets the runs overlap never fails.
  report  wall times, speedups, msgs/sec, checker ns/op: printed, never
          judged.
  bound   an exact field that must also meet an absolute bound no
          baseline refresh can relax: steady allocation counters are 0,
          and the checked soak is atomic over at least 10^6 ops.

merge() builds both sides. Runs must agree on every exact field; host and
report fields keep one value per run, so a merged document holds them as
lists. The baseline is a merged document of at least BASELINE_RUNS runs
(scripts/rebaseline.py writes it); the gate merges the --artifact runs and
refuses fewer than GATED_RUNS. A field the spec does not name is refused,
so the spec stays the schema. A baselined row or field missing from the
gated runs fails, and so does a missing bound field outside a list section,
whatever the baseline holds; rebaseline.py refuses a baseline that breaks a
bound.

Refresh the baseline after a deliberate change with
    cmake --build build --target refresh-baseline
and commit bench/baselines/BENCH_simcore.baseline.json.

Exit codes: 0 pass, 1 gate failure or runs that disagree, 2 usage, I/O or
malformed input (one line naming the file, row and field).
"""

import argparse
import collections
import contextlib
import io
import json
import operator
import os
import statistics
import sys
import tempfile

EXACT, HOST, REPORT = "exact", "host", "report"
ZERO = ("==", 0)
BOUND_OPS = {"==": operator.eq, ">=": operator.ge}
# keys None: the section is one object; else a list of rows keyed by keys.
Section = collections.namedtuple("Section", "keys fields")
STEADY = dict(steady_engine_allocs=ZERO, steady_pool_misses=ZERO)

SPEC = Section(None, dict(
    bench=EXACT,
    schema_version=EXACT,
    engine_comparison=Section(None, dict(
        workload=EXACT, hops=EXACT, legacy_events_per_sec=REPORT,
        pooled_events_per_sec=REPORT, batched_events_per_sec=HOST,
        speedup=REPORT, batched_speedup=REPORT)),
    coalescing=Section(None, dict(
        workload=EXACT, frames=EXACT, per_message_events_per_sec=HOST,
        coalesced_events_per_sec=HOST, coalesce_speedup=REPORT,
        batches=EXACT, lone=EXACT, frames_per_batch=EXACT,
        batch_size_hist=Section(("ge",), dict(count=EXACT)),
        exact_ns_per_message_events_per_sec=HOST,
        exact_ns_coalesced_events_per_sec=HOST, exact_ns_speedup=REPORT,
        exact_ns_batches=EXACT, exact_ns_lone=EXACT, created_batches=EXACT,
        created_chunks=EXACT, created_blocks=EXACT, **STEADY)),
    workloads=Section(("protocol", "cluster"), dict(
        ops_per_client=EXACT, events=EXACT, msgs=EXACT, bytes_on_wire=EXACT,
        wall_ms=REPORT, events_per_sec=HOST, msgs_per_sec=REPORT,
        engine_allocs=EXACT, pool_misses=EXACT, **STEADY)),
    million_client=Section(
        ("protocol", "clients", "ops_per_client", "coalesce"),
        dict(keyspace=EXACT, mean_run_len=EXACT, events=EXACT, msgs=EXACT,
             wall_ms=REPORT, events_per_sec=HOST, write_p99_ms=EXACT,
             read_p99_ms=EXACT, per_key_read_p99_max_ms=EXACT, **STEADY)),
    checked_soak=Section(None, dict(
        workload=EXACT, protocol=EXACT, keyspace=EXACT, clients=EXACT,
        ops_per_client=EXACT, ops_checked=(">=", 10**6),
        verdict_atomic=("==", True), peak_window=EXACT, peak_pending=EXACT,
        retired_tags=EXACT, history_live=EXACT, events=EXACT,
        wall_ms=REPORT, events_per_sec=HOST, checker_ns_per_op=REPORT,
        **STEADY)),
    valuevector=Section(("protocol", "cluster", "workload"), dict(
        gc_enabled=EXACT, ops_per_client=EXACT, events=EXACT, msgs=EXACT,
        bytes_on_wire=EXACT, read_acks=EXACT, read_ack_bytes=EXACT,
        wall_ms=REPORT, events_per_sec=HOST, read_ack_bytes_warm=EXACT,
        read_ack_bytes_late=EXACT, ack_growth=EXACT)),
))
CALIBRATION = ("engine_comparison", "legacy_events_per_sec")


def _bounded(sec, row):
    """Bound fields outside list sections: every run must carry them."""
    for field, kind in sec.fields.items():
        if isinstance(kind, Section):
            if kind.keys is None:
                yield from _bounded(kind, row + "." + field if row else field)
        elif isinstance(kind, tuple):
            yield row, field


REQUIRED = list(_bounded(SPEC, ""))
MAX_DROP = 0.25
BASELINE_RUNS = 5
GATED_RUNS = 3


class ArtifactError(Exception):
    """Unreadable or malformed input: exit 2, never a gate failure."""


class GateError(Exception):
    """Runs that disagree on an exact field or on their row set: exit 1."""


_JSON_TYPES = {
    bool: "boolean", dict: "object", list: "list", str: "string",
    type(None): "null",
}


def _json_type(v):
    return _JSON_TYPES.get(type(v), "number")


def _name(key):
    row, field = key
    return row + "." + field if row else field


def _walk(obj, sec, row, where, out):
    if not isinstance(obj, dict):
        raise ArtifactError("{}: expected an object, got {}".format(
            where or "top level", _json_type(obj)))
    keys = sec.keys or ()
    for field in keys:
        if field not in obj:
            raise ArtifactError("{}: missing field '{}'".format(where, field))
    if keys:
        row += "".join("/" + str(obj[k]) if _json_type(obj[k]) == "string"
                       else "/" + json.dumps(obj[k]) for k in keys)
        if (row, keys[0]) in out:
            raise ArtifactError("{}: duplicate row {}".format(where, row))
    for field, value in obj.items():
        kind = EXACT if field in keys else sec.fields.get(field)
        name = where + "." + field if where else field
        if kind is None:
            raise ArtifactError("{}: field '{}' is not in the spec".format(
                where or "top level", field))
        if not isinstance(kind, Section):
            _leaf(obj, field, kind, where or "top level")
            out[(row, field)] = (kind, obj)
        elif kind.keys is None:
            _walk(value, kind, name, name, out)
        elif not isinstance(value, list):
            raise ArtifactError("{}: expected a list of rows, got {}".format(
                name, _json_type(value)))
        else:
            for i, r in enumerate(value):
                _walk(r, kind, name, "{}[{}]".format(name, i), out)


def _leaf(obj, field, kind, where):
    """Type-check obj[field]; host and report values become per-run lists."""
    if kind in (HOST, REPORT):
        if _json_type(obj[field]) == "number":
            obj[field] = [obj[field]]
        ok = isinstance(obj[field], list) and obj[field] and all(
            _json_type(v) == "number" for v in obj[field])
        want = "number"
    else:
        want = _json_type(kind[1]) if isinstance(kind, tuple) else "scalar"
        ok = _json_type(obj[field]) in (
            (want,) if want != "scalar" else ("string", "number", "boolean"))
    if not ok:
        raise ArtifactError("{}: field '{}' is not a {}: {}".format(
            where, field, want, json.dumps(obj[field])))


def flatten(doc):
    """Validate `doc` against SPEC and return {(row, field): (kind, obj)}
    with the value at obj[field]; raises ArtifactError on the first shape
    error."""
    out = {}
    _walk(doc, SPEC, "", "", out)
    return out


def calibration(leaves):
    """Per-run calibration values; every host and report field must hold
    one value per run."""
    if CALIBRATION not in leaves:
        raise ArtifactError("missing calibration " + _name(CALIBRATION))
    cal = leaves[CALIBRATION][1][CALIBRATION[1]]
    for key, (kind, obj) in leaves.items():
        if kind in (HOST, REPORT) and len(obj[key[1]]) != len(cal):
            raise ArtifactError("{}: {} values for {} runs".format(
                _name(key), len(obj[key[1]]), len(cal)))
    if min(cal) <= 0:
        raise ArtifactError(_name(CALIBRATION) + " must be positive")
    return cal


def runs(doc):
    return len(calibration(flatten(doc)))


def load(path):
    """Read and validate one artifact or merged document."""
    try:
        with open(path) as f:
            doc = json.load(f)
        runs(doc)
    except (OSError, ValueError) as e:
        raise ArtifactError("{}: cannot load: {}".format(path, e))
    except ArtifactError as e:
        raise ArtifactError("{}: {}".format(path, e))
    return doc


def merge(docs):
    """One document from `docs`: exact fields must agree and are kept once,
    host and report fields keep every run's value in run order. Raises
    GateError on runs that disagree."""
    out = json.loads(json.dumps(docs[0]))
    leaves = flatten(out)
    for n, doc in enumerate(docs[1:], start=2):
        other = flatten(doc)
        diff = sorted(leaves.keys() ^ other.keys())
        if diff:
            raise GateError("{}: in run {} but not in run {}".format(
                _name(diff[0]), *((1, n) if diff[0] in leaves else (n, 1))))
        for key, (kind, obj) in leaves.items():
            mine, theirs = obj[key[1]], other[key][1][key[1]]
            if kind in (HOST, REPORT):
                mine.extend(theirs)
            elif mine != theirs:
                raise GateError("{}: run {} has {}, run 1 has {}".format(
                    _name(key), n, json.dumps(theirs), json.dumps(mine)))
    return out


def _line(kind, key, base, gated, fail):
    b, g = statistics.median(base), statistics.median(gated)
    return "{:<7}{:<78}{:>11.4g}{:>11.4g}{:>7.2f}x{}".format(
        kind, _name(key), b, g, g / b if b else float("inf"),
        "  << FAIL" if fail else "")


def _rows(keys, what):
    """One line per row: '<row>: <its fields among keys> <what>'."""
    rows = collections.defaultdict(list)
    for row, field in keys:
        rows[row].append(field)
    return ["{}: {} {}".format(r, ", ".join(f), what) for r, f in rows.items()]


def bounds(leaves):
    """Failures of the bounds no baseline can relax: a bound field that
    breaks its bound or, being one of REQUIRED, is missing."""
    fails = _rows([k for k in REQUIRED if k not in leaves],
                  "missing; their bounds hold whatever the baseline")
    for key, (kind, obj) in leaves.items():
        value = obj[key[1]]
        if isinstance(kind, tuple) and not BOUND_OPS[kind[0]](value, kind[1]):
            fails.append("{}: {} breaks the bound {} {}".format(
                _name(key), json.dumps(value), kind[0], json.dumps(kind[1])))
    return fails


def gate(base, gated):
    """(failures, report lines) for merged documents `base` and `gated`."""
    b, g = flatten(base), flatten(gated)
    bcal, gcal = calibration(b), calibration(g)
    fails, lines, exact = bounds(g), [], 0
    for key, (kind, obj) in b.items():
        if key not in g:
            continue
        want, got = obj[key[1]], g[key][1][key[1]]
        if kind == HOST:
            bn = [v / c for v, c in zip(want, bcal)]
            gn = [v / c for v, c in zip(got, gcal)]
            dropped = max(gn) < (1 - MAX_DROP) * min(bn)
            lines.append(_line(kind, key, bn, gn, dropped))
            if dropped:
                fails.append(
                    "{}: every run is more than {:.0%} below every baseline "
                    "run ({:.2f}x of the baseline median, normalized)".format(
                        _name(key), MAX_DROP,
                        statistics.median(gn) / statistics.median(bn)))
        elif kind == REPORT:
            lines.append(_line(kind, key, want, got, False))
        elif want != got:
            fails.append("{}: {} != baseline {}".format(
                _name(key), json.dumps(got), json.dumps(want)))
        else:
            exact += 1
    fails += _rows([k for k in b if k not in g and k not in REQUIRED],
                   "missing from the gated runs")
    lines += _rows([k for k in g if k not in b], "new, not gated")
    lines.append("exact: {} values equal to the baseline".format(exact))
    return fails, lines


# ---- self-test -------------------------------------------------------------

ROWS = {
    "workloads": [("fr", "S=5"), ("abd", "S=3")],
    "million_client": [("mw", 10**5, 10, False),
                       ("mw", 10**5, 10, True)],
    "valuevector": [("fr", "S=5", "W2R1-long")],
    "batch_size_hist": [(1,), (2,)],
}
DROP = "drop"  # an edit returning DROP leaves the run out


def synthetic(sec=SPEC, keys=()):
    """An artifact covering every SPEC field: exact fields are 1, bounds
    sit on their limit, host fields are 1e6 and report fields 1.0."""
    doc = dict(zip(sec.keys or (), keys))
    for field, kind in sec.fields.items():
        if isinstance(kind, Section):
            doc[field] = (synthetic(kind) if kind.keys is None else
                          [synthetic(kind, k) for k in ROWS[field]])
        else:
            doc[field] = kind[1] if isinstance(kind, tuple) else {
                EXACT: 1, HOST: 1e6, REPORT: 1.0}[kind]
    return doc


def at(doc, path):
    """(container, key) of a dotted path such as 'workloads.0.events'."""
    *parts, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    for p in parts:
        doc = doc[p]
    return doc, last


def edit(*pairs):
    """Edit every gated run: (path, value | callable on the old value |
    None to delete) pairs."""
    def apply(doc, i):
        for path, new in zip(pairs[::2], pairs[1::2] if i >= 0 else ()):
            c, k = at(doc, path)
            if new is None:
                del c[k]
            else:
                c[k] = new(c[k]) if callable(new) else new
    return apply


def x(f):
    return lambda v: [a * f for a in v]


def scale(f, calibrated=False):
    """Multiply run i's host values (and, if `calibrated`, its calibration)
    by f(i)."""
    def apply(doc, i):
        for key, (kind, obj) in flatten(doc).items():
            if kind == HOST or calibrated and key == CALIBRATION:
                obj[key[1]] = [v * f(i) for v in obj[key[1]]]
    return apply


# A baseline from a machine twice as fast, gated runs on one twice as slow:
# only each side's own calibration tells them apart.
SLOW = scale(lambda i: 0.5 if i >= 0 else 2, calibrated=True)


def spread(f):
    """Baseline runs at 0.8, 0.9, ... 1.2x; gated runs at f x."""
    return scale(lambda i: 1.3 + i / 10 if i < 0 else f)


def run_on_files(main, docs, make_argv):
    """Write `docs` (objects, or text written verbatim) to temp files, run
    main(make_argv(paths)) and return (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, "run{}.json".format(i)))
            with open(paths[-1], "w") as f:
                f.write(doc if isinstance(doc, str) else json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(make_argv(paths))
    return code, out.getvalue(), err.getvalue()


def case_ok(code, out, err, want, needle):
    """Exit `want`; a refusal (2) is exactly one stderr line; `needle` must
    appear in the output."""
    one_line = want != 2 or err.count("\n") == 1
    return code == want and one_line and needle in out + err


MALFORMED = [
    ("malformed-missing-key", 2, edit("workloads.0.protocol", None),
     "run1.json: workloads[0]: missing field 'protocol'"),
    ("malformed-not-a-number", 2, edit("workloads.0.events_per_sec", "n/a"),
     "run1.json: workloads[0]: field 'events_per_sec' is not a number"),
    ("malformed-section-shape", 2, edit("workloads", {}),
     "run1.json: workloads: expected a list of rows, got object"),
]
EPS = "workloads.0.events_per_sec"
CASES = MALFORMED + [
    ("identical", 0, edit(), "exact: "),
    ("10pc-dip", 0, edit(EPS, x(0.9)), ""),
    ("30pc-drop", 1, edit(EPS, x(0.7)), "workloads/fr/S=5.events_per_sec:"),
    ("missing-row", 1, edit("workloads.1", None), "workloads/abd/S=3: "),
    ("new-row", 0, lambda d, i: i >= 0 and d["workloads"].append(
        dict(d["workloads"][0], cluster="S=9")), "workloads/fr/S=9: protocol"),
    ("slow-machine", 0, SLOW, ""),
    ("slow-machine-real-drop", 1,
     lambda d, i: SLOW(d, i) or edit(EPS, x(0.7))(d, i), "S=5.ev"),
    ("steady-allocs", 1, edit("workloads.0.steady_engine_allocs", 3),
     "S=5.steady_engine_allocs: 3 breaks the bound == 0"),
    ("million-identical", 0, edit(), ""),
    ("million-30pc-drop", 1, edit("million_client.0.events_per_sec", x(0.7)),
     "million_client/mw/100000/10/false.events_per_sec:"),
    ("million-missing-row", 1, edit("million_client.0", None),
     "million_client/mw/100000/10/false: "),
    ("million-steady-allocs", 1,
     edit("million_client.0.steady_engine_allocs", 7), "false.steady_engine"),
    ("coalescing-identical", 0, edit(), ""),
    ("coalescing-30pc-drop", 1,
     edit("coalescing.coalesced_events_per_sec", x(0.7)),
     "coalescing.coalesced_events_per_sec:"),
    ("coalescing-steady-allocs", 1, edit("coalescing.steady_engine_allocs", 9),
     "coalescing.steady_engine_allocs: 9 breaks"),
    ("exact-ns-30pc-drop", 1,
     edit("coalescing.exact_ns_coalesced_events_per_sec", x(0.7)),
     "coalescing.exact_ns_coalesced_events_per_sec:"),
    ("exact-ns-lone-moved", 1, edit("coalescing.exact_ns_lone", 2),
     "coalescing.exact_ns_lone: 2 != baseline 1"),
    ("created-chunks-moved", 1, edit("coalescing.created_chunks", 2),
     "coalescing.created_chunks: 2 != baseline 1"),
    ("coalesced-million-drop", 1,
     edit("million_client.1.events_per_sec", x(0.5)),
     "million_client/mw/100000/10/true.events_per_sec:"),
    ("coalescing-section-vanished", 1, edit("coalescing", None),
     "coalescing: workload"),
    ("soak-identical", 0, edit(), ""),
    ("soak-30pc-drop", 1, edit("checked_soak.events_per_sec", x(0.7)),
     "checked_soak.events_per_sec:"),
    ("soak-violation", 1, edit("checked_soak.verdict_atomic", False),
     "checked_soak.verdict_atomic: false breaks the bound == true"),
    ("soak-window-blowup", 1, edit("checked_soak.peak_window", 5000),
     "checked_soak.peak_window: 5000 != baseline 1"),
    ("soak-steady-allocs", 1, edit("checked_soak.steady_engine_allocs", 4),
     "checked_soak.steady_engine_allocs: 4 breaks"),
    ("soak-section-vanished", 1, edit("checked_soak", None),
     "checked_soak: workload"),
    ("batched-engine-identical", 0, edit(), ""),
    ("batched-engine-30pc-drop", 1,
     edit("engine_comparison.batched_events_per_sec", x(0.7)),
     "engine_comparison.batched_events_per_sec:"),
    # One pass and one fail case per gate kind.
    ("exact-bytes-plus-one", 1,
     edit("workloads.0.bytes_on_wire", lambda v: v + 1),
     "workloads/fr/S=5.bytes_on_wire: 2 != baseline 1"),
    ("host-noisy-overlap", 0, lambda d, i: i >= 0 and edit(
        EPS, x([0.6, 0.65, 0.8][i]))(d, i), ""),
    ("host-dominated", 1, lambda d, i: i >= 0 and edit(
        EPS, x([0.7, 0.72, 0.74][i]))(d, i), "S=5.events_per_sec: every"),
    # The rule compares against the slowest baseline run, not the median.
    ("host-spread-baseline-pass", 0, spread(0.7), ""),
    ("host-spread-baseline-fail", 1, spread(0.55), "S=5.events_per_sec: ev"),
    ("report-moves-freely", 0, edit("workloads.0.wall_ms", x(5)), ""),
    ("report-missing", 1, edit("workloads.0.wall_ms", None),
     "workloads/fr/S=5: wall_ms missing"),
    ("bound-at-limit", 0, edit("checked_soak.ops_checked", 10**6), ""),
    ("bound-not-relaxed-by-baseline", 1,
     lambda d, i: d["checked_soak"].update(ops_checked=999999),
     "checked_soak.ops_checked: 999999 breaks the bound >= 1000000"),
    ("bound-section-dropped-everywhere", 1,
     lambda d, i: d.pop("checked_soak") and None,
     "checked_soak: ops_checked, verdict_atomic, steady_engine_allocs"),
    ("runs-disagree", 1, lambda d, i: i == 1 and edit(
        "workloads.0.events", 2)(d, i), "workloads/fr/S=5.events: run 2 has"),
    ("duplicate-row", 2, lambda d, i: i >= 0 and d["workloads"].append(
        d["workloads"][0]), "run1.json: workloads[2]: duplicate row"),
    ("unknown-field", 2, edit("sweep_partial_version", 2),
     "run1.json: top level: field 'sweep_partial_version' is not in the spec"),
    ("too-few-gated-runs", 2, lambda d, i: DROP if i == 2 else None,
     "needs at least 3"),
    ("too-few-baseline-runs", 2, lambda d, i: DROP if i == -1 else None,
     "needs at least 5"),
]
SMALL = json.dumps({"bench": "simcore_throughput",
                    "engine_comparison": {"legacy_events_per_sec": 1e6}})


def build_runs(edit_fn, n, first):
    """n synthetic runs, each passed through edit_fn(doc, i) for
    i = first, first + 1, ...; baseline runs get i < 0."""
    out = []
    for i in range(first, first + n):
        doc = synthetic()
        flatten(doc)
        got = edit_fn(doc, i)
        if got != DROP:
            out.append(got if isinstance(got, str) else doc)
    return out


def self_test():
    cases = CASES + [("truncated-{}".format(n), 2,
                      lambda d, i, n=n: SMALL[:n] if i == 0 else None,
                      "run1.json: cannot load") for n in range(len(SMALL))]
    cases.append(("small-document-accepted", 1,
                  lambda d, i: SMALL if i >= 0 else None,
                  "missing from the gated runs"))
    return run_cases(main, cases,
                     lambda p: ["--baseline", p[0], "--artifact"] + p[1:],
                     lambda fn: [merge(build_runs(fn, 5, -5))] +
                     build_runs(fn, 3, 0))


def run_cases(main, cases, make_argv, make_docs):
    """Run (name, exit code, edit, needle) cases through `main`; print one
    line each."""
    bad = []
    for name, want, fn, needle in cases:
        code, out, err = run_on_files(main, make_docs(fn), make_argv)
        ok = case_ok(code, out, err, want, needle)
        print("self-test {:<32} {}".format(name, "ok" if ok else "FAILED"))
        if not ok:
            bad.append(name)
            print("  exit {} (want {}), needle {!r}\n{}{}".format(
                code, want, needle, out[-2000:], err))
    print("self-test " + ("FAILED: " + ", ".join(bad) if bad else
                          "passed ({} cases)".format(len(cases))))
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", help="merged baseline (rebaseline.py)")
    ap.add_argument("--artifact", nargs="+",
                    help="at least {} BENCH_simcore.json runs".format(
                        GATED_RUNS))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.artifact or not args.baseline:
        ap.error("--artifact and --baseline are required (or --self-test)")
    try:
        base = load(args.baseline)
        docs = [load(p) for p in args.artifact]
        counts = runs(base), sum(map(runs, docs))
        for what, n, need in zip(("baseline", "gate"), counts,
                                 (BASELINE_RUNS, GATED_RUNS)):
            if n < need:
                raise ArtifactError("the {} needs at least {} runs, got {}"
                                    .format(what, need, n))
    except ArtifactError as e:
        print("bench_trend:", e, file=sys.stderr)
        return 2
    try:
        gated = merge(docs)
        failures, lines = gate(base, gated)
    except GateError as e:
        failures, lines = [str(e)], []
    print("bench_trend: {1} runs vs a {0}-run baseline; host rows normalized "
          "by {2}".format(*counts, _name(CALIBRATION)))
    print("{:<7}{:<78}{:>11}{:>11}{:>8}".format(
        "kind", "row.field", "baseline", "gated", "ratio"))
    print("\n".join(lines))
    if failures:
        print("\nbench_trend: FAIL")
        print("\n".join("  - " + f for f in failures))
        print("If the change moves these numbers on purpose, refresh the "
              "baseline:\n  cmake --build build --target refresh-baseline\n"
              "and commit bench/baselines/BENCH_simcore.baseline.json.")
        return 1
    print("\nbench_trend: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
