#!/usr/bin/env python3
"""Drive a shard-merge and prove it byte-identical to the unsharded run.

Usage:
    merge_shards.py --binary build/sweep_merge --out merged \
                    [--diff-against single_process_reports/] \
                    shard0.partial shard1.partial ...
    merge_shards.py --self-test

CI runs the reference sweep twice — once as a single process, once as N
shard processes — then calls this script on the shard partials. It

  1. asks `sweep_merge --describe` for every partial's header and checks
     the fleet is coherent *before* merging: every file carries partial
     format version 1, every group of same-named partials agrees
     on shard count / total trials / expansion digest, shard indices
     cover 0..N-1 exactly once, and the per-shard trial counts sum to the
     expansion total;
  2. runs `sweep_merge` to fold the partials into <out>/<stem>.csv/.json;
  3. with --diff-against, byte-compares every merged report against the
     single-process report of the same name. Any differing byte fails.

The byte-diff is the whole point: aggregation is float-order sensitive,
so "semantically equal" reports are not good enough evidence that shard
slicing preserved the expansion order. Identical bytes are.

Exit codes: 0 ok, 1 validation/merge/diff failure, 2 usage or I/O error.
"""

import argparse
import json
import os
import subprocess
import sys

# Must match kPartialVersion in src/exp/partial.h. Bump both together;
# the C++ reader refuses other versions, and so does validate_headers()
# below, so a stale sweep_explorer binary in a CI matrix leg fails
# loudly instead of merging a format this build cannot actually parse.
PARTIAL_VERSION = 2

REPORT_FORMATS = (".csv", ".json")


def describe(binary, paths):
    """Run `sweep_merge --describe` and parse one header dict per line.

    Returns (headers, error): headers is a list of dicts on success,
    error is a string on any decode refusal or unparsable output.
    """
    proc = subprocess.run(
        [binary, "--describe"] + list(paths),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        return None, "describe failed: " + proc.stderr.strip()
    headers = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            headers.append(json.loads(line))
        except ValueError as e:
            return None, "unparsable describe line {!r}: {}".format(line, e)
    if len(headers) != len(paths):
        return None, "describe printed {} headers for {} files".format(
            len(headers), len(paths)
        )
    return headers, None


def validate_headers(headers):
    """Check a fleet of partial headers is complete and coherent.

    Returns a list of error strings; empty means the fleet is mergeable.
    Mirrors the refusals in merge_partials() so CI can report *which*
    shard is wrong before the C++ merge aborts on the first problem.
    """
    errors = []
    groups = {}
    for h in headers:
        if h.get("version") != PARTIAL_VERSION:
            errors.append(
                "{}: partial version {} but this script expects {}".format(
                    h.get("file", "?"), h.get("version"), PARTIAL_VERSION
                )
            )
            continue
        groups.setdefault(h["name"], []).append(h)

    for name, hs in sorted(groups.items()):
        counts = {h["of"] for h in hs}
        totals = {h["total_trials"] for h in hs}
        digests = {h["expansion_digest"] for h in hs}
        if len(counts) != 1 or len(totals) != 1 or len(digests) != 1:
            errors.append(
                "{}: shards disagree on expansion "
                "(counts={}, totals={}, digests={})".format(
                    name, sorted(counts), sorted(totals), sorted(digests)
                )
            )
            continue
        count = counts.pop()
        seen = {}
        for h in hs:
            idx = h["shard"]
            if not 0 <= idx < count:
                errors.append(
                    "{}: shard index {} out of range for /{}".format(
                        name, idx, count
                    )
                )
            elif idx in seen:
                errors.append(
                    "{}: shard {}/{} given twice ({} and {})".format(
                        name, idx, count, seen[idx], h.get("file", "?")
                    )
                )
            else:
                seen[idx] = h.get("file", "?")
        missing = sorted(set(range(count)) - set(seen))
        if missing:
            errors.append(
                "{}: missing shard(s) {} of /{}".format(name, missing, count)
            )
        got = sum(h["trials"] for h in hs)
        want = totals.pop()
        if not missing and got != want:
            errors.append(
                "{}: shards carry {} trials but the expansion has {}".format(
                    name, got, want
                )
            )
    return errors


def byte_diff(merged_dir, reference_dir, stems):
    """Byte-compare <stem>.csv/.json between two report dirs.

    Returns a list of error strings; empty means every report matched.
    """
    errors = []
    for stem in sorted(stems):
        for ext in REPORT_FORMATS:
            a = os.path.join(merged_dir, stem + ext)
            b = os.path.join(reference_dir, stem + ext)
            try:
                with open(a, "rb") as f:
                    merged = f.read()
                with open(b, "rb") as f:
                    reference = f.read()
            except OSError as e:
                errors.append("cannot read report pair: {}".format(e))
                continue
            if merged != reference:
                n = next(
                    (
                        i
                        for i, (x, y) in enumerate(zip(merged, reference))
                        if x != y
                    ),
                    min(len(merged), len(reference)),
                )
                errors.append(
                    "{} differs from {} (first differing byte at offset {}, "
                    "sizes {} vs {})".format(a, b, n, len(merged), len(reference))
                )
            else:
                print(
                    "merge_shards: {} == {} ({} bytes)".format(
                        a, b, len(merged)
                    )
                )
    return errors


# ---- self-test -------------------------------------------------------------


def _header(file, name="ref_sweep", shard=0, of=3, trials=5, total=15,
            digest="00c0ffee00c0ffee", version=PARTIAL_VERSION):
    return {
        "file": file,
        "version": version,
        "name": name,
        "shard": shard,
        "of": of,
        "trials": trials,
        "total_trials": total,
        "expansion_digest": digest,
    }


def self_test():
    ok = True

    def check(name, headers, want_fail):
        nonlocal ok
        errors = validate_headers(headers)
        good = bool(errors) == want_fail
        print(
            "self-test {:<28} {}".format(name, "ok" if good else "FAILED")
        )
        if not good:
            for e in errors:
                print("  unexpected:", e)
        ok = ok and good

    complete = [
        _header("a.partial", shard=0),
        _header("b.partial", shard=1),
        _header("c.partial", shard=2),
    ]
    check("complete-fleet-ok", complete, want_fail=False)
    check(
        "two-sweeps-grouped-ok",
        complete
        + [
            _header("k0.partial", name="fault_sweep", shard=0, of=2,
                    trials=4, total=8, digest="deadbeefdeadbeef"),
            _header("k1.partial", name="fault_sweep", shard=1, of=2,
                    trials=4, total=8, digest="deadbeefdeadbeef"),
        ],
        want_fail=False,
    )
    check(
        "empty-shard-ok",
        [
            _header("a.partial", shard=0, of=2, trials=15),
            _header("b.partial", shard=1, of=2, trials=0),
        ],
        want_fail=False,
    )
    check(
        "version-mismatch-refused",
        [_header("a.partial", version=PARTIAL_VERSION + 1)],
        want_fail=True,
    )
    check(
        "missing-shard-refused",
        [complete[0], complete[2]],
        want_fail=True,
    )
    check(
        "duplicate-shard-refused",
        complete + [_header("dup.partial", shard=1)],
        want_fail=True,
    )
    check(
        "foreign-digest-refused",
        [
            complete[0],
            complete[1],
            _header("c.partial", shard=2, digest="0123456789abcdef"),
        ],
        want_fail=True,
    )
    check(
        "shard-count-skew-refused",
        [complete[0], _header("b.partial", shard=1, of=4)],
        want_fail=True,
    )
    check(
        "index-out-of-range-refused",
        complete + [_header("d.partial", shard=3)],
        want_fail=True,
    )
    check(
        "trial-shortfall-refused",
        [
            _header("a.partial", shard=0, trials=5),
            _header("b.partial", shard=1, trials=5),
            _header("c.partial", shard=2, trials=4),
        ],
        want_fail=True,
    )
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("partials", nargs="*", help="shard .partial files")
    ap.add_argument("--binary", help="path to the sweep_merge binary")
    ap.add_argument("--out", default=".", help="directory for merged reports")
    ap.add_argument(
        "--diff-against",
        help="directory of single-process reports to byte-compare with",
    )
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.partials or not args.binary:
        ap.error("partials and --binary are required (or --self-test)")

    headers, err = describe(args.binary, args.partials)
    if headers is None:
        print("merge_shards:", err, file=sys.stderr)
        return 1
    errors = validate_headers(headers)
    if errors:
        for e in errors:
            print("merge_shards:", e, file=sys.stderr)
        return 1
    stems = sorted({h["name"] for h in headers})
    print(
        "merge_shards: {} partials across {} sweep(s): {}".format(
            len(headers), len(stems), ", ".join(stems)
        )
    )

    proc = subprocess.run([args.binary, "--out", args.out] + args.partials)
    if proc.returncode != 0:
        print(
            "merge_shards: sweep_merge exited {}".format(proc.returncode),
            file=sys.stderr,
        )
        return 1

    if args.diff_against:
        errors = byte_diff(args.out, args.diff_against, stems)
        if errors:
            for e in errors:
                print("merge_shards:", e, file=sys.stderr)
            return 1
        print("merge_shards: all merged reports byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
