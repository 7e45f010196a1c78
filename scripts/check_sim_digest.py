#!/usr/bin/env python3
"""Check benchmark runs' sim_digest against the recorded seed-1 values.

Usage:
    check_sim_digest.py RESULTS.json [--require W [W ...]]
    check_sim_digest.py --self-test

RESULTS.json is a result file written by `benchmark/run.py --out`. Every
run in it must be at a seed listed in EXPECTED, and its sim_digest must
equal the value recorded there for its workload. A sim_digest is an FNV
digest of one repetition's simulated history, so it moves only when an
observable of the simulation moves: a storage or scheduling change that
should be invisible fails here instead of passing every correctness check
with a different execution. --require names workloads the file must hold
a run of, so a dropped smoke run cannot pass by absence.

EXPECTED holds the seed-1 values recorded in ROADMAP.md (Recent). A change
that moves a digest on purpose updates both.

Exit codes: 0 every digest matches, 1 a digest differs or a required
workload is missing, 2 usage, I/O or malformed input.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

EXPECTED = {
    1: {
        "design_sweep": "3ba89709576c788a",
        "fault_sweep": "f3b6101f8fa7f934",
        "keyspace_soak": "67826b68176c383c",
        "checked_soak": "73da2047cf75331b",
        "fastread_keyspace": "c269e6e340a4d5ab",
    },
}
RESULT_FORMAT = "mwreg-benchmark-results"


class Malformed(Exception):
    """Input that cannot be checked: exit 2."""


def load_runs(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed("{}: cannot load: {}".format(path, e))
    if not isinstance(doc, dict) or doc.get("format") != RESULT_FORMAT:
        raise Malformed("{}: not a {} file".format(path, RESULT_FORMAT))
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        raise Malformed("{}: holds no runs".format(path))
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise Malformed("{}: run {} is not an object".format(path, i))
        for key, typ in (("workload", str), ("seed", int),
                         ("sim_digest", str)):
            if not isinstance(run.get(key), typ) or isinstance(
                    run.get(key), bool):
                raise Malformed("{}: run {} lacks {} ({})".format(
                    path, i, key, typ.__name__))
        recorded = EXPECTED.get(run["seed"])
        if recorded is None:
            raise Malformed("{}: run {} is at seed {}; digests are recorded "
                            "for seed {}".format(path, i, run["seed"],
                                                 ", ".join(map(str, EXPECTED))))
        if run["workload"] not in recorded:
            raise Malformed("{}: run {} names unknown workload {!r}".format(
                path, i, run["workload"]))
    return runs


def check(runs, require):
    """Failure lines for `runs`: digests that differ, workloads missing."""
    fails = []
    for run in runs:
        want = EXPECTED[run["seed"]][run["workload"]]
        ok = run["sim_digest"] == want
        print("{:<18} seed {:<3} sim_digest {}  {}".format(
            run["workload"], run["seed"], run["sim_digest"],
            "ok" if ok else "!= recorded " + want))
        if not ok:
            fails.append("{} seed {}: sim_digest {} != recorded {}".format(
                run["workload"], run["seed"], run["sim_digest"], want))
    seen = {run["workload"] for run in runs}
    fails += ["{}: no run in the file".format(w) for w in require
              if w not in seen]
    return fails


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", nargs="?", help="a run.py --out result file")
    ap.add_argument("--require", nargs="+", default=[], metavar="W",
                    help="workloads the file must hold a run of")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.results:
        ap.error("a result file is required (or --self-test)")
    unknown = [w for w in args.require if w not in EXPECTED[1]]
    if unknown:
        ap.error("unknown workload in --require: " + ", ".join(unknown))
    try:
        runs = load_runs(args.results)
    except Malformed as e:
        print("check_sim_digest:", e, file=sys.stderr)
        return 2
    fails = check(runs, args.require)
    if fails:
        print("\ncheck_sim_digest: FAIL")
        print("\n".join("  - " + f for f in fails))
        return 1
    print("\ncheck_sim_digest: OK ({} runs)".format(len(runs)))
    return 0


# ---- self-test -------------------------------------------------------------

def run_doc(workload, seed=1, digest=None):
    return {"workload": workload, "seed": seed, "trace": 0,
            "sim_digest": EXPECTED[1][workload] if digest is None else digest}


def results(*runs):
    return {"format": RESULT_FORMAT, "version": 1, "runs": list(runs)}


SMOKE = ["fault_sweep", "checked_soak", "design_sweep", "fastread_keyspace"]
CASES = [
    ("all-match", 0, results(*(run_doc(w) for w in SMOKE)), SMOKE,
     "OK (4 runs)"),
    ("one-moved", 1, results(run_doc("fault_sweep"),
                             run_doc("checked_soak", digest="0" * 16)), [],
     "checked_soak seed 1: sim_digest 0000000000000000 != recorded "
     "73da2047cf75331b"),
    ("required-missing", 1, results(run_doc("fault_sweep")),
     ["fault_sweep", "design_sweep"], "design_sweep: no run in the file"),
    ("repeated-run-checked", 1, results(
        run_doc("design_sweep"), run_doc("design_sweep", digest="1" * 16)),
     [], "design_sweep seed 1: sim_digest 1111111111111111"),
    ("other-seed", 2, results(run_doc("fault_sweep", seed=3)), [],
     "run 0 is at seed 3; digests are recorded for seed 1"),
    ("unknown-workload", 2, results(dict(run_doc("fault_sweep"),
                                         workload="soak")), [],
     "run 0 names unknown workload 'soak'"),
    ("no-digest", 2, results({"workload": "fault_sweep", "seed": 1}), [],
     "run 0 lacks sim_digest (str)"),
    ("no-runs", 2, results(), [], "holds no runs"),
    ("wrong-format", 2, {"format": "other", "runs": []}, [],
     "not a mwreg-benchmark-results file"),
    ("truncated", 2, json.dumps(results(run_doc("fault_sweep")))[:40], [],
     "cannot load"),
]


def self_test():
    bad = []
    for name, want, doc, require, needle in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "results.json")
            with open(path, "w") as f:
                f.write(doc if isinstance(doc, str) else json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            argv = [path] + (["--require"] + require if require else [])
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        text = out.getvalue() + err.getvalue()
        ok = code == want and needle in text
        print("self-test {:<22} {}".format(name, "ok" if ok else "FAILED"))
        if not ok:
            bad.append(name)
            print("  exit {} (want {}), needle {!r}\n{}".format(
                code, want, needle, text))
    print("self-test " + ("FAILED: " + ", ".join(bad) if bad else
                          "passed ({} cases)".format(len(CASES))))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
