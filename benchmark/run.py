#!/usr/bin/env python3
"""The mwreg benchmark: one command that builds the driver and runs a workload.

Run one workload (what a benchmark harness calls):

    python3 benchmark/run.py --workload design_sweep --seed 1 --seconds 10 --trace 0

builds the library and benchmark/driver in Release into .bench_build/ at the
repository root (once; later runs only re-check it), runs the workload in a
process of its own, prints every metric by name with its unit, value,
the quartiles of its samples and their count, and ends stdout with one JSON
line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from a separate traced run.

Other modes:

    run.py --all [--runs N] [--seed S]      every workload on seeds S .. S+N-1
    run.py ... --out FILE                   also append the run to a result file
    run.py --compare A.json B.json          parent (A) against change (B)
    run.py --spread FILE                    run-to-run spread against the bounds
    run.py --self-test                      check the statistics and refusals

Exit status: 0 on success, 1 when a correctness check fails or the run cannot
be made, 2 on a malformed command line.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "mwreg_bench"

WORKLOADS = ["design_sweep", "fault_sweep", "keyspace_soak", "checked_soak",
             "fastread_keyspace"]

RAW_FORMAT = "mwreg-benchmark-raw"
RESULT_FORMAT = "mwreg-benchmark-results"
RESULT_VERSION = 1

PAIR_WIN_SHARE = 0.9
CHILD_TIMEOUT_S = 170


class Refused(Exception):
    """Input from outside (a result file, the driver's output) is unusable."""


def fail(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread_share(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values)) if median(values) else 0.0


def judge(a, b, better, bound):
    """Verdict for change B against parent A on one metric.

    `a` and `b` are the per-run values in pair order. A move beyond the
    allowed amount (bound x parent median) is a change; while the parent's
    own spread (IQR) is wider than that, the metric is
    unresolved unless every run of B beats every run of A. A gain also needs
    B to win nine tenths of the pairs (ties count for neither) and a median
    move larger than the parent's spread. Returns (verdict, share of pairs B
    won); verdicts are better, worse, within or unresolved.
    """
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = median(a), median(b)
    q1, q3 = quartiles(a)
    spread = q3 - q1
    allowed = bound * abs(ma)
    gain = sign * (mb - ma)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else 0.0
    every = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > allowed and not every:
        return "unresolved", share
    if -gain > allowed:
        return "worse", share
    if gain > spread and wins >= math.ceil(PAIR_WIN_SHARE * len(pairs)):
        return "better", share
    return "within", share


def judge_exact(a, b):
    """Simulated statistics are a function of the seed alone: two builds
    run on the same seeds must agree bit for bit."""
    return "identical" if list(a) == list(b) else "differs"


# ------------------------------------------------------------- BENCHMARK.json

def load_spec():
    try:
        spec = json.loads(SPEC_PATH.read_text())
        metrics = {}
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                metrics[m["name"]] = dict(m, kind=kind)
        names = [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read {SPEC_PATH.name}: {e}")
    if sorted(names) != sorted(WORKLOADS):
        fail(f"{SPEC_PATH.name} names workloads {names}, run.py knows {WORKLOADS}")
    return metrics


def metric_names(metrics, trace):
    kind = "per_layer" if trace else "end_to_end"
    return [n for n, m in metrics.items() if m["kind"] == kind]


# ------------------------------------------------------------ build and run

def check_sources():
    for rel in ("CMakeLists.txt", "src"):
        if not (ROOT / rel).exists():
            fail(f"the repository's {rel} is missing next to benchmark/; "
                 "run from a full checkout")


def build():
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD_DIR / "CMakeCache.txt"
        if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
                not in cache.read_text():
            for child in BUILD_DIR.iterdir():  # configured for another checkout
                if child.name != ".lock":
                    shutil.rmtree(child) if child.is_dir() else child.unlink()
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "mwreg_bench", "-j", jobs])
        # Keep the compiler's temporary files inside the checkout too.
        tmp = BUILD_DIR / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                fail("building the benchmark driver failed: " + " ".join(cmd))


def parse_raw(stdout, workload, trace):
    """The driver's last stdout line, validated."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise Refused("the driver printed nothing")
    try:
        raw = json.loads(lines[-1])
    except ValueError as e:
        raise Refused(f"the driver's last line is not JSON: {e}") from None
    expect = {"format": str, "version": int, "workload": str, "seed": int,
              "trace": int,
              "reps": int, "attempted": int, "completed": int,
              "verdict_mismatches": int, "sim_digest": str, "correct": bool,
              "metrics": dict, "exact": dict, "checks": list}
    for key, typ in expect.items():
        if not isinstance(raw.get(key), typ):
            raise Refused(f"driver output lacks {key} ({typ.__name__})")
    if raw["format"] != RAW_FORMAT or raw["version"] != 1:
        raise Refused(f"driver output is {raw['format']} v{raw['version']}")
    if raw["workload"] != workload or raw["trace"] != trace:
        raise Refused("driver output is for another workload or mode")
    def finite(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool) \
            and math.isfinite(v)

    for name, m in raw["metrics"].items():
        if not isinstance(m, dict) or not finite(m.get("value")):
            raise Refused(f"metric {name} has no finite value")
        samples = m.get("samples")
        if not isinstance(samples, list) or not samples or \
                not all(finite(v) for v in samples):
            raise Refused(f"metric {name} has no finite samples")
    return raw


def run_driver(workload, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        tag = "default" if seed is None else seed
        cmd += ["--spans", str(traces / f"{workload}.seed{tag}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        fail(f"{workload} driver exited with status {proc.returncode}")
    try:
        raw = parse_raw(proc.stdout, workload, trace)
    except Refused as e:
        fail(str(e))
    return raw, proc.stdout.rstrip("\n").splitlines()[:-1]


def summarize(raw, metrics, seconds):
    """The result record of one run: medians, quartiles and counts."""
    trace = raw["trace"]
    wanted = metric_names(metrics, trace)
    got = sorted(raw["metrics"])
    if sorted(wanted) != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"driver metrics disagree with {SPEC_PATH.name}: "
             f"missing {missing}, unknown {extra}")
    out = {}
    for name in wanted:
        m = raw["metrics"][name]
        q1, q3 = quartiles(m["samples"])
        out[name] = {"value": m["value"], "unit": metrics[name]["unit"],
                     "q1": q1, "q3": q3, "n": len(m["samples"])}
    attempted = raw["attempted"]
    failed = attempted - raw["completed"]
    exact = dict(raw["exact"])
    exact["ops_failed_frac"] = failed / attempted if attempted else 0.0
    exact["verdict_mismatches"] = raw["verdict_mismatches"]
    return {"workload": raw["workload"], "seed": raw["seed"], "trace": trace,
            "seconds": seconds, "reps": raw["reps"], "correct": raw["correct"],
            "attempted": attempted, "failed": failed,
            "sim_digest": raw["sim_digest"], "metrics": out, "exact": exact,
            "checks": raw["checks"]}


def print_run(result, metrics):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {result['reps']} repetitions")
    print(f"  {'metric':34} {'unit':7} {'value':>14} {'q1':>14} {'q3':>14} "
          f"{'n':>4}  bound")
    for name, m in result["metrics"].items():
        bound = metrics[name].get("bound")
        bound = "-" if bound is None else f"{bound:.0%}"
        print(f"  {name:34} {m['unit']:7} {m['value']:14.6g} {m['q1']:14.6g} "
              f"{m['q3']:14.6g} {m['n']:4d}  {bound}")
    ex = result["exact"]
    print(f"  ops attempted {result['attempted']}, failed {result['failed']} "
          f"(ops_failed_frac {ex['ops_failed_frac']:.6g}), verdict_mismatches "
          f"{ex['verdict_mismatches']}, sim_digest {result['sim_digest']}")
    bad = [c for c in result["checks"] if not c["ok"]]
    print(f"  checks: {len(result['checks']) - len(bad)} of "
          f"{len(result['checks'])} passed")
    for c in bad:
        print(f"  FAILED {c['name']}: {c['detail']}")


# --------------------------------------------------------------- result files

RUN_FIELDS = {"workload": str, "seed": int, "trace": int, "seconds": int,
              "reps": int, "correct": bool, "attempted": int, "failed": int,
              "sim_digest": str, "metrics": dict, "exact": dict}
METRIC_FIELDS = {"value": (int, float), "unit": str, "q1": (int, float),
                 "q3": (int, float), "n": int}


def parse_results(text):
    """Validate a result file's text; raises Refused on anything off."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise Refused(f"not JSON (truncated?): {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != RESULT_FORMAT:
        raise Refused(f"not a {RESULT_FORMAT} file")
    if doc.get("version") != RESULT_VERSION:
        raise Refused(f"version {doc.get('version')!r}, expected {RESULT_VERSION}")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        raise Refused("runs is not a list")
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise Refused(f"run {i} is not an object")
        for key, typ in RUN_FIELDS.items():
            if not isinstance(run.get(key), typ) or (
                    typ is int and isinstance(run.get(key), bool)):
                raise Refused(f"run {i} lacks {key} ({typ.__name__})")
        if run["workload"] not in WORKLOADS:
            raise Refused(f"run {i} names unknown workload {run['workload']!r}")
        for name, m in run["metrics"].items():
            for key, typ in METRIC_FIELDS.items():
                if not isinstance(m, dict) or not isinstance(m.get(key), typ):
                    raise Refused(f"run {i} metric {name} lacks {key}")
            if not math.isfinite(m["value"]):
                raise Refused(f"run {i} metric {name} is not finite")
    return doc


def load_results(path):
    try:
        return parse_results(Path(path).read_text())
    except OSError as e:
        raise Refused(str(e)) from None


def append_result(path, result):
    path = Path(path)
    doc = load_results(path) if path.exists() else {
        "format": RESULT_FORMAT, "version": RESULT_VERSION, "runs": []}
    doc["runs"].append(result)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    tmp.replace(path)


# ------------------------------------------------------------------- compare

def group(doc):
    runs = {}
    for run in doc["runs"]:
        runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def exact_values(runs, name):
    return [r["sim_digest"] if name == "sim_digest" else r["exact"].get(name)
            for r in runs]


def compare(path_a, path_b, metrics):
    try:
        a_doc, b_doc = load_results(path_a), load_results(path_b)
    except Refused as e:
        fail(f"refusing result file: {e}")
    a_runs, b_runs = group(a_doc), group(b_doc)
    regressions = 0
    for key in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[key], b_runs[key]
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        for i, (ra, rb) in enumerate(zip(a, b)):
            if ra["seed"] != rb["seed"]:
                fail(f"{key[0]} pair {i} ran seeds {ra['seed']} and "
                     f"{rb['seed']}: pair runs must share their seed")
        workload, trace = key
        print(f"{workload} (trace {trace}): {n} pairs")
        print(f"  {'metric':34} {'A median [q1, q3]':>36} "
              f"{'B median [q1, q3]':>36} {'B-A':>8} {'B won':>6}  verdict")
        for name in a[0]["metrics"]:
            if name not in b[0]["metrics"] or name not in metrics:
                continue
            m = metrics[name]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            sign = 1.0 if m["better"] == "higher" else -1.0
            share = sum(1 for x, y in zip(va, vb) if sign * (y - x) > 0) / n
            if "bound" in m:
                verdict, share = judge(va, vb, m["better"], m["bound"])
            else:
                verdict = "-"
            regressions += verdict in ("worse", "differs")
            ma, mb = median(va), median(vb)
            qa, qb = quartiles(va), quartiles(vb)
            delta = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            print(f"  {name:34} {ma:12.5g} [{qa[0]:10.5g}, {qa[1]:10.5g}] "
                  f"{mb:12.5g} [{qb[0]:10.5g}, {qb[1]:10.5g}] {delta:>8} "
                  f"{share:6.0%}  {verdict}")
        names = ["sim_digest", *sorted(set(a[0]["exact"]) | set(b[0]["exact"]))]
        differs = [name for name in names if judge_exact(
            exact_values(a, name), exact_values(b, name)) == "differs"]
        regressions += len(differs)
        print("  simulated statistics identical (sim_digest and exact "
              "values): " + ("yes" if not differs else "NO: " + ", ".join(differs)))
    for key in sorted(set(a_runs) ^ set(b_runs)):
        print(f"{key[0]} (trace {key[1]}): only in one file, not compared")
    return 1 if regressions else 0


def print_spread(path, metrics):
    """Run-to-run spread of each bounded metric, as a share of its median.

    A benchmark is steady when every spread stays under a third of its
    metric's bound (setup_s excepted: its set-up medians are compared, not
    its spread across seeds)."""
    try:
        doc = load_results(path)
    except Refused as e:
        fail(f"refusing result file: {e}")
    unsteady = 0
    for (workload, trace), runs in sorted(group(doc).items()):
        print(f"{workload} (trace {trace}): {len(runs)} runs on seeds "
              f"{sorted({r['seed'] for r in runs})}")
        for name in runs[0]["metrics"]:
            bound = metrics.get(name, {}).get("bound")
            if bound is None or len(runs) < 2:
                continue
            values = [r["metrics"][name]["value"] for r in runs]
            share = spread_share(values)
            steady = name == "setup_s" or share < bound / 3
            unsteady += not steady
            q1, q3 = quartiles(values)
            print(f"  {name:20} median {median(values):12.6g} "
                  f"[{q1:12.6g}, {q3:12.6g}]  spread {share:6.2%}  "
                  f"bound {bound:.0%}  {'' if steady else 'UNSTEADY'}")
    return 1 if unsteady else 0


# ----------------------------------------------------------------- self-test

def self_test():
    checks = []

    def expect(name, cond):
        checks.append((name, bool(cond)))

    # Median and quartiles (statistics.quantiles' default, exclusive method).
    ten = list(range(1, 11))
    expect("median of 1..10", median(ten) == 5.5)
    expect("quartiles of 1..10", quartiles(ten) == (2.75, 8.25))
    expect("quartiles of one value", quartiles([3.0]) == (3.0, 3.0))
    expect("quartiles of two values", quartiles([1.0, 2.0]) == (0.75, 2.25))
    expect("median of an even count", median([4, 1, 3, 2]) == 2.5)

    steady = [100.0 + 0.1 * i for i in range(10)]
    # Relative bound, higher is better.
    expect("relative: 11% lower is worse",
           judge(steady, [v * 0.89 for v in steady], "higher", 0.1)[0] == "worse")
    expect("relative: 9% lower is within",
           judge(steady, [v * 0.91 for v in steady], "higher", 0.1)[0] == "within")
    expect("relative: lower-is-better direction",
           judge(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "worse")
    # Exact: the sim_digest and the exact values of a result.
    expect("exact: identical", judge_exact([1.5, 2.5], [1.5, 2.5]) == "identical")
    expect("exact: one bit off differs",
           judge_exact([1.5], [1.5 + 2 ** -40]) == "differs")
    expect("exact: a missing value differs",
           exact_values([{"sim_digest": "0a", "exact": {"x": 1}}], "x") !=
           exact_values([{"sim_digest": "0a", "exact": {}}], "x"))
    # Spread: the quartile distance over the median.
    expect("spread of 1..10", abs(spread_share(ten) - 5.5 / 5.5) < 1e-12)
    expect("spread of equal values", spread_share([2.0] * 10) == 0.0)
    # Unresolved: the parent's spread is wider than the bound.
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    expect("unresolved: spread wider than the bound",
           judge(noisy, [v * 0.85 for v in noisy], "higher", 0.1)[0]
           == "unresolved")
    expect("unresolved unless every change run beats every parent run",
           judge(noisy, [200.0 + i for i in range(10)], "higher", 0.1)[0]
           == "better")
    # The 9-of-10 pair rule for a gain.
    nine = [v * 1.2 for v in steady]
    nine[3] = steady[3] - 1.0
    expect("pairs: 9 of 10 won is a gain",
           judge(steady, nine, "higher", 0.1) == ("better", 0.9))
    eight = list(nine)
    eight[5] = steady[5] - 1.0
    expect("pairs: 8 of 10 won is no gain",
           judge(steady, eight, "higher", 0.1)[0] == "within")
    expect("pairs: ties count for neither",
           judge(steady, list(steady), "higher", 0.1) == ("within", 0.0))

    # Refusals.
    good = {"format": RESULT_FORMAT, "version": RESULT_VERSION, "runs": [{
        "workload": "design_sweep", "seed": 1, "trace": 0, "seconds": 10,
        "reps": 9, "correct": True, "attempted": 10, "failed": 0,
        "sim_digest": "00ff", "exact": {},
        "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s", "q1": 1.0,
                                  "q3": 1.0, "n": 9}}}]}
    text = json.dumps(good)

    def refused(t):
        try:
            parse_results(t)
        except Refused:
            return True
        return False

    expect("accepts a well-formed file", not refused(text))
    expect("refuses a truncated file",
           all(refused(text[:k]) for k in range(0, len(text), 7)))
    expect("refuses a foreign version",
           refused(text.replace(f'"version": {RESULT_VERSION}', '"version": 99')))
    expect("refuses a foreign format",
           refused(text.replace(RESULT_FORMAT, "something-else")))
    expect("refuses a missing field", refused(text.replace('"reps": 9, ', "")))
    expect("refuses a mistyped field", refused(text.replace('"seed": 1', '"seed": "1"')))
    expect("refuses an unknown workload",
           refused(text.replace("design_sweep", "mystery")))
    expect("refuses a malformed metric", refused(text.replace('"q3": 1.0, ', "")))
    expect("refuses a non-object document", refused("[1, 2, 3]"))
    raw = {"format": RAW_FORMAT, "version": 1, "workload": "design_sweep",
           "seed": 1, "trace": 0, "reps": 3, "attempted": 10, "completed": 10,
           "verdict_mismatches": 0, "sim_digest": "00ff", "correct": True,
           "exact": {}, "checks": [],
           "metrics": {"ops_per_s": {"value": 2.0, "samples": [1.0, 2.0]}}}

    def raw_refused(text):
        try:
            parse_raw(text, "design_sweep", 0)
        except Refused:
            return True
        return False

    raw_text = "noise\n" + json.dumps(raw)
    expect("accepts well-formed driver output", not raw_refused(raw_text))
    expect("refuses incomplete driver output",
           raw_refused('noise\n{"format": "mwreg-benchmark-raw"}'))
    expect("refuses a metric without samples",
           raw_refused(raw_text.replace('"samples": [1.0, 2.0]', '"samples": []')))
    expect("refuses a metric without a value",
           raw_refused(raw_text.replace('"value": 2.0, ', "")))

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"self-test FAILED: {name}")
    print(f"self-test: {len(checks) - len(failed)} of {len(checks)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------- main

class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        fail(message, code=2)


def nonnegative(text):
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def main():
    p = Parser(description="Build and run the mwreg benchmark.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload on seeds S .. S+N-1")
    p.add_argument("--seed", type=nonnegative,
                   help="workload seed (default: the workload's own; "
                        "with --all, the first seed, default 1)")
    p.add_argument("--seconds", type=int, default=10,
                   help="measured seconds per run (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run, reporting per-layer metrics")
    p.add_argument("--runs", type=int, default=1,
                   help="N, runs per workload (--all)")
    p.add_argument("--out", help="append each run to this result file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="judge result file B (change) against A (parent)")
    p.add_argument("--spread", metavar="FILE",
                   help="run-to-run spread of FILE's runs against the bounds")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    modes = sum([args.workload is not None, args.all, args.compare is not None,
                 args.spread is not None, args.self_test])
    if modes != 1:
        p.error("give exactly one of --workload, --all, --compare, --spread, "
                "--self-test")
    if args.self_test:
        return self_test()
    metrics = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], metrics)
    if args.spread:
        return print_spread(args.spread, metrics)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within [1, 60]")
    if args.runs < 1:
        p.error("--runs must be at least 1")
    if args.out:
        try:
            if Path(args.out).exists():
                load_results(args.out)
        except Refused as e:
            fail(f"refusing to append to {args.out}: {e}")

    check_sources()
    build()
    workloads = WORKLOADS if args.all else [args.workload]
    ok = True
    last = None
    for r in range(args.runs if args.all else 1):
        seed = (1 if args.seed is None else args.seed) + r if args.all else args.seed
        for workload in workloads:
            raw, lines = run_driver(workload, seed, args.seconds, args.trace)
            for line in lines:
                print(line)
            result = summarize(raw, metrics, args.seconds)
            print_run(result, metrics)
            if args.out:
                append_result(args.out, result)
            ok = ok and result["correct"]
            last = result
    if not args.all:
        print(json.dumps({
            "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in last["metrics"].items()}}))
    return 0 if ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds subprocess.run, which kills its child


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
