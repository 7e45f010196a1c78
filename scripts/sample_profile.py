#!/usr/bin/env python3
"""Sampled CPU profile of one command, with inline-aware attribution.

Usage:
    sample_profile.py -- COMMAND [ARGS...]

Builds scripts/sprof.c into a preloadable object with `cc`, runs COMMAND
with it preloaded (so the command's own binary is profiled as built, with
its inlining intact, unlike a -pg build), then symbolizes every distinct
sampled program counter of each profiled executable in one
`addr2line -f -C -i` call and prints two tables per executable:

  flat       the innermost function at the sample (inlined frames count
             as themselves);
  inclusive  every function on the sample's inline chain, once per sample:
             a function's own time plus the time of what was inlined into
             it. This is not a call-graph profile; out-of-line callees are
             not charged to their callers.

Each table lists the top 25 rows. Shares are of all samples the process
took, with the sample count. Samples in shared objects are named by object
and nearest dynamic symbol.

Samples arrive at the kernel's timer tick (often 250 Hz) however short the
requested interval, so profile runs of 20 s or more. x86-64 Linux only; the
executable needs symbols (a Release build with -g symbolizes best). Exit
status: the command's, or 2 when the profiler cannot be built or run.
"""

import argparse
import collections
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ADDRESS = re.compile(r"0x[0-9a-f]+")
TOP = 25


def die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build_object(out_dir):
    so = Path(out_dir) / "sprof.so"
    cmd = ["cc", "-O2", "-shared", "-fPIC", "-o", str(so),
           str(HERE / "sprof.c"), "-ldl"]
    if subprocess.run(cmd).returncode:
        die("building sprof.so failed: " + " ".join(cmd))
    return so


def read_samples(path):
    """(exe, {offset: count}, {(object, symbol): count}, total, dropped)."""
    exe, total, dropped = "", 0, 0
    offsets = collections.Counter()
    shared = collections.Counter()
    with open(path) as f:
        header = f.readline().split()
        for field in header[2:]:
            key, _, value = field.partition("=")
            if key == "samples":
                total = int(value)
            elif key == "dropped":
                dropped = int(value)
            elif key == "exe":
                exe = value
        for line in f:
            parts = line.split()
            if parts and parts[0] == "x":
                offsets[int(parts[1], 16)] += 1
            elif parts and parts[0] == "l":
                shared[(parts[1], parts[2] if len(parts) > 2 else "?")] += 1
    return exe, offsets, shared, total, dropped


def symbolize(exe, offsets):
    """{offset: [innermost function, ..., outermost]} via one addr2line."""
    addrs = sorted(offsets)
    if not addrs:
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", exe] +
        [hex(a) for a in addrs], stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        die("addr2line failed on " + exe)
    # -a prints each address, then (function, file:line) pairs from the
    # innermost inlined frame out.
    chains, current, want_file = {}, None, False
    for line in proc.stdout.splitlines():
        if want_file:
            want_file = False
        elif ADDRESS.fullmatch(line):
            current = int(line, 16)
            chains[current] = []
        else:
            chains[current].append(line if line != "??" else "?? (no symbol)")
            want_file = True
    return chains


def table(title, counts, total):
    print(f"  {title}")
    for name, n in counts.most_common(TOP):
        print(f"    {100.0 * n / total:6.2f}%  {n:7d}  {name}")


def report(path):
    exe, offsets, shared, total, dropped = read_samples(path)
    print(f"{exe}: {total} samples ({dropped} dropped), {path}")
    if total == 0:
        return
    chains = symbolize(exe, offsets)
    flat = collections.Counter()
    inclusive = collections.Counter()
    for off, n in offsets.items():
        chain = chains.get(off) or ["?? (no symbol)"]
        flat[chain[0]] += n
        for fn in set(chain):
            inclusive[fn] += n
    for (obj, sym), n in shared.items():
        name = f"[{obj}] {sym}"
        flat[name] += n
        inclusive[name] += n
    table("flat", flat, total)
    table("inclusive (inline chain)", inclusive, total)


def main():
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="-- COMMAND [ARGS...]")
    args = p.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        p.error("no command given (put it after --)")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        so = build_object(work)
        prefix = work / "samples"
        env = dict(os.environ, SPROF_OUT=str(prefix))
        env["LD_PRELOAD"] = " ".join(
            filter(None, [str(so), os.environ.get("LD_PRELOAD", "")]))
        try:
            status = subprocess.run(cmd, env=env).returncode
        except OSError as e:
            die(f"cannot run {cmd[0]}: {e}")
        files = sorted(work.glob("samples.*"))
        if not files:
            die("no samples written (did the command exit normally?)")
        for f in files:
            report(f)
    return status


if __name__ == "__main__":
    sys.exit(main())
