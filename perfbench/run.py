#!/usr/bin/env python3
"""Build and run the DVS compiler benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/perfbench.exe
from the checkout's own sources with dune, then runs one workload and
passes its output through: a human-readable report, then one JSON line
{correct, attempted, failed, metrics}.  `--workload all` runs every
workload in turn and ends with one row of end-to-end metrics per
workload.  The exit code is nonzero when the build fails or any output
check fails.  See perfbench/WORKLOADS.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["table4-cold", "unfiltered-sweep", "service-mix", "table4-warm"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no dune-project and lib/ here: run from the root of a checkout")
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except FileNotFoundError:
        die("dune is not on PATH")
    if r.returncode != 0:
        die("build failed")


def run(workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(workload + ": no result within %d s" % RUN_TIMEOUT_S)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    build()
    if args.workload != "all":
        r = run(args.workload, args)
        sys.stdout.write(r.stdout)
        sys.exit(r.returncode)
    rows, status = [], 0
    for w in WORKLOADS:
        r = run(w, args)
        sys.stdout.write(r.stdout)
        status = status or r.returncode
        lines = r.stdout.strip().splitlines()
        rows.append((w, json.loads(lines[-1]) if lines else None))
    print("\nsummary, one row per workload:")
    names = []
    for _, res in rows:
        for n, m in (res or {}).get("metrics", {}).items():
            if (n, m["unit"]) not in names:
                names.append((n, m["unit"]))
    print("%-17s %-7s " % ("workload", "correct")
          + " ".join("%20s" % ("%s (%s)" % nu) for nu in names))
    for w, res in rows:
        ms = (res or {}).get("metrics", {})
        cells = " ".join("%20.6g" % ms[n]["value"] if n in ms else "%20s" % "-"
                         for n, _ in names)
        print("%-17s %-7s %s" % (w, (res or {}).get("correct", False), cells))
    sys.exit(status)


if __name__ == "__main__":
    main()
