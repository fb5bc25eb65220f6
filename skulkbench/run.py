#!/usr/bin/env python3
"""skulkbench entry point.

Run from the root of a cloudskulk checkout:

    python3 skulkbench/run.py --workload fleet-churn --seed 1 --seconds 25 --trace 0
    python3 skulkbench/run.py --workload all          # every workload, one after another

Builds the benchmark from the checkout's sources with dune (build output
goes to stderr), then runs each workload in a process of its own. The
last line of standard output is the run's JSON result; with
``--workload all`` each workload's report is printed in turn.
See skulkbench/README.md for the metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["fleet-churn", "detect-pairs", "migrate-compile"]
EXE = os.path.join("_build", "default", "skulkbench", "bin", "main.exe")
PINS = os.path.join("skulkbench", "pins.txt")
SPANS = ".skulkbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("skulkbench: run me from the root of a cloudskulk checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "skulkbench/bin/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("skulkbench: build failed", file=sys.stderr)
        return 3

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        cmd = [EXE, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pins", PINS, "--spans", SPANS]
        sys.stdout.flush()
        rc = subprocess.run(cmd).returncode
        if rc != 0:
            print(f"skulkbench: {w} exited with {rc}", file=sys.stderr)
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
