#!/usr/bin/env python3
"""One benchmark set-up in a fresh process; prints its seconds.

    python3 perfbench/setup_probe.py --workload recog-sparse --seed 1 --workdir DIR

run.py starts this a few times and reports the median set-up time, so
that the import (which a running process pays only once) is measured
more than once.
"""

import argparse
import sys

import run
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workloads.pin_blas()
    _, _, seconds, rcs = run.setup(workloads.WORKLOADS[args.workload],
                                   workloads.round_seed(args.seed, 0), args.workdir)
    if any(rcs):
        print(f"warm-up exit codes {rcs}", file=sys.stderr)
        return 1
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
