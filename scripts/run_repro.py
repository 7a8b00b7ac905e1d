#!/usr/bin/env python3
"""Run every self-verifying reproduction through `hedge-iep repro` and
summarize.  Exits with the largest code any run gave: 0 when all pass, 1
when a check fails, 2 on a usage or input error.

Usage: python scripts/run_repro.py [--seed N]
"""

import argparse
import sys

from hedge_iep import cli
from hedge_iep.repro import REPROS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    codes = {}
    for example_id in sorted(REPROS):
        print(f"=== {example_id} ===", flush=True)
        codes[example_id] = cli.main(["repro", example_id, "--seed", str(args.seed)])
        print(flush=True)
    failures = [example_id for example_id, code in codes.items() if code]
    if failures:
        print("FAILED:", ", ".join(failures))
    else:
        print(f"all {len(REPROS)} reproductions passed")
    return max(codes.values())


if __name__ == "__main__":
    sys.exit(main())
