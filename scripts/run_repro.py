#!/usr/bin/env python3
"""Run every self-verifying reproduction through `hedge-iep repro` and
summarize.  Exits with the largest code any run gave: 0 when all pass, 1
when a check fails, 2 on a usage or input error.

Usage: python scripts/run_repro.py [--seed N] [--json-dir DIR]

With --json-dir, each id's `repro <id> --json` report is written to
DIR/<id>.json without its `wall_time_s`, instead of printing the checks, so
`diff -r` compares the reports of two checkouts.
"""

import argparse
import json
import sys
from pathlib import Path

from hedge_iep import cli, repro
from hedge_iep.repro import REPROS


def write_report(example_id: str, seed: int, out_dir: Path) -> int:
    """Run `repro <id>` and write its JSON report, untimed, to
    out_dir/<id>.json; the exit code is that of `repro <id> --json`."""
    try:
        report = repro.run_repro(example_id, seed=seed)
    except (ValueError, OSError) as exc:
        print(f"{example_id}: error: {exc}", file=sys.stderr)
        print(f"{example_id}: exit 2, no report", flush=True)
        return 2
    data = report.to_json()
    del data["wall_time_s"]
    path = out_dir / f"{example_id}.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    code = 0 if report.passed else 1
    print(f"{example_id}: exit {code}, wrote {path}", flush=True)
    return code


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-dir", type=Path, help="write each report to DIR/<id>.json")
    args = ap.parse_args()
    if args.json_dir:
        args.json_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for example_id in sorted(REPROS):
        if args.json_dir:
            codes[example_id] = write_report(example_id, args.seed, args.json_dir)
            continue
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
