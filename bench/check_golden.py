"""Byte-identity gate: fresh reports against the golden sha256 table.

Usage (from the repository root):

    python3 bench/check_golden.py            # compare; exit 1 on any mismatch
    python3 bench/check_golden.py --update   # rewrite golden.json from fresh runs

Runs each benchmark workload once at every seed of ``GOLDEN_SEEDS`` and
compares the sha256 of its canonical report.json with ``golden.json``.  A
refactor or speed-up must leave every hash unchanged.  A change that means
to alter reported numbers runs ``--update`` and names each intended change
in CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import sys

from workloads import GOLDEN, GOLDEN_SEEDS, WORKLOADS, make_config, pin_environment, \
    report_sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args(argv)
    pin_environment()
    from dyadlab.harness import run_suite

    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fresh = {}
    mismatches = 0
    for workload in WORKLOADS:
        for seed in GOLDEN_SEEDS:
            report = run_suite(make_config(workload, seed))
            sha = report_sha(report)
            fresh.setdefault(workload, {})[str(seed)] = sha
            expected = table.get(workload, {}).get(str(seed))
            failed = sum(not c.passed for c in report.checks)
            status = ("ok" if sha == expected
                      else "new" if expected is None else "MISMATCH")
            mismatches += sha != expected
            print(f"{workload:<14} seed {seed:<3} {status:<8} {sha}  "
                  f"{failed} of {len(report.checks)} checks failed", flush=True)
    if args.update:
        GOLDEN.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {GOLDEN}")
        return 0
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
