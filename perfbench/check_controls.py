#!/usr/bin/env python3
"""Check that the benchmark's negative controls can fail.

Replaces the program's confluence check and oracle suites, in this
process only, by stubs that report every basis confluent and every
suite passed, then runs both ladders.  A benchmark whose controls work
must count failed items on each; this script exits 1 if either ladder
comes back clean.

    python3 perfbench/check_controls.py [--seed N]
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace

import run


def stub_everything_passes(pkg):
    yes = SimpleNamespace(confluent=True, failures=(), passed=True)
    pkg.presentation.confluence_check = lambda *a, **k: yes
    for name in ("verify_unique_normal_forms", "verify_kernel_generation",
                 "verify_measure_decrease"):
        setattr(pkg.oracle, name, lambda *a, **k: yes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    pkg = run.load_program()
    stub_everything_passes(pkg)
    clean = []
    for name in ("confluence-ladder", "oracle-ladder"):
        work = run.Workload(name, args.seed, 1, pkg)
        tally = run.Tally()
        work.setup_once()
        work.check_setup(tally)
        for spec in work.verdicts():
            work.verdict_one(tally, spec, [])
        print(f"{name}: {len(tally.failures)} of {tally.attempted} items"
              " failed under the always-pass stub")
        for what in tally.failures:
            print(f"  caught: {what}")
        if not tally.failures:
            clean.append(name)
    if clean:
        print(f"controls did not fire on {', '.join(clean)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
