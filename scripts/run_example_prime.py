#!/usr/bin/env python3
"""Full verification run at a single prime.

Builds the trace table, checks the exact moment identities, evaluates all
four discrepancy statistics on a uniform grid, and writes the reports plus a
histogram SVG next to each other. The default prime is the 93283 showcase.

Usage:
    python scripts/run_example_prime.py [--p 93283] [--grid 60] [--bins 61]
                                        [--out-dir out]
"""

import argparse
import sys
import time
from pathlib import Path

from k3batman import (
    build_trace_table,
    discrepancy_report,
    identity_table,
    make_context,
    moment,
    multiplicity_rhs,
    uniform_grid,
)
from k3batman.cli import _positive_int, emit_report
from k3batman.field import require_prime
from k3batman.stats import STATISTICS
from k3batman.svg import render_histogram


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=93283)
    parser.add_argument("--grid", type=_positive_int, default=60)
    parser.add_argument("--bins", type=_positive_int, default=61)
    parser.add_argument("--nmax", type=_positive_int, default=3)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()
    try:
        require_prime(args.p)
    except ValueError as exc:
        parser.error(str(exc))

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out-dir: {exc}")

    t0 = time.time()
    ctx = make_context(args.p)
    table = build_trace_table(ctx)
    print(f"trace table for p={args.p}: {len(table)} entries "
          f"in {time.time() - t0:.1f} s")

    t0 = time.time()
    summary = table.multiplicities
    expected = multiplicity_rhs(*identity_table(args.p))
    ok = True
    for n in range(1, args.nmax + 1):
        for twisted in (False, True):
            good = moment(summary, n, twisted) == moment(expected, n, twisted)
            ok &= good
            kind = "twisted" if twisted else "untwisted"
            print(f"moment n={n} {kind}: {'exact match' if good else 'MISMATCH'}")
    print(f"moment identities checked in {time.time() - t0:.1f} s")

    for which in STATISTICS:
        span = (-3, 3) if which == "batman" else (0, 1)
        report = discrepancy_report(summary, uniform_grid(*span, args.grid), which)
        ok &= report.all_pass
        print(f"{which}: max_gap {report.max_gap:.5f} vs bound "
              f"{report.rows[0].bound:.4f} -> "
              f"{'all pass' if report.all_pass else 'BOUND EXCEEDED'}")
        emit_report(out_dir / f"report_{args.p}_{which}.csv", "csv", report)

    svg_path = out_dir / f"hist_{args.p}.svg"
    svg_path.write_text("".join(render_histogram(summary, args.bins, overlay=True)))
    print(f"reports and histogram written under {out_dir}/")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
