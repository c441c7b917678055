#!/usr/bin/env python3
"""Full verification run at a single prime, through the k3batman CLI.

Runs `verify moments`, `verify distribution` and `hist --overlay` at one
prime, all against one temporary cache directory, so the trace table is built
once. Writes report_<p>.<statistic>.csv for the four statistics and
hist_<p>.svg under --out-dir. The default prime is the 93283 showcase.
Exit codes are the CLI's; the run stops at the first usage or read/write
error (2) or internal check failure (3). A run that writes nothing, such as
one the memory guard refuses, removes the directories it made for --out-dir.

Usage:
    python scripts/run_example_prime.py [--p 93283] [--grid 60] [--bins 61]
                                        [--nmax 3] [--out-dir out]
"""

import argparse
import sys
import tempfile
from pathlib import Path

from k3batman.cli import _positive_int, dispatch
from k3batman.field import require_prime


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
    missing = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out-dir: {exc}")

    p = str(args.p)
    commands = [
        ["verify", "moments", "--nmax", str(args.nmax)],
        ["verify", "distribution", "--grid", str(args.grid), "--out", str(out_dir / f"report_{p}")],
        ["hist", "--bins", str(args.bins), "--overlay", "--out", str(out_dir / f"hist_{p}.svg")],
    ]
    code = 0
    with tempfile.TemporaryDirectory() as cache_dir:
        for command in commands:
            code = max(code, dispatch([*command, "--p", p, "--cache-dir", cache_dir]))
            if code >= 2:  # an error, not a failed check: the next command would meet it too
                break
    for made in missing:  # a run that wrote nothing leaves no directory it made
        try:
            made.rmdir()
        except OSError:  # not empty
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
