"""Every subcommand's output against recorded SHA-256 digests, so that a
change which keeps the output byte-identical can show it.

Each case runs through ``dispatch`` and records its exit code and the
digests of its stdout, its stderr and every file it writes through --out.
To record the digests again, for a change that means to alter the output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from k3batman.cli import dispatch

DIGESTS_PATH = Path(__file__).with_name("golden_digests.json")
PRIMES = (5, 101, 1009)


def _cases(p: int) -> list[tuple[str, ...]]:
    """argv per case at prime p; "{out}" names a fresh output directory and
    a trailing "--cache-dir" is given the prime's warm cache."""
    cases = []
    for command in ("traces", "avalues"):
        for fmt in ("csv", "json"):
            for dest in ((), ("--out", f"{{out}}/{command}.{fmt}")):
                for cache in ((), ("--cache-dir",)):
                    cases.append((command, "--p", str(p), "--format", fmt, *dest, *cache))
    return cases + [
        ("hist", "--p", str(p), "--bins", "61", "--overlay"),
        ("verify", "moments", "--p", str(p)),
        ("verify", "multiplicities", "--p", str(p)),
        ("verify", "brackets", "--p", str(p), "--mmax", "4"),
        ("verify", "distribution", "--p", str(p), "--grid", "40"),
        ("verify", "distribution", "--p", str(p), "--seed", "7", "--out", "{out}/report"),
        ("verify", "distribution", "--p", str(p), "--seed", "7", "--out", "{out}/report",
         "--format", "json"),
        ("audit-constants", "--p", str(p)),
    ]


CASES = [case for p in PRIMES for case in _cases(p)] + [
    ("verify", "brackets", "--p", "101", "--mmax", "150"),  # bounds past the float range
    ("hist", "--p", "101", "--bins", "606"),  # bins of width 1/p, one step of A
    ("ears", "--T", "10"),
    ("ears", "--T", "0.2"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cases(work: Path) -> dict[str, dict]:
    """Exit code and output digests of every case, by its argv."""
    for p in PRIMES:  # warm each prime's cache before any case reads it
        with contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(["traces", "--p", str(p), "--cache-dir", str(work / f"cache{p}")]) == 0
    found = {}
    for i, case in enumerate(CASES):
        out_dir = work / f"out{i}"
        out_dir.mkdir()
        argv = [arg.format(out=out_dir) for arg in case]
        if argv[-1] == "--cache-dir":
            argv.append(str(work / f"cache{case[case.index('--p') + 1]}"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dispatch(argv)
        found[" ".join(case)] = {
            "exit": code,
            "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()),
            "files": {f.name: _sha(f.read_bytes()) for f in sorted(out_dir.iterdir())},
        }
    return found


def test_every_subcommand_matches_its_recorded_digests(tmp_path):
    expected = json.loads(DIGESTS_PATH.read_text())
    found = run_cases(tmp_path)
    assert sorted(found) == sorted(expected)
    differing = [case for case in found if found[case] != expected[case]]
    assert not differing, differing


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        DIGESTS_PATH.write_text(json.dumps(run_cases(Path(work)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {DIGESTS_PATH}", file=sys.stderr)
