"""The benchmark's workloads and the checks on every output they produce.

Each workload is a fixed sequence of CLI commands at one fixed prime. The
benchmark seed only reaches ``verify distribution --seed`` and the spot-check
sample of the warm workload's input generator.

- ``cold_p25013``: the first run at a new prime against an empty cache
  directory. The direct O(p^2) trace kernel does nearly all the work, and
  this is the only workload that writes caches. p = 1 (mod 4), so the
  two-square correction in the moment identities is non-zero.
- ``warm_p1000003``: re-verification at the ladder prime with both caches
  made in set-up. It never builds a trace table: the work is the p-length
  analysis loops, cache reads and CLI emission.
- ``brackets_p1000003``: bracket identities and the constant audit with no
  cache. The O(p^1.5) Hurwitz sweep dominates and no trace table is touched,
  so a trace-side change should show no change here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# How a workload's --cache-dir starts each pass.
CACHE_NONE = "none"  # no --cache-dir at all
CACHE_FRESH = "fresh"  # a new empty directory for every pass
CACHE_PREPARED = "prepared"  # the directory set-up filled


def _lines_end_with(suffix: str, count: int | None = None):
    def check(text: str, p: int) -> str | None:
        lines = text.splitlines()
        if count is not None and len(lines) != count:
            return f"expected {count} lines, found {len(lines)}"
        if not lines:
            return "no output"
        bad = [line for line in lines if not line.endswith(suffix)]
        return f"line does not end with {suffix!r}: {bad[0]!r}" if bad else None

    return check


def _check_moments(text: str, p: int) -> str | None:
    lines = text.splitlines()
    if not lines or lines[-1] != "all identities hold":
        return "moment identities did not all hold"
    return None


def _table_check(header: str):
    def check(text: str, p: int) -> str | None:
        if not text.startswith(header + "\n"):
            return f"missing header {header!r}"
        rows = text.count("\n") - 1
        return f"expected {p - 2} rows, found {rows}" if rows != p - 2 else None

    return check


def _check_svg(text: str, p: int) -> str | None:
    if not (text.startswith("<svg ") and text.endswith("</svg>\n")):
        return "not a complete SVG document"
    return None


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``argv`` may hold {p}, {seed} and {out}."""

    label: str  # names the output in digests.json
    argv: tuple[str, ...]
    check: Callable[[str, int], str | None]
    output: str | None = None  # file written through --out; stdout when None
    seeded: bool = False  # output depends on the seed, so it has no digest

    def resolve(self, p: int, seed: int, cache: str | None, out: str) -> list[str]:
        args = [a.format(p=p, seed=seed, out=out) for a in self.argv]
        return args + (["--cache-dir", cache] if cache is not None else [])


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    cache: str
    commands: tuple[Command, ...]

    def at(self, p: int) -> "Workload":
        """The same command sequence at another prime."""
        return replace(self, p=p)


_DISTRIBUTION = Command(
    "verify-distribution",
    ("verify", "distribution", "--p", "{p}", "--grid", "60", "--seed", "{seed}"),
    _lines_end_with("all pass", count=4),
    seeded=True,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold_p25013",
            25013,
            CACHE_FRESH,
            (
                Command("traces", ("traces", "--p", "{p}", "--out", "{out}/traces.csv"),
                        _table_check("lambda,a,phi"), output="traces.csv"),
                Command("verify-moments", ("verify", "moments", "--p", "{p}", "--nmax", "3"),
                        _check_moments),
                _DISTRIBUTION,
                Command("hist", ("hist", "--p", "{p}", "--bins", "61", "--overlay",
                                 "--out", "{out}/hist.svg"),
                        _check_svg, output="hist.svg"),
            ),
        ),
        Workload(
            "warm_p1000003",
            1000003,
            CACHE_PREPARED,
            (
                Command("verify-moments", ("verify", "moments", "--p", "{p}"), _check_moments),
                _DISTRIBUTION,
                Command("hist", ("hist", "--p", "{p}", "--bins", "61", "--overlay"), _check_svg),
                Command("avalues", ("avalues", "--p", "{p}", "--out", "{out}/avalues.csv"),
                        _table_check("mu,num,den"), output="avalues.csv"),
            ),
        ),
        Workload(
            "brackets_p1000003",
            1000003,
            CACHE_NONE,
            (
                Command("verify-brackets", ("verify", "brackets", "--p", "{p}", "--mmax", "4"),
                        _lines_end_with(" ok")),
                Command("audit-constants", ("audit-constants", "--p", "{p}"),
                        _lines_end_with(" pass")),
            ),
        ),
    )
}


def expected_digests(p: int) -> dict[str, str]:
    """SHA-256 of every seed-independent output at prime p, by command label.

    Only the workloads' own primes are recorded; other primes get no digest
    check, only the per-command checks above.
    """
    return json.loads(DIGESTS_PATH.read_text()).get(str(p), {})
