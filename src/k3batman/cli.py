"""Command-line surface: table generation, verification suites, and reports."""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from . import brackets, cache, hurwitz, measures, selberg, stats, svg
from .clausen import TraceTable, a_numerators, build_trace_table, moment
from .field import make_context, require_inverse_range, require_prime

_REPORT_HEADER = "lo,hi,empirical,target,gap,bound,pass"


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# Peak bytes per p of make_context plus build_trace_table (88.4 measured at
# p = 10000019), for refusing a p the machine cannot hold before allocating.
_TRACE_BYTES_PER_P = 90
# Peak bytes per p of a_numerators beyond the trace table it reads, for the
# same refusal on a cache hit (9.25 measured at p = 1000003, 4.52 at 10000019:
# the int32 result and a one-byte mask, plus block scratch of fixed size).
_AVALUE_BYTES_PER_P = 10
# Peak bytes per bin of render_histogram and its output (about 385 measured
# at 10^5 and 10^6 bins, p = 101), for refusing a --bins before binning.
_SVG_BYTES_PER_BIN = 400
# Peak bytes per --grid interval of verify distribution (1330 measured at p = 5;
# 1900 with a CSV --out, 5070 with a JSON one), for refusing a --grid up front.
_GRID_BYTES_PER_INTERVAL = 5200
# Peak bytes per isqrt(p) of identity_table and the bracket identities beyond
# the interpreter (2490, 2390 and 2340 measured at p = 10000019, 100000007 and
# 1000000007, --mmax 1), for refusing a p before its class numbers are counted.
_CLASS_BYTES_PER_ROOT = 2500


def _available_memory() -> int | None:
    """Bytes this process can still allocate: MemAvailable, capped by the
    cgroup v2 ``memory.max - memory.current`` when those can be read; None
    when neither can."""
    found = []
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                found.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError):
        pass
    try:
        for line in Path("/proc/self/cgroup").read_text().splitlines():
            if line.startswith("0::"):  # the cgroup v2 entry
                group = Path("/sys/fs/cgroup") / line[3:].lstrip("/")
                limit = (group / "memory.max").read_text().strip()
                if limit != "max":
                    found.append(int(limit) - int((group / "memory.current").read_text()))
    except (OSError, ValueError):
        pass
    return min(found) if found else None


def _memory_size(size: int) -> str:
    """Whole MB from 1 MB up, bytes below, so no amount reads as 0 MB."""
    return f"{size >> 20} MB" if size >= 1 << 20 else f"{size} bytes"


def _require_memory(what: str, need: int, purpose: str) -> None:
    """Raise ValueError when ``need`` bytes exceed the memory available."""
    free = _available_memory()
    if free is not None and need > free:
        raise ValueError(f"{what} needs about {_memory_size(need)} to {purpose}, "
                         f"but only {_memory_size(free)} is available")


def _get_trace_table(p: int, cache_dir: str | None) -> TraceTable:
    path = Path(cache_dir) / f"trace_p{p}.bin" if cache_dir else None
    if path is not None and path.exists():
        try:  # the load raises ArithmeticError for a trace beyond the Hasse bound
            table = cache.load_trace_table(path)
            if table.p != p:
                raise cache.CacheFormatError(f"it holds the table for p={table.p}")
        except cache.CacheFormatError as exc:  # a miss: rebuilt and saved over below
            print(f"warning: rebuilding unreadable cache {path}: {exc}", file=sys.stderr)
        else:
            return table
    if path is not None:  # a directory that cannot be made fails before the build
        path.parent.mkdir(parents=True, exist_ok=True)
    _require_memory(f"p={p}", _TRACE_BYTES_PER_P * p, "build the trace table")
    table = build_trace_table(make_context(p))
    if path is not None:
        cache.save_trace_table(path, table)
    return table


def _emit_rows(out, fmt, header: str, rows: list[list]) -> None:
    keys = header.split(",")
    if fmt == "json":
        payload = [dict(zip(keys, row)) for row in rows]
        _write_text(out, json.dumps(payload, indent=2) + "\n")
        return
    lines = [header]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _write_text(out, "\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


# Rows formatted and written per step of _emit_int_table: its memory is
# O(_BLOCK_ROWS), not one Python str per row of a p-row table. Not a power
# of two: at 2^16 rows the cell rows and the digit temporaries of _csv_block
# lie 64 KiB apart, and where numpy's huge pages back them they compete for
# the same cache sets. In the benchmark's warm pass that made every avalues
# block about 20 ms instead of 7.
_BLOCK_ROWS = 65000


def _emit_int_table(out, fmt, header: str, first, second, last) -> None:
    """Three integer columns, written as ``_emit_rows`` writes them. ``first``
    is a column or the number of the first row, counting up by one a row, and
    ``last`` is a column or one int repeated on every row. A JSON row opens
    with the ',' that follows the row before it, so the first row's ',' is
    dropped."""
    if fmt == "json":
        first_key, *keys = header.split(",")
        prefixes = [f',\n  {{\n    "{first_key}": '] + [f',\n    "{key}": ' for key in keys]
        head, tail, end, skip = "[", "\n  }", "\n]\n", 1
    else:
        prefixes, head, tail, end, skip = ["", ",", ","], header + "\n", "\n", "", 0
    columns = [first, second, last]
    if isinstance(last, int):  # a constant last column is literal text too
        tail = f"{prefixes.pop()}{columns.pop()}{tail}"

    def chunks():
        yield head.encode("ascii")
        for i in range(0, len(second), _BLOCK_ROWS):
            stop = min(i + _BLOCK_ROWS, len(second))
            # a counting first column is made one block at a time
            count = np.arange(first + i, first + stop) if isinstance(first, int) else first[i:stop]
            data = _csv_block([count] + [column[i:stop] for column in columns[1:]], prefixes, tail)
            yield data[skip:] if i == 0 else data
        yield end.encode("ascii")

    if out is None:
        for data in chunks():
            sys.stdout.write(data.decode("ascii"))
        return
    with open(out, "wb") as fh:
        fh.writelines(chunks())


def _csv_block(columns, prefixes, tail: str) -> bytes:
    """Rows of equal-length signed integer columns of any width, by numpy
    digit arithmetic: each row is ``prefixes[0]``, the first number,
    ``prefixes[1]``, the second number, and so on, and then ``tail``.

    Each column takes a fixed span of character cells: its prefix, a sign
    cell, and the number right-aligned in the width of the column's widest
    value. ``cells[c, i]`` is cell c of row i, and a mask keeps each
    number's own cells, its '-' just before the first digit included;
    reading the kept cells row by row gives the text. The digits are
    worked out in uint32 when a column's magnitudes allow it, else uint64.
    """
    # |value| in the unsigned type of the same width: exact at the type's minimum too
    magnitudes = [np.abs(values).view(f"u{values.itemsize}") for values in columns]
    tops = [int(magnitude.max()) for magnitude in magnitudes]
    spans = [len(prefix) + len(str(top)) + 1 for top, prefix in zip(tops, prefixes)]
    cells = np.empty((sum(spans) + len(tail), len(columns[0])), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    stop = 0
    for values, magnitude, top, span, prefix in zip(columns, magnitudes, tops, spans, prefixes):
        cells[stop : stop + len(prefix)] = np.frombuffer(prefix.encode("ascii"), np.uint8)[:, None]
        start, stop = stop + len(prefix), stop + span
        negative = values < 0
        rest = magnitude.astype(np.uint32 if top < 1 << 32 else np.uint64, copy=False)
        higher = rest // 10
        cells[stop - 1] = rest - 10 * higher + ord("0")  # the units digit is always kept
        for cell in range(stop - 2, start - 1, -1):
            shown = higher > 0  # the number has a digit in this cell
            keep[cell] = shown | (negative & (rest > 0))
            rest, higher = higher, higher // 10
            cells[cell] = np.where(shown, rest - 10 * higher + ord("0"), ord("-"))
    cells[stop:] = np.frombuffer(tail.encode("ascii"), np.uint8)[:, None]
    return cells.T[keep.T].tobytes()


def cmd_traces(args) -> int:
    table = _get_trace_table(args.p, args.cache_dir)
    _emit_int_table(args.out, args.format, "lambda,a,phi", 1, table.traces, table.signs)
    return 0


def cmd_avalues(args) -> int:
    p = args.p
    require_inverse_range(p)
    table = _get_trace_table(p, args.cache_dir)
    # a cache hit skips the guard of _get_trace_table, but not this one
    _require_memory(f"p={p}", _AVALUE_BYTES_PER_P * p, "place the A-values")
    num = a_numerators(table)
    del table  # only the numerators stay alive while the text is written
    _emit_int_table(args.out, args.format, "mu,num,den", 1, num, p)
    return 0


def cmd_hist(args) -> int:
    _require_memory(f"bins={args.bins}", _SVG_BYTES_PER_BIN * args.bins, "draw the histogram")
    table = _get_trace_table(args.p, args.cache_dir)
    spec = svg.HistogramSpec(args.p, args.bins, overlay=args.overlay)
    _write_text(args.out, svg.render_histogram(table.multiplicities, spec))
    return 0


def cmd_verify_moments(args) -> int:
    summary = _get_trace_table(args.p, args.cache_dir).multiplicities
    expected = hurwitz.multiplicity_rhs(*hurwitz.identity_table(args.p))
    ok = True
    # every line is computed before any is printed, so a run stopped by an
    # internal check leaves nothing on stdout
    lines = [f"moment identities at p={args.p}, n <= {args.nmax}"]
    for n in range(1, args.nmax + 1):
        for twisted in (False, True):
            lhs = moment(summary, n, twisted)
            rhs = moment(expected, n, twisted)
            good = rhs == lhs
            ok &= good
            kind = "twisted" if twisted else "untwisted"
            lines.append(f"  n={n} {kind}: {lhs} = {rhs} {'ok' if good else 'MISMATCH'}")
    lines.append("all identities hold" if ok else "IDENTITY FAILURE")
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_verify_multiplicities(args) -> int:
    """The trace summary against the class-number summary, row by row: the
    moment identities for every n at once."""
    p = args.p
    summary = _get_trace_table(p, args.cache_dir).multiplicities
    expected = hurwitz.multiplicity_rhs(*hurwitz.identity_table(p))
    rows = zip(summary.weights(), summary.weights(twisted=True),
               expected.weights(), expected.weights(twisted=True))
    for s, (plain, signed, rhs_plain, rhs_signed) in enumerate(rows):
        if (plain, signed) != (rhs_plain, rhs_signed):
            print(f"multiplicity identity at p={p} FAILS first at s={s}: "
                  f"counts {plain}, {signed} vs class numbers {rhs_plain}, {rhs_signed}")
            return 1
    print(f"multiplicity identities at p={p}: all hold for 0 < s <= {len(summary.counts) - 1}")
    return 0


def cmd_verify_brackets(args) -> int:
    p = args.p
    require_prime(p)  # before the memory guard reads p's size
    _require_memory(f"p={p}", _CLASS_BYTES_PER_ROOT * isqrt(p), "count the class numbers")
    alongs = hurwitz.identity_table(p)
    # a_m(p) and b_m(4p), each computed once and shared by the checks below
    coeffs = {m: [brackets.pihol_coeff(m, along) for along in alongs]
              for m in range(1, args.mmax + 1)}
    a1, b1 = coeffs[1]
    ok = good = a1 == 0 and b1 == 0
    # every line is computed before any is printed, so a run stopped by an
    # internal check leaves nothing on stdout
    lines = [f"m=1 vanishing at p={p}: a_1({p})={a1}, b_1({4 * p})={b1} "
             f"{'ok' if good else 'FAIL'}"]
    for m, (a, b) in coeffs.items():
        sides = [(brackets.class_sum(m, along), brackets.coeff_side(m, along, coeff))
                 for along, coeff in zip(alongs, (a, b))]
        good = all(lhs == rhs for lhs, rhs in sides)
        ok &= good
        text = ", ".join(f"{name}-side {lhs} = {rhs}" for name, (lhs, rhs) in zip("ab", sides))
        lines.append(f"  coefficient identity m={m}: {text} {'ok' if good else 'FAIL'}")
        audit = brackets.deligne_audit(m, p, a, b)
        ok &= audit.passed
        lines.append(f"  coefficient bound m={m}: |a|={_g6(abs(audit.a_value))} "
                     f"<= {_g6(audit.a_bound)}, |b|={_g6(abs(audit.b_value))} "
                     f"<= {_g6(audit.b_bound)} {'ok' if audit.passed else 'FAIL'}")
    print("\n".join(lines))
    return 0 if ok else 1


def _g6(value: Fraction | float | Decimal) -> str:
    """``value`` in the .6g form: of a float, or of a Decimal where a float
    cannot hold it."""
    if isinstance(value, Fraction):
        try:
            value = float(value)
        except OverflowError:
            value = Decimal(value.numerator) / value.denominator
    return format(value, ".6g")


def _random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.randint(8, 512)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def _grids_for(which: str, k: int, seed: int | None):
    span = (-3, 3) if which == "batman" else (0, 1)
    if seed is None:
        return stats.uniform_grid(span[0], span[1], k)
    rng = random.Random(f"{seed}:{which}")
    grid = []
    while len(grid) < k:
        a = _random_rational(rng, span[0], span[1])
        b = _random_rational(rng, span[0], span[1])
        if a > b:
            a, b = b, a
        if a != b:
            grid.append((a, b))
    return grid


def cmd_verify_distribution(args) -> int:
    _require_memory(f"grid={args.grid}", _GRID_BYTES_PER_INTERVAL * args.grid, "build the report")
    summary = _get_trace_table(args.p, args.cache_dir).multiplicities
    ok = True
    for which in stats.STATISTICS:
        grid = _grids_for(which, args.grid, args.seed)
        report = stats.discrepancy_report(summary, grid, which)
        ok &= report.all_pass
        print(f"{which}: {len(report.rows)} rows, max gap {report.max_gap:.6f}, "
              f"{'all pass' if report.all_pass else 'BOUND EXCEEDED'}")
        if args.out is not None:
            ext = "json" if args.format == "json" else "csv"
            emit_report(f"{args.out}.{which}.{ext}", args.format, report)
    return 0 if ok else 1


def emit_report(out, fmt, report: stats.DiscrepancyReport) -> None:
    """One discrepancy report in the fixed row schema ``_REPORT_HEADER``."""
    rows = [
        [float(r.lo), float(r.hi), float(r.empirical), r.target, r.gap, r.bound, r.passed]
        for r in report.rows
    ]
    _emit_rows(out, fmt, _REPORT_HEADER, rows)


def cmd_audit_constants(args) -> int:
    p = args.p
    require_prime(p)
    ok = True
    lines = []  # printed only once every chain is computed, as in verify brackets
    for twisted in (False, True):
        audit = selberg.proof_bound_audit(p, twisted)
        ok &= audit.passed
        kind = "twisted" if twisted else "untwisted"
        lines.append(f"{kind} chain at p={p}: {audit.lhs:.4f} <= {audit.rhs:.4f} "
                     f"{'pass' if audit.passed else 'FAIL'}")
    lhs = selberg.simplified_chain(p)
    rhs = selberg.simplified_chain_bound(p)
    ok &= lhs <= rhs
    lines.append(f"simplified untwisted chain: {lhs:.4f} <= {rhs:.4f} "
                 f"(ratio {lhs / rhs:.6f}) {'pass' if lhs <= rhs else 'FAIL'}")
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_ears(args) -> int:
    params = measures.ear_parameters(args.T, args.delta)
    tag = "optimal" if args.delta is None else "given"
    print(f"T = {params.T}")
    print(f"delta = {params.delta!r} ({tag})")
    print(f"x = {params.x:.6e}")
    print(f"p_min = {params.p_min:.6e}   [threshold formula (55.42/(x*delta))^4]")
    print(
        "note: the reference worked example for T=10 expects p >= 3.45e14, but "
        "the threshold formula evaluates to ~5.87e19 there (the window width x "
        "does match). The mismatch is flagged; the formula value is reported."
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser, *, cache=True, out=True, fmt=True):
    if out:
        parser.add_argument("--out", help="output path (stdout when omitted)")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if cache:
        parser.add_argument("--cache-dir", help="directory for the binary trace-table cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3batman",
        description="Frobenius-trace statistics for a K3 family via Clausen curves",
        epilog="exit codes: 0 all checks pass, 1 a verification failed, "
        "2 usage error or failed read/write, 3 internal check failed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_traces = sub.add_parser("traces", help="emit the trace table")
    p_traces.add_argument("--p", type=int, required=True)
    _add_common(p_traces)
    p_traces.set_defaults(func=cmd_traces)

    p_av = sub.add_parser("avalues", help="emit exact A-values")
    p_av.add_argument("--p", type=int, required=True)
    _add_common(p_av)
    p_av.set_defaults(func=cmd_avalues)

    p_hist = sub.add_parser("hist", help="render an SVG histogram of A-values")
    p_hist.add_argument("--p", type=int, required=True)
    p_hist.add_argument("--bins", type=_positive_int, required=True)
    p_hist.add_argument("--overlay", action="store_true",
                        help="draw the limiting density over the bars")
    _add_common(p_hist, fmt=False)
    p_hist.set_defaults(func=cmd_hist)

    p_verify = sub.add_parser("verify", help="exact and statistical verification")
    v_sub = p_verify.add_subparsers(dest="verify_what", required=True)

    v_m = v_sub.add_parser("moments", help="trace moments vs class-number sums")
    v_m.add_argument("--p", type=int, required=True)
    v_m.add_argument("--nmax", type=_positive_int, default=3)
    _add_common(v_m, out=False, fmt=False)
    v_m.set_defaults(func=cmd_verify_moments)

    v_mult = v_sub.add_parser("multiplicities",
                              help="counts of each |trace| vs class numbers")
    v_mult.add_argument("--p", type=int, required=True)
    _add_common(v_mult, out=False, fmt=False)
    v_mult.set_defaults(func=cmd_verify_multiplicities)

    v_b = v_sub.add_parser("brackets", help="coefficient identities and bounds")
    v_b.add_argument("--p", type=int, required=True)
    v_b.add_argument("--mmax", type=_positive_int, default=4)
    _add_common(v_b, out=False, fmt=False, cache=False)
    v_b.set_defaults(func=cmd_verify_brackets)

    v_d = v_sub.add_parser("distribution", help="discrepancy bounds on a grid")
    v_d.add_argument("--p", type=int, required=True)
    v_d.add_argument("--grid", type=_positive_int, default=40, help="intervals per statistic")
    v_d.add_argument("--seed", type=int, help="use random rational intervals")
    _add_common(v_d)
    v_d.set_defaults(func=cmd_verify_distribution)

    p_audit = sub.add_parser("audit-constants", help="explicit constant chains")
    p_audit.add_argument("--p", type=int, required=True)
    _add_common(p_audit, out=False, fmt=False, cache=False)
    p_audit.set_defaults(func=cmd_audit_constants)

    p_ears = sub.add_parser("ears", help="window width and prime threshold near t=+-1")
    p_ears.add_argument("--T", type=float, required=True)
    p_ears.add_argument("--delta", type=float)
    p_ears.set_defaults(func=cmd_ears)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write of the last buffered text shows here
        return code
    except (ValueError, OSError) as exc:  # OSError: an --out, --cache-dir or stdout write failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a run-time guard on a computed table tripped
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    code = dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # already reported: drop the text the reader left behind
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
