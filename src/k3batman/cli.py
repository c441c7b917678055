"""Command-line surface: table generation, verification suites, and reports."""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import brackets, cache, hurwitz, measures, selberg, stats, svg
from .clausen import TraceTable, build_trace_table, moment
from .field import inverses, make_context, require_prime

_REPORT_HEADER = "lo,hi,empirical,target,gap,bound,pass"


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _get_trace_table(p: int, cache_dir: str | None) -> TraceTable:
    path = Path(cache_dir) / f"trace_p{p}.bin" if cache_dir else None
    if path is not None and path.exists():
        table = cache.load_trace_table(path)
        if table.p == p:
            table.multiplicities  # raises ArithmeticError for a trace beyond the Hasse bound
            return table
    table = build_trace_table(make_context(p))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
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
# O(_BLOCK_ROWS), not one Python str per row of a p-row table.
_BLOCK_ROWS = 1 << 16


def _emit_int_table(out, fmt, header: str, first, second, last) -> None:
    """Three int64 columns, written as ``_emit_rows`` writes them; ``last``
    is a column or one int repeated on every row."""
    constant = isinstance(last, int)
    if fmt == "json":
        lasts = itertools.repeat(last) if constant else last.tolist()
        rows = zip(first.tolist(), second.tolist(), lasts)
        _emit_rows(out, fmt, header, [list(row) for row in rows])
        return
    columns, tail = ((first, second), f",{last}\n") if constant else ((first, second, last), "\n")
    blocks = (
        _csv_block([column[i : i + _BLOCK_ROWS] for column in columns], tail)
        for i in range(0, len(first), _BLOCK_ROWS)
    )
    if out is None:
        sys.stdout.write(header + "\n")
        for data in blocks:
            sys.stdout.write(data.decode("ascii"))
        return
    with open(out, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        for data in blocks:
            fh.write(data)


def _csv_block(columns, tail: str) -> bytes:
    """CSV lines of equal-length int64 columns, each line ending in ``tail``,
    by numpy digit arithmetic.

    Each column takes a fixed span of character cells: a sign cell, the
    number right-aligned in the width of the column's widest value, and then
    ',' (or ``tail`` after the last column). ``cells[c, i]`` is cell c of
    row i, and a mask keeps each number's own cells, its '-' just before the
    first digit included; reading the kept cells row by row gives the text.
    """
    separators = [","] * (len(columns) - 1) + [tail]
    spans = [len(str(int(np.abs(values).max()))) + 1 + len(separator)
             for values, separator in zip(columns, separators)]
    cells = np.empty((sum(spans), len(columns[0])), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    stop = 0
    for values, span, separator in zip(columns, spans, separators):
        start, stop = stop, stop + span
        units = stop - len(separator) - 1
        cells[units + 1 : stop] = np.frombuffer(separator.encode("ascii"), np.uint8)[:, None]
        negative = values < 0
        rest = np.abs(values)
        higher = rest // 10
        cells[units] = rest - 10 * higher + ord("0")  # the units digit is always kept
        for cell in range(units - 1, start - 1, -1):
            shown = higher > 0  # the number has a digit in this cell
            keep[cell] = shown | (negative & (rest > 0))
            rest, higher = higher, higher // 10
            cells[cell] = np.where(shown, rest - 10 * higher + ord("0"), ord("-"))
    return cells.T[keep.T].tobytes()


def cmd_traces(args) -> int:
    table = _get_trace_table(args.p, args.cache_dir)
    _emit_int_table(args.out, args.format, "lambda,a,phi",
                    np.arange(1, table.p - 1), table.traces, table.signs.astype(np.int64))
    return 0


def cmd_avalues(args) -> int:
    p = args.p
    inv = inverses(p)  # of mu + 1 = 2..p-1, so lambda = -(mu+1)^(-1) = p - inv
    table = _get_trace_table(p, args.cache_dir)
    index = p - 1 - inv  # lambda - 1
    a = table.traces[index]
    num = table.signs[index] * (a * a - p)  # p * A_mu(p)
    if int(np.abs(num).max()) > 3 * p:
        raise ArithmeticError(f"an A-value escapes [-3, 3] at p={p}: Hasse bound violated")
    _emit_int_table(args.out, args.format, "mu,num,den", np.arange(1, p - 1), num, p)
    return 0


def cmd_hist(args) -> int:
    table = _get_trace_table(args.p, args.cache_dir)
    spec = svg.HistogramSpec(args.p, args.bins, overlay=args.overlay)
    _write_text(args.out, svg.render_histogram(table, spec))
    return 0


def cmd_verify_moments(args) -> int:
    table = _get_trace_table(args.p, args.cache_dir)
    htable = hurwitz.identity_table(args.p)
    ok = True
    # every line is computed before any is printed, so a run stopped by an
    # internal check leaves nothing on stdout
    lines = [f"moment identities at p={args.p}, n <= {args.nmax}"]
    for n in range(1, args.nmax + 1):
        for twisted in (False, True):
            lhs = moment(table, n, twisted)
            rhs = hurwitz.moment_rhs(htable, args.p, n, twisted)
            good = rhs == lhs
            ok &= good
            kind = "twisted" if twisted else "untwisted"
            lines.append(f"  n={n} {kind}: {lhs} = {rhs} {'ok' if good else 'MISMATCH'}")
    lines.append("all identities hold" if ok else "IDENTITY FAILURE")
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_verify_multiplicities(args) -> int:
    """#{lambda : |a_lambda| = s}, plain and phi-signed, against class numbers
    at every 0 < s <= isqrt(4p): the moment identities for every n at once."""
    p = args.p
    table = _get_trace_table(p, args.cache_dir)
    expected = hurwitz.multiplicity_rhs(hurwitz.identity_table(p), p)
    plain, signed = table.weights(), table.weights(twisted=True)
    for s, (rhs_plain, rhs_signed) in expected.items():
        if (plain[s], signed[s]) != (rhs_plain, rhs_signed):
            print(f"multiplicity identity at p={p} FAILS first at s={s}: "
                  f"counts {plain[s]}, {signed[s]} vs class numbers {rhs_plain}, {rhs_signed}")
            return 1
    print(f"multiplicity identities at p={p}: all hold for 0 < s <= {max(expected)}")
    return 0


def cmd_verify_brackets(args) -> int:
    p = args.p
    htable = hurwitz.identity_table(p)
    # a_m(p) and b_m(4p), each computed once and shared by the checks below
    coeffs = {
        m: (brackets.pihol_coeff(m, 1, p, htable), brackets.pihol_coeff(m, 4, 4 * p, htable))
        for m in range(1, args.mmax + 1)
    }
    a1, b1 = coeffs[1]
    ok = good = a1 == 0 and b1 == 0
    print(f"m=1 vanishing at p={p}: a_1({p})={a1}, b_1({4 * p})={b1} "
          f"{'ok' if good else 'FAIL'}")
    for m, (a, b) in coeffs.items():
        lhs_a = brackets.class_sum_a(m, p, htable)
        rhs_a = brackets.coeff_side_a(m, p, htable, a)
        lhs_b = brackets.class_sum_b(m, p, htable)
        rhs_b = brackets.coeff_side_b(m, p, htable, b)
        good = lhs_a == rhs_a and lhs_b == rhs_b
        ok &= good
        print(f"  coefficient identity m={m}: a-side {lhs_a} = {rhs_a}, "
              f"b-side {lhs_b} = {rhs_b} {'ok' if good else 'FAIL'}")
        audit = brackets.deligne_audit(m, p, htable, a, b)
        ok &= audit.passed
        print(f"  coefficient bound m={m}: |a|={abs(float(audit.a_value)):.6g} "
              f"<= {audit.a_bound:.6g}, |b|={abs(float(audit.b_value)):.6g} "
              f"<= {audit.b_bound:.6g} {'ok' if audit.passed else 'FAIL'}")
    return 0 if ok else 1


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
    table = _get_trace_table(args.p, args.cache_dir)
    ok = True
    for which in stats.STATISTICS:
        grid = _grids_for(which, args.grid, args.seed)
        report = stats.discrepancy_report(table, grid, which)
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
    for twisted in (False, True):
        audit = selberg.proof_bound_audit(p, twisted)
        ok &= audit.passed
        kind = "twisted" if twisted else "untwisted"
        print(f"{kind} chain at p={p}: {audit.lhs:.4f} <= {audit.rhs:.4f} "
              f"{'pass' if audit.passed else 'FAIL'}")
    lhs = selberg.simplified_chain(p)
    rhs = selberg.simplified_chain_bound(p)
    ok &= lhs <= rhs
    print(f"simplified untwisted chain: {lhs:.4f} <= {rhs:.4f} "
          f"(ratio {lhs / rhs:.6f}) {'pass' if lhs <= rhs else 'FAIL'}")
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
        "2 usage error, 3 internal check failed",
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
    p_hist.add_argument("--bins", type=int, required=True)
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
    _add_common(v_b, out=False, fmt=False)
    v_b.set_defaults(func=cmd_verify_brackets)

    v_d = v_sub.add_parser("distribution", help="discrepancy bounds on a grid")
    v_d.add_argument("--p", type=int, required=True)
    v_d.add_argument("--grid", type=int, default=40, help="intervals per statistic")
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
        return args.func(args)
    except (ValueError, cache.CacheFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a run-time guard on a computed table tripped
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
