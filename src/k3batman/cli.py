"""Command-line surface: table generation, verification suites, and reports."""

from __future__ import annotations

import argparse
import os
import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from . import brackets, cache, hurwitz, measures, selberg, stats, svg
from .clausen import (
    TraceTable,
    build_trace_table,
    cell_numerators,
    lambda_cells,
    moment,
    place_by_mu,
)
from .field import make_context, require_inverse_range, require_prime

_REPORT_HEADER = "lo,hi,empirical,target,gap,bound,pass"


# Peak bytes per p of make_context plus build_trace_table (81.4 measured at
# p = 10000019 above the imports, ru_maxrss; 88.4 when the build kept every
# array to its end), for refusing a p the machine cannot hold before
# allocating.
_TRACE_BYTES_PER_P = 90
# Peak bytes of avalues beyond the trace table it reads, for the same
# refusal on a cache hit (ru_maxrss from the guard on, fresh process, three
# runs): per p, the 2-byte cells by lambda made beside the table, the peak
# from p = 10^7 on (2.03 per p at 10000019, CSV or JSON); and on top one
# block of text on its way out, the peak at p = 1000003, where the whole
# rise is charged for it (3.11-3.12 MB for CSV, 9.81-9.89 MB for JSON).
_AVALUE_BYTES_PER_P = 2
_TABLE_BLOCK_BYTES = 10 << 20
# Peak bytes of hist above the imports, for refusing a --bins before binning:
# per bin, the temporaries of histogram_counts (53 measured from 2 * 10^6 to
# 4 * 10^6 bins at p = 101), and on top one block of bars on its way out, as
# f-strings, joined and encoded: the whole peak at 65000 bins, one full block,
# is charged for it (23.7-23.9 MB, ru_maxrss, fresh process, three runs each
# to stdout and to --out), so the per-bin charge there is headroom.
_SVG_BYTES_PER_BIN = 60
_BAR_BLOCK_BYTES = 24 << 20
# Peak bytes per --grid interval of verify distribution above the imports,
# less 1.4 MB fixed (785-798 measured at p = 5, uniform --grid
# 32500-150000, 801-810 with a --seed), and with a --out one block of
# report rows on top (21 MB for JSON, 11 for CSV: 65000 rows at --grid
# 32500), for refusing a --grid up front.
_GRID_BYTES_PER_INTERVAL = 850
_REPORT_BLOCK_BYTES = 22 << 20
# Peak bytes per isqrt(p) of identity_table and the bracket identities beyond
# the import of the CLI (1970, 1600 and 1460 measured at p = 10000019,
# 100000007 and 1000000007, --mmax 1), for refusing a p before its class
# numbers are counted.
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
    require_prime(p)  # before a cache names a table at p, or the memory guard reads its size
    path = Path(cache_dir) / f"trace_p{p}.bin" if cache_dir else None
    if path is not None and path.exists():
        try:  # a table that breaks its invariants raises ArithmeticError: no rebuild
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


def _exact(value: int | Fraction) -> str:
    """``str(value)`` of an int or a Fraction at any length: str() of an int
    past 4300 digits raises, the conversion through Decimal does not."""
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _write(out, byte_chunks) -> None:
    """Write the chunks to the file ``out``, or to stdout when it is None:
    as bytes to its binary buffer, after the text printed before them, or
    decoded, to a text-only stream such as an io.StringIO."""
    if out is None:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            for data in byte_chunks:
                sys.stdout.write(str(data, "ascii"))
        else:
            sys.stdout.flush()  # the text layer's pending text goes first
            buffer.writelines(byte_chunks)
        return
    with open(out, "wb") as fh:
        fh.writelines(byte_chunks)


# Rows formatted and written per step of _emit_table and
# _emit_numbered_table: their memory is O(_BLOCK_ROWS), not one Python str
# per row of a p-row table. Not a power of two: at 2^16 rows the arrays of
# one block can lie 64 KiB apart, and where numpy's huge pages back them
# they compete for the same cache sets.
_BLOCK_ROWS = 65000


def _emit_table(out, fmt, header: str, rows: int, renderer) -> None:
    """A table of ``rows`` rows in the CSV or JSON layout of ``header``: the
    bytes of a CSV of its cells, or, from one row up, of its row dicts dumped
    as JSON with an indent of 2. ``renderer(prefixes, tail)`` is called once
    and returns ``render``; ``render(start, stop)`` gives rows start to
    stop - 1, each as ``prefixes[0]``, its first cell, ``prefixes[1]``, its
    second cell, and so on, and then ``tail``. A JSON row opens with the ','
    that follows the row before it, so the first row's ',' is dropped."""
    if fmt == "json":
        first_key, *keys = header.split(",")
        prefixes = [f',\n  {{\n    "{first_key}": '] + [f',\n    "{key}": ' for key in keys]
        head, tail, end, skip = "[", "\n  }", "\n]\n", 1
    else:
        prefixes = [""] + [","] * header.count(",")
        head, tail, end, skip = header + "\n", "\n", "", 0
    render = renderer(prefixes, tail)

    def chunks():
        yield head.encode("ascii")
        for i in range(0, rows, _BLOCK_ROWS):
            # a view, not a copy, and no name keeps a block alive beside the next
            start = skip if i == 0 else 0
            yield memoryview(render(i, min(i + _BLOCK_ROWS, rows)))[start:]
        yield end.encode("ascii")

    _write(out, chunks())


def _emit_numbered_table(out, fmt, header: str, rows: int, columns, index) -> None:
    """A table of ``rows`` rows numbered from 1, written by _emit_table: row
    i shows i + 1, then entry ``index(start, stop)[i - start]`` of the
    integer ``columns``, for each block of rows start to stop - 1.

    The text of each entry is made once: the row's opening, room for its
    number, and its cells with their literal text and the row's tail. So a
    block is one gather of entry texts and the digits of its row numbers,
    and no literal text is written per row."""

    def renderer(prefixes, tail):
        texts = _entry_texts(len(str(rows)), columns, prefixes, tail)
        # no name keeps a block's index alive beside the next
        return lambda start, stop: _numbered_block(start + 1, stop + 1, texts,
                                                   index(start, stop), len(prefixes[0]))

    _emit_table(out, fmt, header, rows, renderer)


def _entry_texts(lead: int, columns, prefixes, tail: str) -> np.ndarray:
    """Row k holds the ASCII of ``prefixes[0]``, then ``lead`` NULs, room for
    a row number, then ``prefixes[1]``, ``columns[0][k]``, ``prefixes[2]``,
    ``columns[1][k]``, and so on, and ``tail``, in a uint8 matrix: each
    number in the width of its column's longest, padded with NULs after it."""
    rows = len(columns[0])
    parts = [_literal(prefixes[0], rows), np.zeros((rows, lead), dtype=np.uint8)]
    for prefix, values in zip(prefixes[1:], columns):
        # the widest text from Python ints: astype cuts a number wider than its dtype
        width = max(len(str(int(values.max()))), len(str(int(values.min()))))
        numbers = values.astype(f"S{width}").view(np.uint8).reshape(rows, width)
        parts += [_literal(prefix, rows), numbers]
    parts.append(_literal(tail, rows))
    return np.concatenate(parts, axis=1)


def _literal(text: str, rows: int) -> np.ndarray:
    """``text`` as ASCII on each of ``rows`` rows: a broadcast view."""
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (rows, len(text)))


def _numbered_block(first: int, stop: int, texts: np.ndarray, index, slot: int) -> bytearray:
    """The text of rows numbered ``first`` to ``stop - 1``, row i as
    ``texts[index[i]]`` with its number's digits from column ``slot`` on.

    One gather puts the texts in a row-major matrix, and each number's
    digits overwrite the first of the NULs at ``slot``. They are worked out
    per run of numbers of one length (runs split at powers of ten), in
    uint32 below 2^32, else uint64. The matrix read row by row without its
    NULs is the text: the text is printable ASCII, so it holds no NUL of
    its own."""
    padded = bytearray(len(index) * texts.shape[1])
    block = np.frombuffer(padded, dtype=np.uint8).reshape(len(index), texts.shape[1])
    # clip, not raise, gathers straight into the block: every index is a
    # checked table's, so none is out of range
    np.take(texts, index, axis=0, out=block, mode="clip")
    number = first
    while number < stop:
        digits = len(str(number))
        run_stop = min(stop, 10**digits)
        run = block[number - first : run_stop - first, slot : slot + digits]
        rest = np.arange(number, run_stop, dtype=np.uint32 if run_stop <= 1 << 32 else np.uint64)
        for cell in range(digits - 1, -1, -1):
            higher = rest // 10
            rest -= 10 * higher
            rest += ord("0")
            run[:, cell] = rest
            rest = higher
        number = run_stop
    return padded.translate(None, b"\0")


def cmd_traces(args) -> int:
    table = _get_trace_table(args.p, args.cache_dir)
    top = isqrt(4 * args.p)
    # entry 2 (a + top) + (phi < 0) for each trace a and sign phi
    traces = np.arange(-top, top + 1).repeat(2)
    signs = np.tile([1, -1], 2 * top + 1)

    def index(start, stop):
        entry = table.traces[start:stop].astype(np.intp)
        entry += top
        entry *= 2
        entry += table.signs[start:stop] < 0
        return entry

    _emit_numbered_table(args.out, args.format, "lambda,a,phi", len(table), [traces, signs], index)
    return 0


def cmd_avalues(args) -> int:
    p = args.p
    require_inverse_range(p)
    table = _get_trace_table(p, args.cache_dir)
    # a cache hit skips the guard of _get_trace_table, but not this one
    need = _AVALUE_BYTES_PER_P * p + _TABLE_BLOCK_BYTES
    _require_memory(f"p={p}", need, "place the A-values")
    cells = lambda_cells(table)
    del table  # placed without the table alive: 2 + 2 bytes per p, not 3 + 2 + 2
    cells = place_by_mu(p, cells)  # only the placed 2-byte cells stay alive
    numerators = cell_numerators(p)
    _emit_numbered_table(args.out, args.format, "mu,num,den", len(cells),
                         [numerators, np.full_like(numerators, p)],
                         lambda start, stop: cells[start:stop])
    return 0


def cmd_hist(args) -> int:
    need = _SVG_BYTES_PER_BIN * args.bins + _BAR_BLOCK_BYTES
    _require_memory(f"bins={args.bins}", need, "draw the histogram")
    table = _get_trace_table(args.p, args.cache_dir)
    pieces = svg.render_histogram(table.multiplicities, args.bins, overlay=args.overlay)
    _write(args.out, (piece.encode("ascii") for piece in pieces))
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
            lines.append(f"  n={n} {kind}: {_exact(lhs)} = {_exact(rhs)} "
                         f"{'ok' if good else 'MISMATCH'}")
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
    lines = [f"m=1 vanishing at p={p}: a_1({p})={_exact(a1)}, b_1({4 * p})={_exact(b1)} "
             f"{'ok' if good else 'FAIL'}"]
    for m, (a, b) in coeffs.items():
        sides = [(brackets.class_sum(m, along), brackets.coeff_side(m, along, coeff))
                 for along, coeff in zip(alongs, (a, b))]
        good = all(lhs == rhs for lhs, rhs in sides)
        ok &= good
        text = ", ".join(f"{name}-side {_exact(lhs)} = {_exact(rhs)}"
                         for name, (lhs, rhs) in zip("ab", sides))
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
    need = _GRID_BYTES_PER_INTERVAL * args.grid + (0 if args.out is None else _REPORT_BLOCK_BYTES)
    _require_memory(f"grid={args.grid}", need, "build the report")
    summary = _get_trace_table(args.p, args.cache_dir).multiplicities
    ok = True
    lines = []  # printed once every report is written: a failed write leaves no stdout
    for which in stats.STATISTICS:
        report = stats.discrepancy_report(summary, _grids_for(which, args.grid, args.seed), which)
        ok &= report.all_pass
        lines.append(f"{which}: {len(report.rows)} rows, max gap {report.max_gap:.6f}, "
                     f"{'all pass' if report.all_pass else 'BOUND EXCEEDED'}")
        if args.out is not None:
            emit_report(f"{args.out}.{which}.{args.format}", args.format, report)
        del report  # one report and its grid alive at a time, not two
    print("\n".join(lines))
    return 0 if ok else 1


def emit_report(out, fmt, report: stats.DiscrepancyReport) -> None:
    """One discrepancy report in the fixed row schema ``_REPORT_HEADER``: the
    six numbers as the repr of their floats, and pass as true or false."""

    def renderer(prefixes, tail):
        def render(start, stop):
            text = bytearray()  # grown in place: no list of row strings beside it
            for r in report.rows[start:stop]:
                values = (r.lo, r.hi, r.empirical, r.target, r.gap, r.bound)
                cells = [repr(float(v)) for v in values] + ["true" if r.passed else "false"]
                text += ("".join(map(str.__add__, prefixes, cells)) + tail).encode("ascii")
            return text

        return render

    _emit_table(out, fmt, _REPORT_HEADER, len(report.rows), renderer)


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
    print(f"p_min = {params.p_min:.6e}   "
          f"[threshold formula ({measures._BOUND_BAT_SIGNED}/(x*delta))^4]")
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
