import contextlib
import functools
import io
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from k3batman import (
    TraceSummary,
    TraceTable,
    build_hurwitz_table,
    build_trace_table,
    clausen_trace,
    make_context,
    moment,
)
from k3batman import cache
from k3batman.cli import _BLOCK_ROWS, dispatch
from util import a_value, child_env, dense_identity_table, entries

P5_TRACES_CSV = "lambda,a,phi\n1,-2,1\n2,0,-1\n3,2,-1\n"
P5_AVALUES_CSV = "mu,num,den\n1,5,5\n2,1,5\n3,-1,5\n"


def test_traces_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert dispatch(["traces", "--p", "5", "--out", str(out)]) == 0
    assert out.read_text() == P5_TRACES_CSV


def test_traces_stdout(capsys):
    assert dispatch(["traces", "--p", "5"]) == 0
    assert capsys.readouterr().out == P5_TRACES_CSV


def test_traces_json(tmp_path):
    out = tmp_path / "t.json"
    assert dispatch(["traces", "--p", "5", "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert rows == [
        {"lambda": 1, "a": -2, "phi": 1},
        {"lambda": 2, "a": 0, "phi": -1},
        {"lambda": 3, "a": 2, "phi": -1},
    ]


def test_avalues_csv(tmp_path):
    out = tmp_path / "a.csv"
    assert dispatch(["avalues", "--p", "5", "--out", str(out)]) == 0
    assert out.read_text() == P5_AVALUES_CSV


def test_verify_moments_exit_code_and_report(capsys):
    assert dispatch(["verify", "moments", "--p", "5", "--nmax", "2"]) == 0
    output = capsys.readouterr().out
    assert "8 = 8" in output
    assert "0 = 0" in output
    assert "32 = 32" in output


@contextlib.contextmanager
def _no_digit_limit():
    """str() of ints of any length, as before Python's 4300-digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_moments_prints_values_past_the_digit_limit(capsys):
    assert dispatch(["verify", "moments", "--p", "101", "--nmax", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = build_trace_table(make_context(101)).multiplicities
    with _no_digit_limit():
        values = {(n, kind): str(moment(summary, n, twisted)) for n in range(1, 2001)
                  for kind, twisted in (("untwisted", False), ("twisted", True))}
    assert max(map(len, values.values())) > 4300
    assert lines == ["moment identities at p=101, n <= 2000",
                     *(f"  n={n} {kind}: {v} = {v} ok" for (n, kind), v in values.items()),
                     "all identities hold"]


def test_exact_values_print_at_any_length():
    from k3batman.cli import _exact

    big = 7**6000  # 5071 digits
    values = [0, -3, big, -big, Fraction(big), Fraction(-big, 3), Fraction(5, big)]
    with _no_digit_limit():
        expected = [str(v) for v in values]
    assert [_exact(v) for v in values] == expected


def test_verify_moments_failure_exit(monkeypatch, capsys):
    from k3batman import cli

    # a wrong but integral class-number summary: one lambda at every (s, sign)
    monkeypatch.setattr(cli.hurwitz, "multiplicity_rhs", lambda along_p, along_4p: TraceSummary(
        along_p.n, np.ones((math.isqrt(4 * along_p.n) + 1, 2))))
    assert dispatch(["verify", "moments", "--p", "5", "--nmax", "1"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_moments_stopped_midway_prints_nothing(monkeypatch, capsys):
    from k3batman import cli

    def failing_moment(table, n, twisted):
        if n == 2:
            raise ArithmeticError("moment guard tripped")
        return moment(table, n, twisted)

    monkeypatch.setattr(cli, "moment", failing_moment)
    assert dispatch(["verify", "moments", "--p", "101"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: moment guard tripped\n"


@pytest.mark.parametrize("error, code", [(ArithmeticError, 3), (ValueError, 2)])
def test_verify_brackets_stopped_midway_prints_nothing(monkeypatch, capsys, error, code):
    from k3batman import brackets

    audit = brackets.deligne_audit

    def failing_audit(m, *args):
        if m == 2:
            raise error("guard tripped at m=2")
        return audit(m, *args)

    monkeypatch.setattr(brackets, "deligne_audit", failing_audit)
    assert dispatch(["verify", "brackets", "--p", "101"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "guard tripped at m=2" in captured.err


@pytest.mark.parametrize("error, code", [(ArithmeticError, 3), (ValueError, 2)])
def test_audit_constants_stopped_midway_prints_nothing(monkeypatch, capsys, error, code):
    from k3batman import selberg

    audit = selberg.proof_bound_audit

    def failing_audit(p, twisted):
        if twisted:
            raise error("eval_trig failed on the twisted chain")
        return audit(p, twisted)

    monkeypatch.setattr(selberg, "proof_bound_audit", failing_audit)
    assert dispatch(["audit-constants", "--p", "101"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "twisted chain" in captured.err


def test_verify_brackets(capsys):
    assert dispatch(["verify", "brackets", "--p", "7", "--mmax", "3"]) == 0
    assert "m=1 vanishing" in capsys.readouterr().out


def test_verify_distribution_writes_reports(tmp_path, capsys):
    prefix = tmp_path / "rep"
    code = dispatch(
        ["verify", "distribution", "--p", "101", "--grid", "8",
         "--out", str(prefix), "--format", "csv"]
    )
    assert code == 0
    for stat in ("clausen_N", "clausen_Hpm", "clausen_M", "batman"):
        path = Path(f"{prefix}.{stat}.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "lo,hi,empirical,target,gap,bound,pass"
        assert len(lines) > 8


def test_verify_distribution_seeded_random_grid(capsys):
    assert dispatch(["verify", "distribution", "--p", "101", "--grid", "5",
                     "--seed", "42"]) == 0


def test_audit_constants(capsys):
    assert dispatch(["audit-constants", "--p", "5"]) == 0
    output = capsys.readouterr().out
    assert "37.2" in output and "38.8" in output
    assert "simplified" in output


@pytest.mark.parametrize("p", [10000019, 100000007])
def test_audit_constants_at_large_p(p, capsys):
    # p^m overflows a float at these p; the audit reads p^-m, which underflows to 0
    assert dispatch(["audit-constants", "--p", str(p)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3 and all(line.endswith(" pass") for line in lines)
    assert captured.err == ""


def test_ears_output(capsys):
    assert dispatch(["ears", "--T", "10"]) == 0
    output = capsys.readouterr().out
    assert "6.332273e-05" in output
    assert "5.866411e+19" in output
    assert "3.45e14" in output  # the flagged reference mismatch


@pytest.mark.parametrize(
    "argv",
    [["--T", "inf"], ["--T", "10", "--delta", "nan"], ["--T", "10", "--delta", "inf"]],
    ids=["T-inf", "delta-nan", "delta-inf"],
)
def test_ears_non_finite_is_usage_error(argv, capsys):
    assert dispatch(["ears", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "must be finite" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [["--T", "1e74"], ["--T", "1e154"], ["--T", "10", "--delta", "1e200"],
     ["--T", "10", "--delta", "-1"]],
    ids=["p_min-overflows", "delta-overflows", "x-overflows", "delta-negative"],
)
def test_ears_past_the_float_range_is_usage_error(argv, capsys):
    assert dispatch(["ears", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "delta, x and p_min must be finite and positive" in lines[0]


def test_internal_check_failure_exit_code(monkeypatch, capsys):
    from k3batman import clausen

    irfft = clausen.irfft
    monkeypatch.setattr(clausen, "irfft", lambda *args: irfft(*args) + 0.4)
    assert dispatch(["traces", "--p", "101"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: internal check failed: FFT rounding residual")


@pytest.mark.parametrize(
    "argv",
    [["verify", "brackets", "--p", "100"], ["audit-constants", "--p", "100"]],
    ids=["verify-brackets", "audit-constants"],
)
def test_composite_p_is_usage_error_everywhere(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p=100 is composite (Miller-Rabin witness 2)\n"


@pytest.mark.parametrize("p, message", [
    (318665857834031151167461, "is composite (Miller-Rabin witness 41)"),
    (3317044064679887385961981, "is out of the certified primality range"),
    (2**1279 - 1, "is out of the certified primality range"),
], ids=["psi12", "psi13", "mersenne-1279"])
def test_audit_constants_refuses_what_it_cannot_certify(p, message, capsys):
    assert dispatch(["audit-constants", "--p", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(
    "argv",
    [["verify", "moments", "--p", "5", "--nmax", "0"],
     ["verify", "brackets", "--p", "5", "--mmax", "0"],
     ["verify", "brackets", "--p", "5", "--mmax", "-3"],
     ["verify", "distribution", "--p", "101", "--grid", "0", "--seed", "1"],
     ["verify", "distribution", "--p", "101", "--grid", "-3", "--seed", "1"],
     ["hist", "--p", "101", "--bins", "0"],
     ["hist", "--p", "101", "--bins", "-3"]],
    ids=["nmax-0", "mmax-0", "mmax-negative", "grid-0", "grid-negative", "bins-0",
         "bins-negative"],
)
def test_empty_verification_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 1" in captured.err


@pytest.mark.parametrize("command", ["moments", "brackets", "multiplicities"])
@pytest.mark.parametrize("p", [5, 101, 1009, 25013])
def test_identity_table_output_matches_dense_table(monkeypatch, capsys, command, p):
    from k3batman import cli

    argv = ["verify", command, "--p", str(p)]
    assert dispatch(argv) == 0
    sparse_out = capsys.readouterr().out
    monkeypatch.setattr(cli.hurwitz, "identity_table",
                        lambda q: dense_identity_table(build_hurwitz_table(4 * q), q))
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == sparse_out


def _is_rounding_of_root(text, exact_square):
    """Whether ``text``, a .6g number, is the 6-digit rounding of the
    positive value whose square is ``exact_square``, a Fraction."""
    mantissa, _, exponent = text.partition("e")
    value = Fraction(mantissa) * Fraction(10) ** int(exponent or 0)
    half_unit = Fraction(5) * Fraction(10) ** (int(exponent or 0) - 6)
    return (value - half_unit) ** 2 <= exact_square <= (value + half_unit) ** 2


def test_verify_brackets_past_the_float_range(capsys):
    """At p = 1000003 and m = 50, b and its bound are past the largest
    float: the audit compares exactly and prints their 6-digit roundings."""
    from k3batman import brackets, identity_table, pihol_coeff

    p, m = 1000003, 50
    assert dispatch(["verify", "brackets", "--p", str(p), "--mmax", str(m)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 2 * m and all(line.endswith(" ok") for line in lines)
    a_text, a_bound, b_text, b_bound = re.fullmatch(
        rf"  coefficient bound m={m}: \|a\|=(\S+) <= (\S+), \|b\|=(\S+) <= (\S+) ok",
        lines[-1]).groups()
    along_p, along_4p = identity_table(p)
    a, b = pihol_coeff(m, along_p), pihol_coeff(m, along_4p)
    assert float(b_bound) == math.inf and abs(b) > Fraction(1 << 1024)
    b_factor = Fraction(4 * math.comb(2 * m, m) * (m - 1), 3)
    a_factor = b_factor / (2 * 4**m)
    root = p ** (2 * m + 1)  # the square of p^(m + 1/2)
    for text, square in ((a_text, a * a), (a_bound, a_factor**2 * root),
                         (b_text, b * b), (b_bound, b_factor**2 * root)):
        assert _is_rounding_of_root(text, square), text
    assert brackets.deligne_audit(m, p, a, b).passed


def test_verify_brackets_computes_each_coefficient_once(monkeypatch, capsys):
    from k3batman import brackets

    calls = []
    pihol = brackets.pihol_coeff

    def counted(m, along):
        calls.append((m, along.t, along.n))
        return pihol(m, along)

    monkeypatch.setattr(brackets, "pihol_coeff", counted)
    assert dispatch(["verify", "brackets", "--p", "101", "--mmax", "4"]) == 0
    assert sorted(calls) == sorted({(m, t, n) for m in range(1, 5) for t, n in ((1, 101), (4, 404))})


def test_cache_dir_holds_only_the_trace_table(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert dispatch(["verify", "moments", "--p", "101", "--cache-dir", str(cache_dir)]) == 0
    # verify brackets reads no trace table, so it takes no --cache-dir at all
    with pytest.raises(SystemExit) as exc:
        dispatch(["verify", "brackets", "--p", "101", "--cache-dir", str(cache_dir)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    assert [f.name for f in cache_dir.iterdir()] == ["trace_p101.bin"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        dispatch(["traces", "--p", "5", "--bogus"])
    assert exc.value.code == 2


def test_composite_p_is_usage_error(capsys):
    assert dispatch(["traces", "--p", "9"]) == 2
    assert "witness" in capsys.readouterr().err


def test_hist_deterministic_svg(tmp_path):
    out1, out2 = tmp_path / "h1.svg", tmp_path / "h2.svg"
    assert dispatch(["hist", "--p", "101", "--bins", "21", "--out", str(out1),
                     "--overlay"]) == 0
    assert dispatch(["hist", "--p", "101", "--bins", "21", "--out", str(out2),
                     "--overlay"]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"<svg")
    assert b"polyline" in data  # overlay curve present


def test_traces_output_matches_oracle(tmp_path):
    p = 4099
    ctx = make_context(p)
    out = tmp_path / "t.csv"
    assert dispatch(["traces", "--p", str(p), "--out", str(out)]) == 0
    rows = [f"{lam},{clausen_trace(ctx, lam)},{ctx.chi(p - lam)}" for lam in range(1, p - 1)]
    _assert_same_text(out.read_bytes(), ("lambda,a,phi\n" + "\n".join(rows) + "\n").encode())


def test_cache_round_trip_via_cli(tmp_path):
    cache_dir = tmp_path / "cache"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(["traces", "--p", "101", "--out", str(out1),
                     "--cache-dir", str(cache_dir)]) == 0
    assert (cache_dir / "trace_p101.bin").exists()
    assert dispatch(["traces", "--p", "101", "--out", str(out2),
                     "--cache-dir", str(cache_dir)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_histogram_rejects_out_of_range_values():
    from k3batman.svg import histogram_counts

    traces, signs = np.array([9, 0, 2], dtype=np.int64), np.array([1, -1, -1], dtype=np.int8)
    with pytest.raises(ArithmeticError, match="Hasse"):  # no table can hold |a| = 9 at p = 5
        histogram_counts(TraceTable(5, traces, signs).multiplicities, 10)
    # a summary with a row past isqrt(4p) is refused before it can be binned
    counts = np.zeros((10, 2), dtype=np.int64)
    counts[[0, 2, 9], [1, 1, 0]] = 1
    with pytest.raises(ValueError, match=r"shape \(5, 2\)"):
        TraceSummary(5, counts)
    assert histogram_counts(TraceSummary(5, counts[:5]), 6) == [0, 0, 0, 1, 1, 0]  # A = 1/5, 1


def test_histogram_refuses_bins_past_int64():
    from k3batman.svg import histogram_counts

    summary = build_trace_table(make_context(5)).multiplicities
    with pytest.raises(ValueError, match="too many"):
        histogram_counts(summary, (1 << 63) // 30 + 1)


@pytest.mark.parametrize("bins", [1, 6, 7, 13, 61, 606])
def test_render_histogram_pieces_join_to_the_same_document_in_any_blocks(monkeypatch, bins):
    from k3batman import svg

    summary = build_trace_table(make_context(101)).multiplicities
    whole = "".join(svg.render_histogram(summary, bins, overlay=True))
    monkeypatch.setattr(svg, "_BAR_BLOCK", 6)  # 606 bins cross 101 block boundaries
    pieces = list(svg.render_histogram(summary, bins, overlay=True))
    assert len(pieces) == 2 + -(-bins // 6)  # the head, the bar blocks, the axes
    assert "".join(pieces) == whole
    assert whole.count("<rect") == 1 + bins


def test_render_histogram_counts_before_the_first_piece():
    from k3batman.svg import render_histogram

    summary = build_trace_table(make_context(101)).multiplicities
    with pytest.raises(ValueError, match="bins must be >= 1"):
        render_histogram(summary, 0)


def test_render_histogram_takes_the_prime_from_the_summary():
    from k3batman.svg import render_histogram

    summary = build_trace_table(make_context(101)).multiplicities
    assert "".join(render_histogram(summary, 10)).startswith("<svg")


def test_trace_cache_round_trip(tmp_path):
    table = build_trace_table(make_context(101))
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, table)
    loaded = cache.load_trace_table(path)
    assert loaded.p == 101
    assert loaded.traces.tolist() == table.traces.tolist()
    assert loaded.signs.tolist() == table.signs.tolist()


def test_hurwitz_cache_round_trip(tmp_path):
    table = build_hurwitz_table(500)
    path = tmp_path / "h.bin"
    cache.save_hurwitz_table(path, table)
    loaded = cache.load_hurwitz_table(path)
    assert loaded.d_max == 500
    assert loaded.twelve_h.tolist() == table.twelve_h.tolist()


def test_cache_version_error(tmp_path):
    table = build_trace_table(make_context(101))
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, table)
    raw = bytearray(path.read_bytes())
    raw[7] = ord("0")  # BATMANv5 -> BATMANv0
    path.write_bytes(bytes(raw))
    with pytest.raises(cache.CacheFormatError, match="version"):
        cache.load_trace_table(path)


def test_cache_kind_mismatch(tmp_path):
    table = build_hurwitz_table(99)
    path = tmp_path / "h.bin"
    cache.save_hurwitz_table(path, table)
    with pytest.raises(cache.CacheFormatError, match="kind"):
        cache.load_trace_table(path)


def test_cache_truncation_error(tmp_path):
    table = build_trace_table(make_context(101))
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, table)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(cache.CacheFormatError, match="length"):
        cache.load_trace_table(path)


class _FailingWriter:
    """Stands in for ``open`` in the cache module: writes half of what it is
    given, then raises, like a run killed or out of disk mid-write."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize(
    "save, build",
    [
        (cache.save_trace_table, lambda: build_trace_table(make_context(101))),
        (cache.save_hurwitz_table, lambda: build_hurwitz_table(404)),
    ],
    ids=["trace", "hurwitz"],
)
def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch, save, build):
    table = build()
    kept = tmp_path / "kept.bin"
    save(kept, table)
    good = kept.read_bytes()
    monkeypatch.setattr(cache, "open", _FailingWriter, raising=False)
    for path in (tmp_path / "fresh.bin", kept):
        with pytest.raises(OSError, match="disk full"):
            save(path, table)
    monkeypatch.undo()
    # no truncated target, no stray temp file, and the earlier file is intact
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_bytes() == good


def test_cache_checksum_error(tmp_path):
    table = build_trace_table(make_context(101))
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, table)
    raw = bytearray(path.read_bytes())
    raw[30] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(cache.CacheFormatError, match="checksum"):
        cache.load_trace_table(path)


def _pack_trace_file(path, p, traces, signs):
    """Write a CRC-valid format-v5 trace cache file, packed here apart from the
    cache module: header, traces (int16 under the narrow width at p, else
    int32), signs, then the CRC32. A trace the width cannot hold fails here,
    not wrapped into the file."""
    from k3batman import clausen

    packed = np.asarray(traces).astype("<i2" if clausen.narrow_width(p) else "<i4")
    assert np.array_equal(packed, traces), "a trace does not fit the file's width"
    body = (struct.pack("<8sBQ", b"BATMANv5", 1, p) + packed.tobytes()
            + np.asarray(signs, "i1").tobytes())
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _count_summary(p, traces, signs):
    """The summary counts of ``traces`` without the Hasse check, as formats
    v2 and v3 stored them: a trace past the bound is counted in the last
    row. Widened first, since np.abs wraps at the least int32."""
    bound = math.isqrt(4 * p)
    magnitudes = np.abs(np.asarray(traces, dtype=np.int64))
    cells = 2 * np.minimum(magnitudes, bound) + (np.asarray(signs) < 0)
    return np.bincount(cells, minlength=2 * bound + 2).reshape(bound + 1, 2)


def _cache_with_trace(tmp_path, p, index, value):
    """A CRC-valid cache directory whose table has one trace replaced."""
    table = build_trace_table(make_context(p))
    traces = table.traces.astype(np.int64)
    traces[index] = value
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    _pack_trace_file(cache_dir / f"trace_p{p}.bin", p, traces, table.signs)
    return str(cache_dir)


@pytest.mark.parametrize("p", [5, 7, 101, 1009, 25013])
def test_trace_cache_keeps_signs_and_summary(tmp_path, p):
    table = build_trace_table(make_context(p))
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, table)
    assert path.stat().st_size == 17 + 3 * (p - 2) + 4
    loaded = cache.load_trace_table(path)
    assert loaded.p == p
    assert loaded.traces.dtype == np.int16
    assert np.array_equal(loaded.traces, table.traces)
    assert np.array_equal(loaded.signs, table.signs)
    assert loaded.multiplicities == table.multiplicities
    recounted = _count_summary(p, loaded.traces, loaded.signs)
    assert np.array_equal(loaded.multiplicities.counts, recounted)
    assert not (loaded.traces.flags.writeable or loaded.signs.flags.writeable)


def test_trace_cache_load_builds_no_legendre_table_and_counts_nothing(tmp_path, monkeypatch):
    from k3batman import cli, field

    table = build_trace_table(make_context(1009))
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, table)

    def never(*args, **kwargs):
        raise AssertionError("a cache load built a Legendre table or counted the traces")

    for module in (field, cache, cli):
        monkeypatch.setattr(module, "make_context", never, raising=False)
    monkeypatch.setattr(np, "bincount", never)
    loaded = cache.load_trace_table(path)
    monkeypatch.undo()  # the summary is counted from the loaded traces when read
    assert loaded.multiplicities == table.multiplicities


@pytest.mark.parametrize("p", [0, 2, 3])
def test_trace_cache_refuses_a_header_prime_below_5(tmp_path, p):
    path = tmp_path / "t.bin"
    _pack_trace_file(path, p, [], [])
    with pytest.raises(cache.CacheFormatError, match="bad prime"):
        cache.load_trace_table(path)


def test_trace_cache_refuses_a_table_beyond_hasse(tmp_path):
    _assert_save_refuses_trace(tmp_path, 9)


@pytest.mark.parametrize("value", [1 << 31, -(1 << 31) - 1, (1 << 32) + 2])
def test_trace_cache_refuses_int64_traces_past_int32(tmp_path, value):
    """A trace that the narrowing to int32 would wrap, the last one back into
    the Hasse range, is refused before anything is written."""
    _assert_save_refuses_trace(tmp_path, value)


def _assert_save_refuses_trace(tmp_path, value):
    """No table can hold the trace, so no save can write one."""
    traces, signs = np.array([value, 0, 2], dtype=np.int64), np.array([1, -1, -1], np.int8)
    with pytest.raises(ArithmeticError, match="Hasse"):
        cache.save_trace_table(tmp_path / "t.bin", TraceTable(5, traces, signs))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p", [5, 101, 25013])
def test_trace_cache_narrows_int64_traces(tmp_path, p):
    """An int64 table, as the benchmark's FFT generator makes, is saved as
    int16 traces and loads with equal values and summary."""
    table = build_trace_table(make_context(p))
    wide = TraceTable(p, table.traces.astype(np.int64), table.signs)
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, wide)
    loaded = cache.load_trace_table(path)
    assert loaded.traces.dtype == np.int16
    assert np.array_equal(loaded.traces, wide.traces)
    assert loaded.multiplicities == wide.multiplicities
    cache.save_trace_table(tmp_path / "narrow.bin", table)
    assert path.read_bytes() == (tmp_path / "narrow.bin").read_bytes()


def _flipped_sign(signs):
    signs[0] = -signs[0]  # the signs no longer sum to -1
    return signs


def _zero_signs(signs):
    signs[[np.flatnonzero(signs == 1)[0], np.flatnonzero(signs == -1)[0]]] = 0  # sum kept
    return signs


@pytest.mark.parametrize("corrupt", [_flipped_sign, _zero_signs], ids=["sign", "zero"])
def test_cached_summary_breaking_an_invariant_is_internal_error(tmp_path, capsys, corrupt):
    """Cached signs that are not p - 2 values +-1 summing to -1, the
    invariant every summary's column totals rest on, stop the run."""
    p = 101
    table = build_trace_table(make_context(p))
    signs = corrupt(table.signs.copy())
    _pack_trace_file(tmp_path / f"trace_p{p}.bin", p, table.traces, signs)
    assert dispatch(["verify", "moments", "--p", str(p), "--cache-dir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: internal check failed: trace signs at p={p}")


def test_cache_file_for_another_prime_is_rebuilt(tmp_path, capsys):
    """A file holding another prime is a miss: same stdout and exit code as a
    run with no cache, one warning line, and the right table saved over it."""
    argv = ["verify", "moments", "--p", "101"]
    assert dispatch(argv) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "trace_p101.bin"
    cache.save_trace_table(path, build_trace_table(make_context(103)))
    assert dispatch(argv + ["--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert cache.load_trace_table(path).p == 101


@pytest.mark.parametrize("p", [5, 7, 101, 1009, 25013])
def test_verify_multiplicities(p, capsys):
    assert dispatch(["verify", "multiplicities", "--p", str(p)]) == 0
    bound = math.isqrt(4 * p)
    assert capsys.readouterr().out == (
        f"multiplicity identities at p={p}: all hold for 0 < s <= {bound}\n"
    )


def test_verify_multiplicities_names_first_mismatch(tmp_path, capsys):
    p = 101
    table = build_trace_table(make_context(p))
    index = int(np.flatnonzero(np.abs(table.traces) == 10)[0])
    a = int(table.traces[index])
    cache_dir = _cache_with_trace(tmp_path, p, index, a - 2 if a > 0 else a + 2)  # |a| 10 -> 8
    argv = ["verify", "multiplicities", "--p", str(p), "--cache-dir", cache_dir]
    assert dispatch(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"multiplicity identity at p={p} FAILS first at s=8: counts ")
    assert out.count("\n") == 1


def test_verify_multiplicities_checks_the_zero_row(tmp_path, capsys):
    p = 101
    table = build_trace_table(make_context(p))
    index = int(np.flatnonzero(table.traces == 0)[0])
    cache_dir = _cache_with_trace(tmp_path, p, index, 2)  # |a| 0 -> 2
    argv = ["verify", "multiplicities", "--p", str(p), "--cache-dir", cache_dir]
    assert dispatch(argv) == 1
    assert capsys.readouterr().out.startswith(
        f"multiplicity identity at p={p} FAILS first at s=0: counts ")


def _swap_across_signs(traces, signs):
    """Swap two traces of unequal size and opposite sign: the plain counts
    keep their totals per |a|, the signed ones do not."""
    i = int(np.flatnonzero((signs == 1) & (np.abs(traces) == 10))[0])
    j = int(np.flatnonzero((signs == -1) & (np.abs(traces) == 4))[0])
    traces[[i, j]] = traces[[j, i]]


def _lower_by_two(traces, signs):
    i = int(np.flatnonzero(np.abs(traces) == 10)[0])
    traces[i] -= 2 * np.sign(traces[i])  # |a| 10 -> 8


@pytest.mark.parametrize("change", [_swap_across_signs, _lower_by_two], ids=["swap", "lower"])
def test_changed_cached_traces_fail_both_verifications(tmp_path, capsys, change):
    """A CRC-valid file with traces changed inside the Hasse bound: each
    summary is counted from the traces that ``traces`` prints, so both
    trace-side verifications fail on it."""
    p = 101
    table = build_trace_table(make_context(p))
    traces = table.traces.copy()
    change(traces, table.signs)
    _pack_trace_file(tmp_path / f"trace_p{p}.bin", p, traces, table.signs)
    argv = ["--p", str(p), "--cache-dir", str(tmp_path)]
    assert dispatch(["traces", *argv]) == 0
    printed = [int(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert printed == traces.tolist()
    assert dispatch(["verify", "multiplicities", *argv]) == 1
    first = 4 if change is _swap_across_signs else 8
    assert capsys.readouterr().out.startswith(
        f"multiplicity identity at p={p} FAILS first at s={first}: counts ")
    assert dispatch(["verify", "moments", *argv]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and out.endswith("IDENTITY FAILURE\n")


_TRACE_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["verify", "moments"], ["hist", "--bins", "11"], ["verify", "distribution"],
     ["verify", "multiplicities"], ["avalues"], ["traces"]],
    ids=["verify-moments", "hist", "verify-distribution", "verify-multiplicities", "avalues",
         "traces"],
)


@_TRACE_COMMANDS
def test_cached_trace_beyond_hasse_is_internal_error(tmp_path, capsys, argv):
    _assert_cached_trace_is_internal_error(tmp_path, capsys, argv, 22)  # 2 sqrt(101) < 21


# The least and largest int32, in a file of int32 traces (the narrow width
# lowered below p = 101): no check may take np.abs of an int32, which wraps
# at the least value, or square one in int32.
@pytest.mark.parametrize("value", [-(1 << 31), (1 << 31) - 1], ids=["int32-min", "int32-max"])
@_TRACE_COMMANDS
def test_cached_int32_extreme_trace_is_internal_error(tmp_path, monkeypatch, capsys, argv, value):
    from k3batman import clausen

    monkeypatch.setattr(clausen, "_UINT16_TOP", 2 * math.isqrt(4 * 101))
    _assert_cached_trace_is_internal_error(tmp_path, capsys, argv, value)


# The same in the int16 file every p up to about 2.7e8 gets: 2|a| of either
# passes uint16, and np.abs of the least wraps.
@pytest.mark.parametrize("value", [-(1 << 15), (1 << 15) - 1], ids=["int16-min", "int16-max"])
@_TRACE_COMMANDS
def test_cached_int16_extreme_trace_is_internal_error(tmp_path, capsys, argv, value):
    _assert_cached_trace_is_internal_error(tmp_path, capsys, argv, value)


@_TRACE_COMMANDS
def test_composite_p_is_refused_before_its_cache_and_memory_guard(tmp_path, capsys, argv):
    """A well-formed table saved at p = 9 is never read, and 10^12 is named
    composite, not sized by the memory guard as a table to build."""
    signs = np.array([1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
    cache.save_trace_table(tmp_path / "trace_p9.bin", TraceTable(9, np.zeros(7, np.int16), signs))
    for p in (9, 10**12):
        assert dispatch(argv + ["--p", str(p), "--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: p={p} is composite ")


def _assert_cached_trace_is_internal_error(tmp_path, capsys, argv, value):
    cache_dir = _cache_with_trace(tmp_path, 101, 17, value)
    assert dispatch(argv + ["--p", "101", "--cache-dir", cache_dir]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: internal check failed: ")
    assert "Hasse" in lines[0]


def test_avalues_wrong_inverse_is_internal_error(monkeypatch, capsys):
    from k3batman import field

    powers = field.powers

    def off_by_one(*args):
        result = powers(*args)  # at p = 101 one block holds every power
        result[result == 42] += 1  # no power reaches 42 now, so it gets no inverse
        return result

    monkeypatch.setattr(field, "powers", off_by_one)
    assert dispatch(["avalues", "--p", "101"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "error: internal check failed: modular inverse check failed at p=101: x=42"
    )


def test_avalues_swapped_powers_are_internal_error(monkeypatch, capsys):
    from k3batman import field

    powers = field.powers

    def swapped(g, p, count):
        result = powers(g, p, count)
        if g == 2:  # the powers of g, not of g^(-1) = 51: the streams disagree
            result[[1, 2]] = result[[2, 1]]  # g <-> g^2: every x is still reached
        return result

    monkeypatch.setattr(field, "powers", swapped)
    assert dispatch(["avalues", "--p", "101"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # g = 2, so the walk meets x = 4 at k = 1 against g^99 = 51, the inverse of 2
    assert captured.err == ("error: internal check failed: modular inverse check failed "
                            "at p=101: x=4, inverse 51\n")


def test_avalues_tracemalloc_peak_from_a_warm_cache(tmp_path):
    import tracemalloc

    p = 1000003
    cache.save_trace_table(tmp_path / f"trace_p{p}.bin", build_trace_table(make_context(p)))
    argv = ["avalues", "--p", str(p), "--cache-dir", str(tmp_path),
            "--out", str(tmp_path / "a.csv")]
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3 bytes per p hold the loaded table and 2 its cells, then 2 the cells
    # and 2 their placement, and block scratch: 5.8 in all; with int32
    # traces, and the placement gathering them, it was 9.2; with int32
    # numerators and a reached-x mask 14.5, with int64 traces and power table
    # 23.9, with an inverse table 57.5
    assert peak <= 7 * p


@pytest.mark.parametrize("command", ["traces", "avalues"])
def test_int32_width_writes_the_same_bytes(tmp_path, monkeypatch, command):
    """The narrow width lowered below p: int32 traces in memory and in the
    cache file, 5 bytes a trace, and the same text as int16, on the run that
    writes the cache and on the run that reads it."""
    from k3batman import clausen

    p = 1009
    texts = {}
    for width, top in (("int16", clausen._UINT16_TOP), ("int32", 2 * math.isqrt(4 * p))):
        monkeypatch.setattr(clausen, "_UINT16_TOP", top)
        cache_dir = tmp_path / width
        for run, fmt in itertools.product(("build", "read"), ("csv", "json")):
            out = tmp_path / f"{width}-{run}.{fmt}"
            argv = [command, "--p", str(p), "--format", fmt, "--out", str(out),
                    "--cache-dir", str(cache_dir)]
            assert dispatch(argv) == 0
            texts[width, run, fmt] = out.read_bytes()
        size = (cache_dir / f"trace_p{p}.bin").stat().st_size
        assert size == 17 + (3 if width == "int16" else 5) * (p - 2) + 4
        assert cache.load_trace_table(cache_dir / f"trace_p{p}.bin").traces.dtype == width
    assert len(set(texts.values())) == 2  # one text per format
    for key, text in texts.items():
        assert text == texts["int16", "build", key[2]], key


def test_avalues_int32_cells_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    """Past the uint16 limit the cells are int32: the same text, and a
    leftover sentinel still names the x that no power reaches."""
    from k3batman import clausen, field

    p = 1009
    texts = {}
    for top in (clausen._UINT16_TOP, 2 * math.isqrt(4 * p)):  # the largest cell no longer fits
        monkeypatch.setattr(clausen, "_UINT16_TOP", top)
        for fmt in ("csv", "json"):
            out = tmp_path / f"a{top}.{fmt}"
            assert dispatch(["avalues", "--p", str(p), "--format", fmt, "--out", str(out)]) == 0
            texts[top, fmt] = out.read_bytes()
    assert clausen.lambda_cells(build_trace_table(make_context(p))).dtype == np.int32
    for fmt in ("csv", "json"):
        assert texts[clausen._UINT16_TOP, fmt] == texts[2 * math.isqrt(4 * p), fmt]

    powers = field.powers

    def off_by_one(*args):
        result = powers(*args)
        result[result == 42] += 1
        return result

    monkeypatch.setattr(field, "powers", off_by_one)
    assert dispatch(["avalues", "--p", "101"]) == 3
    assert capsys.readouterr().err == ("error: internal check failed: modular inverse check "
                                       "failed at p=101: x=42 is no power of g=2\n")


def test_avalues_refuses_p_beyond_int64_inverses(capsys):
    # 3037000507 is the least prime with p^2 >= 2^63
    assert dispatch(["avalues", "--p", "3037000507"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: p=3037000507 is too large: inverses in int64 need p^2 < 2^63\n"
    )


@pytest.mark.parametrize("p", [5, 101, 1009])
def test_avalues_rows_match_a_value(tmp_path, p):
    ctx = make_context(p)
    csv_out, json_out = tmp_path / "a.csv", tmp_path / "a.json"
    assert dispatch(["avalues", "--p", str(p), "--out", str(csv_out)]) == 0
    assert dispatch(["avalues", "--p", str(p), "--out", str(json_out), "--format", "json"]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "mu,num,den"
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    assert [mu for mu, _, _ in rows] == list(range(1, p - 1))
    for mu, num, den in rows:
        assert den == p
        assert Fraction(num, den) == a_value(ctx, mu).value
    assert json.loads(json_out.read_text()) == [
        {"mu": mu, "num": num, "den": den} for mu, num, den in rows
    ]


_EDGE_VALUES = [0, 1, -1, 9, -9, 10, -10, 99, -99, 100, -100, 123456789, -1000003]

# Each side of a block boundary, and of 2^16 rows: the sizes where a
# power-of-two block would end, which leave a partial last block here.
_BLOCK_EDGES = [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1]


def _edge_columns(constant_last):
    """The entry columns of the test tables: the edge values, then negative
    values only, or one int on every entry."""
    values = np.array(_EDGE_VALUES, dtype=np.int64)
    return [values, np.full_like(values, 7) if constant_last else -np.abs(values) - 1]


def _edge_index(start, stop):
    """Row i of a test table shows entry i mod len(_EDGE_VALUES)."""
    return np.arange(start, stop) % len(_EDGE_VALUES)


def _table_text(fmt, header, rows, cell=str) -> bytes:
    """``rows`` as json.dumps writes the list of their dicts, or as CSV lines
    of ``cell`` of each value under ``header``."""
    keys = header.split(",")
    if fmt == "json":
        return (json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n").encode()
    return "".join([header + "\n"] + [",".join(map(cell, row)) + "\n" for row in rows]).encode()


def _emit_rows_text(fmt, rows, constant_last) -> bytes:
    """The test table of ``rows`` rows: each row's number, then its entry."""
    entries = list(zip(*(column.tolist() for column in _edge_columns(constant_last))))
    numbered = [(i + 1, *entries[j]) for i, j in enumerate(_edge_index(0, rows).tolist())]
    return _table_text(fmt, "x,y,z", numbered)


# One text per format and last-column kind, at the most rows any case reads.
@functools.cache
def _emit_rows_lines(fmt, constant_last) -> tuple[bytes, np.ndarray]:
    """_emit_rows_text at max(_BLOCK_EDGES) rows, and the offset of each newline."""
    text = _emit_rows_text(fmt, max(_BLOCK_EDGES), constant_last)
    return text, np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))


def _emit_rows_oracle(fmt, rows, constant_last) -> bytes:
    """_emit_rows_text(fmt, rows, constant_last), cut from the longest one at a
    row boundary: the rows of a shorter table are a prefix. After the
    header, a CSV row is one line; after the "[", a JSON row is five ("  {",
    one line per key, "  },") and the last one has no comma."""
    text, newlines = _emit_rows_lines(fmt, constant_last)
    if fmt == "csv":
        return text[: newlines[rows] + 1]
    return text[: newlines[5 * rows]].removesuffix(b",") + b"\n]\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("constant_last", [False, True], ids=["last-column", "last-int"])
def test_emit_rows_oracle_cuts_at_row_boundaries(fmt, constant_last):
    for rows in [0, 1, 2, 14] if fmt == "csv" else [1, 2, 14]:
        assert _emit_rows_oracle(fmt, rows, constant_last) == _emit_rows_text(fmt, rows,
                                                                              constant_last)
    text, _ = _emit_rows_lines(fmt, constant_last)
    assert _emit_rows_oracle(fmt, max(_BLOCK_EDGES), constant_last) == text


def _emit_edge_table(out, fmt, rows, constant_last) -> None:
    from k3batman import cli

    cli._emit_numbered_table(out, fmt, "x,y,z", rows, _edge_columns(constant_last), _edge_index)


def _assert_int_table_matches_emit_rows(tmp_path, capsys, fmt, rows, to_file, constant_last):
    if to_file:
        _emit_edge_table(str(tmp_path / "t.out"), fmt, rows, constant_last)
        text = (tmp_path / "t.out").read_bytes()
    else:
        _emit_edge_table(None, fmt, rows, constant_last)
        text = capsys.readouterr().out.encode()
    _assert_same_text(text, _emit_rows_oracle(fmt, rows, constant_last))
    return text


def _assert_same_text(text: bytes, expected: bytes) -> None:
    """Bytes first; the first differing line only on a mismatch, not a diff
    of two megabyte strings."""
    if text != expected:
        pairs = enumerate(itertools.zip_longest(text.split(b"\n"), expected.split(b"\n")))
        first, (line, expected_line) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        pytest.fail(f"line {first}: {line!r} != {expected_line!r}")


@pytest.mark.parametrize("constant_last", [False, True], ids=["last-column", "last-int"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("rows", [0, 1, *_BLOCK_EDGES])
def test_int_table_csv_matches_emit_rows(tmp_path, capsys, rows, to_file, constant_last):
    text = _assert_int_table_matches_emit_rows(tmp_path, capsys, "csv", rows, to_file,
                                               constant_last)
    assert text.count(b"\n") == rows + 1


# No empty case: the CLI never writes an empty table, since p >= 5 gives p - 2 >= 3 rows.
@pytest.mark.parametrize("constant_last", [False, True], ids=["last-column", "last-int"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("rows", [1, *_BLOCK_EDGES])
def test_int_table_json_matches_emit_rows(tmp_path, capsys, rows, to_file, constant_last):
    text = _assert_int_table_matches_emit_rows(tmp_path, capsys, "json", rows, to_file,
                                               constant_last)
    assert len(json.loads(text)) == rows


def _block_text(first, columns, prefixes, tail) -> str:
    """_numbered_block of one row per entry of ``columns``, numbered from
    ``first``, as text: each row opens with its number, and ``prefixes``
    are the literal texts after it."""
    from k3batman import cli

    rows = len(columns[0])
    texts = cli._entry_texts(len(str(first + rows - 1)), columns, ["", *prefixes], tail)
    return cli._numbered_block(first, first + rows, texts, np.arange(rows), 0).decode()


@pytest.mark.parametrize("top", [1, 999_999_999, 10**9, (1 << 32) - 1, 1 << 32, 1 << 62])
def test_csv_block_digits_at_the_narrow_and_wide_widths(top):
    """Row numbers on both sides of ``top``: uint32 digits up to 2^32 - 1,
    uint64 from 2^32, and a new digit from 10^9. Entries of that size: the
    text is str's."""
    values = np.array([0, 1, -1, top, -top, top - 1, 1 - top, 7], dtype=np.int64)
    columns = [values, np.abs(values), -np.abs(values)]
    first = max(1, top - 3)
    text = _block_text(first, columns, [",", ",", ";"], "|\n")
    rows = zip(*(column.tolist() for column in columns))
    assert text == "".join(f"{first + i},{a},{b};{c}|\n" for i, (a, b, c) in enumerate(rows))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_csv_block_takes_any_signed_width(dtype):
    """Entry columns are written as they come, the least value of the type
    included."""
    info = np.iinfo(dtype)
    values = np.array([info.min, info.max, -1, 0, 1, info.min + 1, 9, -10], dtype=dtype)
    text = _block_text(1, [values, values[::-1], np.zeros_like(values)], [","] * 3, "\n")
    rows = zip(values.tolist(), values[::-1].tolist())
    assert text == "".join(f"{i},{a},{b},0\n" for i, (a, b) in enumerate(rows, 1))


def test_numbered_block_crosses_a_power_of_ten_inside_the_block():
    """Rows 99990 to 100010 in one block: a run of five-digit numbers, then
    one of six."""
    first, stop = 99990, 100011
    values = np.resize(np.array(_EDGE_VALUES, dtype=np.int64), stop - first)
    text = _block_text(first, [values], [","], "\n")
    assert text == "".join(f"{first + i},{v}\n" for i, v in enumerate(values.tolist()))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_numbered_table_crosses_a_power_of_ten_at_a_block_boundary(monkeypatch, capsys, fmt):
    """Blocks of nine rows: rows 10 and 100 each open a block."""
    from k3batman import cli

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 9)
    _emit_edge_table(None, fmt, 110, constant_last=False)
    _assert_same_text(capsys.readouterr().out.encode(), _emit_rows_oracle(fmt, 110, False))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_int_table_counts_its_first_column(monkeypatch, capsys, fmt):
    """Blocks of five rows, so the count runs on across a block boundary."""
    from k3batman import cli

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)
    rows = 2 * cli._BLOCK_ROWS + 1
    second = np.resize(np.array(_EDGE_VALUES, dtype=np.int64), rows)
    expected = _table_text(fmt, "x,y,z", [(i + 1, v, 7) for i, v in enumerate(second.tolist())])
    _emit_edge_table(None, fmt, rows, constant_last=True)
    _assert_same_text(capsys.readouterr().out.encode(), expected)


def _hasse_edge_table():
    """A valid trace table at p = 7 with a = +-isqrt(28) = +-5 under both
    signs: its entries are the first and last two of the traces writer,
    and the largest A-value cell, 11, is phi = -1 at |a| = 5."""
    traces = np.array([5, 5, -5, -5, 0], dtype=np.int32)
    return TraceTable(7, traces, np.array([1, -1, 1, -1, -1], dtype=np.int8))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_traces_rows_at_the_hasse_bound_under_both_signs(monkeypatch, capsys, fmt):
    from k3batman import cli

    table = _hasse_edge_table()
    monkeypatch.setattr(cli, "_get_trace_table", lambda p, cache_dir: table)
    assert dispatch(["traces", "--p", "7", "--format", fmt]) == 0
    rows = list(entries(table))
    assert rows == [(1, 5, 1), (2, 5, -1), (3, -5, 1), (4, -5, -1), (5, 0, -1)]
    _assert_same_text(capsys.readouterr().out.encode(), _table_text(fmt, "lambda,a,phi", rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_avalues_cell_at_the_largest_index(monkeypatch, capsys, fmt):
    from k3batman import cli, clausen

    table = _hasse_edge_table()
    assert clausen.lambda_cells(table).max() == 2 * math.isqrt(4 * 7) + 1
    monkeypatch.setattr(cli, "_get_trace_table", lambda p, cache_dir: table)
    assert dispatch(["avalues", "--p", "7", "--format", fmt]) == 0
    rows = []
    for mu in range(1, 6):  # lambda = -(mu+1)^(-1): p A = phi(-lambda) (a_lambda^2 - p)
        lam = -pow(mu + 1, -1, 7) % 7
        a, phi = int(table.traces[lam - 1]), int(table.signs[lam - 1])
        rows.append((mu, phi * (a * a - 7), 7))
    assert [num for _, num, _ in rows] == [18, -18, 7, -18, 18]  # cell 11 at mu = 2 and 4
    _assert_same_text(capsys.readouterr().out.encode(), _table_text(fmt, "mu,num,den", rows))


@functools.cache
def _report_rows() -> list:
    """Seven batman rows at p = 101, every other one marked failing, so both
    cells of pass are written."""
    from dataclasses import replace

    from k3batman import stats

    summary = build_trace_table(make_context(101)).multiplicities
    rows = stats.discrepancy_report(summary, stats.uniform_grid(-3, 3, 7), "batman").rows
    return [replace(row, passed=i % 2 == 0) for i, row in enumerate(rows)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("rows", range(1, 8))
def test_emit_report_matches_json_dumps_and_csv_across_blocks(monkeypatch, tmp_path, capsys,
                                                               rows, to_file, fmt):
    """Blocks of three rows: one block, a full one, and a partial last one."""
    from k3batman import cli, stats

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    report = stats.DiscrepancyReport(101, "batman", _report_rows()[:rows], 0.0, False)
    out = tmp_path / "report.out" if to_file else None
    cli.emit_report(out, fmt, report)
    text = out.read_bytes() if to_file else capsys.readouterr().out.encode()
    cells = [(float(r.lo), float(r.hi), float(r.empirical), r.target, r.gap, r.bound, r.passed)
             for r in report.rows]
    expected = _table_text(fmt, cli._REPORT_HEADER, cells,
                           lambda v: ("true" if v else "false") if isinstance(v, bool) else repr(v))
    _assert_same_text(text, expected)


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("command", ["traces", "avalues"])
@pytest.mark.parametrize("p", [5, 101, 1009])
def test_int_table_json_bytes_match_json_dumps(tmp_path, capsys, p, command, to_file):
    argv = [command, "--p", str(p)]
    assert dispatch(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = lines[0].split(",")
    rows = [dict(zip(keys, map(int, line.split(",")))) for line in lines[1:]]
    out = tmp_path / "t.json"
    assert dispatch(argv + ["--format", "json"] + (["--out", str(out)] if to_file else [])) == 0
    text = out.read_text() if to_file else capsys.readouterr().out
    assert text == json.dumps(rows, indent=2) + "\n"


def test_traces_json_matches_entries(tmp_path):
    table = build_trace_table(make_context(101))
    out = tmp_path / "t.json"
    assert dispatch(["traces", "--p", "101", "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text()) == [
        {"lambda": lam, "a": a, "phi": sign} for lam, a, sign in entries(table)
    ]


def _truncate(raw):
    return raw[:-9]


def _flip_payload_byte(raw):
    raw = bytearray(raw)
    raw[30] ^= 0xFF
    return bytes(raw)


def _hurwitz_kind(raw):
    raw = bytearray(raw)
    raw[8] = cache.KIND_HURWITZ
    return bytes(raw)


def _older_format(version, raw, dtype, *parts):
    """A CRC-valid file of an older format version at p = 101: its header,
    the traces read from the v5 file ``raw`` as ``dtype``, then ``parts``."""
    traces = np.frombuffer(raw, "<i2", count=99, offset=17)  # p = 101: 99 traces
    body = version + raw[8:17] + traces.astype(dtype).tobytes() + b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _signs(raw):
    """The signs of the v5 file ``raw`` at p = 101."""
    return np.frombuffer(raw, "i1", count=99, offset=17 + 2 * 99)


def _signs_and_summary(raw):
    """What formats v2 and v3 stored after the traces: the signs of the v5
    file ``raw`` at p = 101, then the summary counts as <i8."""
    traces = np.frombuffer(raw, "<i2", count=99, offset=17)
    signs = _signs(raw)
    return signs.tobytes() + _count_summary(101, traces, signs).astype("<i8").tobytes()


def _v1_format(raw):
    """The file as format v1 wrote it: the header and int64 traces, no signs or summary."""
    return _older_format(b"BATMANv1", raw, "<i8")


def _v2_format(raw):
    """The file as format v2 wrote it: int64 traces, then the signs and summary."""
    return _older_format(b"BATMANv2", raw, "<i8", _signs_and_summary(raw))


def _v3_format(raw):
    """The file as format v3 wrote it: int32 traces, then the signs and summary."""
    return _older_format(b"BATMANv3", raw, "<i4", _signs_and_summary(raw))


def _v4_format(raw):
    """The file as format v4 wrote it: int32 traces at every p, then the signs."""
    return _older_format(b"BATMANv4", raw, "<i4", _signs(raw).tobytes())


@pytest.mark.parametrize("corrupt",
                         [_truncate, _flip_payload_byte, _hurwitz_kind, _v1_format, _v2_format,
                          _v3_format, _v4_format],
                         ids=["truncated", "checksum", "kind", "v1", "v2", "v3", "v4"])
def test_unreadable_cache_is_rebuilt(tmp_path, capsys, corrupt):
    """An unreadable cache file is a miss: same stdout and exit code as a run
    with no cache, one warning line, and a good file saved over the bad one."""
    p = 101
    assert dispatch(["traces", "--p", str(p)]) == 0
    expected = capsys.readouterr().out
    path = tmp_path / f"trace_p{p}.bin"
    cache.save_trace_table(path, build_trace_table(make_context(p)))
    good = path.read_bytes()
    path.write_bytes(corrupt(good))
    assert dispatch(["traces", "--p", str(p), "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    if corrupt in (_v1_format, _v2_format, _v3_format, _v4_format):
        assert "unsupported cache version" in lines[0]
    assert path.read_bytes() == good  # rewritten in the current format
    assert sorted(f.name for f in tmp_path.iterdir()) == [path.name]


def test_v4_format_helper_has_the_v4_layout(tmp_path):
    """The v4 case above is a whole v4 file: int32 traces, the signs, and a
    CRC over them, 5 bytes a trace where v5 has 3 at this p."""
    p = 101
    path = tmp_path / "t.bin"
    table = build_trace_table(make_context(p))
    cache.save_trace_table(path, table)
    old = _v4_format(path.read_bytes())
    assert len(old) == 17 + 5 * (p - 2) + 4 and len(path.read_bytes()) == 17 + 3 * (p - 2) + 4
    assert old[:8] == b"BATMANv4" and old[8:17] == path.read_bytes()[8:17]
    assert struct.unpack("<I", old[-4:])[0] == zlib.crc32(old[:-4])
    assert np.array_equal(np.frombuffer(old, "<i4", count=p - 2, offset=17), table.traces)
    assert np.array_equal(np.frombuffer(old, "i1", count=p - 2, offset=17 + 4 * (p - 2)),
                          table.signs)


def test_v2_format_helper_has_the_v2_layout(tmp_path):
    """The v2 case above is a whole v2 file: 8 bytes a trace, then the signs
    and the summary, and a CRC over them."""
    p = 101
    path = tmp_path / "t.bin"
    cache.save_trace_table(path, build_trace_table(make_context(p)))
    old = _v2_format(path.read_bytes())
    assert len(old) == 17 + 9 * (p - 2) + 16 * (math.isqrt(4 * p) + 1) + 4
    assert struct.unpack("<I", old[-4:])[0] == zlib.crc32(old[:-4])
    traces = np.frombuffer(old, "<i8", count=p - 2, offset=17)
    assert np.array_equal(traces, cache.load_trace_table(path).traces)


def test_v3_format_helper_has_the_v3_layout(tmp_path):
    """The v3 case above is a whole v3 file: int32 traces, the signs, the
    summary counts, and a CRC over them."""
    p = 101
    path = tmp_path / "t.bin"
    table = build_trace_table(make_context(p))
    cache.save_trace_table(path, table)
    old = _v3_format(path.read_bytes())
    rows = math.isqrt(4 * p) + 1
    assert len(old) == 17 + 5 * (p - 2) + 16 * rows + 4
    assert struct.unpack("<I", old[-4:])[0] == zlib.crc32(old[:-4])
    traces = np.frombuffer(old, "<i4", count=p - 2, offset=17)
    assert np.array_equal(traces, table.traces)
    assert old[17 + 4 * (p - 2) : 17 + 5 * (p - 2)] == path.read_bytes()[17 + 2 * (p - 2) : -4]
    counts = np.frombuffer(old, "<i8", count=2 * rows, offset=17 + 5 * (p - 2))
    assert np.array_equal(counts.reshape(rows, 2), table.multiplicities.counts)


def test_memory_guard_refuses_before_building(monkeypatch, capsys):
    from k3batman import cli

    def never(*args):
        raise AssertionError("allocated past the memory guard")

    monkeypatch.setattr(cli, "_available_memory", lambda: 10 << 20)
    monkeypatch.setattr(cli, "make_context", never)
    monkeypatch.setattr(cli, "build_trace_table", never)
    assert dispatch(["verify", "moments", "--p", "1000003"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: p=1000003 needs about 85 MB to build the trace table, "
                            "but only 10 MB is available\n")


def test_memory_guard_passes_unknown_memory_and_cache_hits(tmp_path, monkeypatch, capsys):
    from k3batman import cli

    argv = ["traces", "--p", "101", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(cli, "_available_memory", lambda: None)
    assert dispatch(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli, "_available_memory", lambda: 0)
    assert dispatch(argv) == 0  # read from the cache: nothing to build
    assert capsys.readouterr().out == expected
    assert dispatch(["traces", "--p", "103"]) == 2


def test_memory_guard_refuses_avalues_before_its_inverses(monkeypatch, capsys):
    from k3batman import cli

    def never(*args):
        raise AssertionError("allocated past the memory guard")

    monkeypatch.setattr(cli, "_available_memory", lambda: 1 << 20)
    monkeypatch.setattr(cli, "lambda_cells", never)
    monkeypatch.setattr(cli, "make_context", never)
    assert dispatch(["avalues", "--p", "1000003"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: p=1000003 needs about 85 MB to build the trace table, "
                            "but only 1 MB is available\n")


def test_memory_guard_refuses_avalues_on_a_cache_hit(tmp_path, monkeypatch, capsys):
    from k3batman import cli

    def never(*args):
        raise AssertionError("allocated past the memory guard")

    p = 1009
    cache.save_trace_table(tmp_path / f"trace_p{p}.bin", build_trace_table(make_context(p)))
    monkeypatch.setattr(cli, "_available_memory", lambda: 1 << 10)
    monkeypatch.setattr(cli, "lambda_cells", never)
    monkeypatch.setattr(cli, "build_trace_table", never)  # the table is read from the cache
    assert dispatch(["avalues", "--p", str(p), "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # 2 bytes per p and one block of text; below 1 MB an amount is given in
    # bytes, not as 0 MB
    assert cli._AVALUE_BYTES_PER_P * p + cli._TABLE_BLOCK_BYTES == 2018 + (10 << 20)
    assert captured.err == (f"error: p={p} needs about 10 MB to place the A-values, "
                            "but only 1024 bytes is available\n")


def test_memory_guard_refuses_hist_bins_before_binning(monkeypatch, capsys):
    from k3batman import cli, svg

    def never(*args):
        raise AssertionError("binned past the memory guard")

    monkeypatch.setattr(cli, "_available_memory", lambda: 100 << 20)
    monkeypatch.setattr(svg, "histogram_counts", never)
    monkeypatch.setattr(cli, "build_trace_table", never)
    assert dispatch(["hist", "--p", "101", "--bins", "20000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bins=20000000 needs about 1168 MB to draw the histogram, "
                            "but only 100 MB is available\n")
    monkeypatch.setattr(cli, "_available_memory", lambda: 23 << 20)
    assert dispatch(["hist", "--p", "101", "--bins", "1"]) == 2  # one bar block is charged
    assert capsys.readouterr().err == ("error: bins=1 needs about 24 MB to draw the histogram, "
                                       "but only 23 MB is available\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_available_memory", lambda: 100 << 20)
    assert dispatch(["hist", "--p", "101", "--bins", "61"]) == 0  # 24 MB fits
    assert capsys.readouterr().out.startswith("<svg")


def test_memory_guard_refuses_distribution_grid_before_building(monkeypatch, capsys):
    from k3batman import cli, stats

    def never(*args):
        raise AssertionError("built past the memory guard")

    monkeypatch.setattr(cli, "_available_memory", lambda: 100 << 20)
    monkeypatch.setattr(cli, "_grids_for", never)
    monkeypatch.setattr(stats, "discrepancy_report", never)
    monkeypatch.setattr(cli, "build_trace_table", never)
    assert dispatch(["verify", "distribution", "--p", "101", "--grid", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: grid=1000000 needs about 810 MB to build the report, "
                            "but only 100 MB is available\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_available_memory", lambda: 100 << 20)
    assert dispatch(["verify", "distribution", "--p", "101", "--grid", "40"]) == 0  # 34 KB fits
    assert capsys.readouterr().out.startswith("clausen_N: 40 rows")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_memory_guard_charges_a_report_block_for_distribution_out(tmp_path, monkeypatch, capsys,
                                                                  fmt):
    """A --out is charged one block of report rows on top of the grid, so a
    grid that fits without it is refused with it, before anything is built."""
    from k3batman import cli

    def never(*args):
        raise AssertionError("built past the memory guard")

    argv = ["verify", "distribution", "--p", "101", "--grid", "40"]
    monkeypatch.setattr(cli, "_available_memory", lambda: 1 << 20)
    assert dispatch(argv) == 0  # 34 KB fits
    capsys.readouterr()
    monkeypatch.setattr(cli, "_grids_for", never)
    monkeypatch.setattr(cli, "build_trace_table", never)
    out = tmp_path / "r"
    assert dispatch(argv + ["--out", str(out), "--format", fmt]) == 2
    need = cli._GRID_BYTES_PER_INTERVAL * 40 + cli._REPORT_BLOCK_BYTES
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == (f"error: grid=40 needs about {need >> 20} MB to build the report, "
                            "but only 1 MB is available\n")


def test_memory_guard_refuses_brackets_before_counting(monkeypatch, capsys):
    from k3batman import cli

    def never(*args):
        raise AssertionError("counted past the memory guard")

    p = 100000000000000003  # isqrt(p) = 316227766: gigabytes of class-number work arrays
    monkeypatch.setattr(cli, "_available_memory", lambda: 100 << 20)
    monkeypatch.setattr(cli.hurwitz, "identity_table", never)
    assert dispatch(["verify", "brackets", "--p", str(p), "--mmax", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: p={p} needs about 753945 MB to count the class numbers, "
                            "but only 100 MB is available\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_available_memory", lambda: 100 << 20)
    assert dispatch(["verify", "brackets", "--p", "1000003", "--mmax", "1"]) == 0  # 2.4 MB fits
    assert capsys.readouterr().out.endswith(" ok\n")


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize("argv, reason", [
    (["traces", "--p", "101", "--out", "{tmp}/missing/t.csv"], "No such file or directory"),
    (["traces", "--p", "101", "--out", "{tmp}"], "Is a directory"),
    (["traces", "--p", "101", "--cache-dir", "{tmp}/file"], "File exists"),
    pytest.param(["hist", "--p", "101", "--bins", "5", "--out", "/dev/full"],
                 "No space left on device", marks=_NO_DEV_FULL),
    # no summary line is printed before the first report is written
    (["verify", "distribution", "--p", "101", "--out", "{tmp}/missing/r"], "No such file or directory"),
], ids=["missing-dir", "out-is-dir", "cache-dir-is-file", "device-full", "report-missing-dir"])
def test_failed_write_is_exit_2_with_one_line(tmp_path, capsys, argv, reason):
    """Exit 1 means a verification failed; a write that fails is exit 2."""
    (tmp_path / "file").write_text("")
    assert dispatch([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert reason in captured.err


def test_cache_dir_that_is_a_file_fails_before_the_build(tmp_path, capsys, monkeypatch):
    from k3batman import cli

    def no_build(ctx):
        raise AssertionError("the trace table was built")

    monkeypatch.setattr(cli, "build_trace_table", no_build)
    (tmp_path / "file").write_text("")
    assert dispatch(["traces", "--p", "1000003", "--cache-dir", str(tmp_path / "file")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "File exists" in captured.err


@pytest.mark.parametrize("argv, error", [
    (["traces", "--p", "5"], "error: [Errno 32] Broken pipe\n"),  # all of it buffered
    (["traces", "--p", "10007"], "error: [Errno 32] Broken pipe\n"),  # more than a buffer
    # the --out write fails too, before any line is printed
    (["verify", "distribution", "--p", "101", "--out", "{tmp}/missing/r"],
     "error: [Errno 2] No such file or directory"),
], ids=["small", "large", "other-error"])
def test_reader_gone_is_exit_2_with_one_line(tmp_path, argv, error):
    """``traces | head -1``: the pipe breaks, and neither a traceback nor the
    interpreter's message about its last flush follows the one error line."""
    env = _subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        result = subprocess.run(
            [sys.executable, "-m", "k3batman.cli", *(arg.format(tmp=tmp_path) for arg in argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    err = result.stderr.decode()
    assert result.returncode == 2, err
    assert err.count("\n") == 1 and err.startswith(error), err


def _subprocess_env() -> dict:
    """The environment of a child Python that imports this k3batman, with
    stdout to a pipe block-buffered, as by default."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


_WRITE_BETWEEN_PRINTS = ("from k3batman import cli\n"
                         "print('before')\n"
                         "cli._write(None, [b'one\\n', memoryview(b'two\\n')])\n"
                         "print('after')\n")


def test_write_to_stdout_keeps_the_order_of_text_printed_around_it():
    """A stdout with a binary buffer takes the bytes after the text printed
    before them; a text-only stream takes them decoded."""
    expected = b"before\none\ntwo\nafter\n"
    result = subprocess.run([sys.executable, "-c", _WRITE_BETWEEN_PRINTS], capture_output=True,
                            env=_subprocess_env(), timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == expected
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        exec(_WRITE_BETWEEN_PRINTS, {})
    assert stream.getvalue().encode() == expected


@pytest.mark.parametrize("argv", [
    ["avalues", "--p", "1009", "--format", "json"],
    ["traces", "--p", "1009"],
    ["hist", "--p", "1009", "--bins", "7", "--overlay"],
], ids=["avalues-json", "traces-csv", "hist"])
def test_stdout_bytes_are_the_same_through_a_pipe_a_stringio_and_out(tmp_path, argv):
    piped = subprocess.run([sys.executable, "-m", "k3batman.cli", *argv], capture_output=True,
                           env=_subprocess_env(), timeout=60)
    assert piped.returncode == 0, piped.stderr.decode()
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        assert dispatch(argv) == 0
    out = tmp_path / "out"
    assert dispatch([*argv, "--out", str(out)]) == 0
    assert piped.stdout == stream.getvalue().encode() == out.read_bytes()


def test_available_memory_reads_the_machine():
    from k3batman import cli

    free = cli._available_memory()
    assert free is None or free > 0
