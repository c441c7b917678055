import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from k3batman import (
    TraceTable,
    a_value,
    build_hurwitz_table,
    build_trace_table,
    clausen_trace,
    make_context,
    moment,
)
from k3batman import cache
from k3batman.cli import _BLOCK_ROWS, dispatch

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


def test_verify_moments_failure_exit(monkeypatch, capsys):
    from k3batman import cli

    monkeypatch.setattr(cli.hurwitz, "moment_rhs", lambda *a, **k: -999)
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


def test_ears_output(capsys):
    assert dispatch(["ears", "--T", "10"]) == 0
    output = capsys.readouterr().out
    assert "6.332273e-05" in output
    assert "5.866411e+19" in output
    assert "3.45e14" in output  # the flagged reference mismatch


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


@pytest.mark.parametrize(
    "argv",
    [["verify", "moments", "--p", "5", "--nmax", "0"],
     ["verify", "brackets", "--p", "5", "--mmax", "0"],
     ["verify", "brackets", "--p", "5", "--mmax", "-3"]],
    ids=["nmax-0", "mmax-0", "mmax-negative"],
)
def test_empty_verification_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 1" in captured.err


@pytest.mark.parametrize("command", ["moments", "brackets"])
@pytest.mark.parametrize("p", [5, 101, 1009, 25013])
def test_identity_table_output_matches_dense_table(monkeypatch, capsys, command, p):
    from k3batman import cli

    argv = ["verify", command, "--p", str(p)]
    assert dispatch(argv) == 0
    sparse_out = capsys.readouterr().out
    monkeypatch.setattr(cli.hurwitz, "identity_table", lambda q: build_hurwitz_table(4 * q))
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == sparse_out


def test_verify_brackets_computes_each_coefficient_once(monkeypatch, capsys):
    from k3batman import brackets

    calls = []
    pihol = brackets.pihol_coeff

    def counted(*args):
        calls.append(args[:3])
        return pihol(*args)

    monkeypatch.setattr(brackets, "pihol_coeff", counted)
    assert dispatch(["verify", "brackets", "--p", "101", "--mmax", "4"]) == 0
    assert sorted(calls) == sorted({(m, t, n) for m in range(1, 5) for t, n in ((1, 101), (4, 404))})


def test_cache_dir_holds_only_the_trace_table(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    for argv in (["verify", "moments", "--p", "101"], ["verify", "brackets", "--p", "101"]):
        assert dispatch(argv + ["--cache-dir", str(cache_dir)]) == 0
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
    assert out.read_text() == "lambda,a,phi\n" + "\n".join(rows) + "\n"


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
    import numpy as np

    from k3batman.clausen import TraceTable
    from k3batman.svg import histogram_counts

    broken = TraceTable(
        5, np.array([9, 0, 2], dtype=np.int64), np.array([1, -1, -1], dtype=np.int8)
    )
    with pytest.raises(ArithmeticError, match="Hasse"):
        histogram_counts(broken, 10)


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
    raw[7] = ord("0")  # BATMANv1 -> BATMANv0
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


def _cache_with_trace(tmp_path, p, index, value):
    """A CRC-valid cache directory whose table has one trace replaced."""
    table = build_trace_table(make_context(p))
    traces = table.traces.copy()
    traces[index] = value
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    cache.save_trace_table(cache_dir / f"trace_p{p}.bin", TraceTable(p, traces, table.signs))
    return str(cache_dir)


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


@pytest.mark.parametrize(
    "argv",
    [["verify", "moments"], ["hist", "--bins", "11"], ["verify", "distribution"],
     ["verify", "multiplicities"], ["avalues"], ["traces"]],
    ids=["verify-moments", "hist", "verify-distribution", "verify-multiplicities", "avalues",
         "traces"],
)
def test_cached_trace_beyond_hasse_is_internal_error(tmp_path, capsys, argv):
    cache_dir = _cache_with_trace(tmp_path, 101, 17, 22)  # 2 sqrt(101) < 21
    assert dispatch(argv + ["--p", "101", "--cache-dir", cache_dir]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: internal check failed: ")
    assert "Hasse" in lines[0]


def test_avalues_wrong_inverse_is_internal_error(monkeypatch, capsys):
    from k3batman import field

    power_table = field.power_table

    def off_by_one(*args):
        result = power_table(*args)
        result[result == 42] += 1  # no power reaches 42 now, so it gets no inverse
        return result

    monkeypatch.setattr(field, "power_table", off_by_one)
    assert dispatch(["avalues", "--p", "101"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "error: internal check failed: modular inverse check failed at p=101: x=42"
    )


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


@pytest.mark.parametrize("constant_last", [False, True], ids=["last-column", "last-int"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_int_table_csv_matches_emit_rows(tmp_path, capsys, rows, to_file, constant_last):
    from k3batman import cli

    mixed = np.resize(np.array(_EDGE_VALUES, dtype=np.int64), rows)
    non_negative = np.abs(mixed)
    last = 7 if constant_last else -non_negative - 1  # negative only
    last_cells = [7] * rows if constant_last else last.tolist()
    expected = [list(row) for row in zip(mixed.tolist(), non_negative.tolist(), last_cells)]
    texts = []
    for emit in (
        lambda out: cli._emit_rows(out, "csv", "x,y,z", expected),
        lambda out: cli._emit_int_table(out, "csv", "x,y,z", mixed, non_negative, last),
    ):
        if to_file:
            emit(str(tmp_path / "t.csv"))
            texts.append((tmp_path / "t.csv").read_bytes())
        else:
            emit(None)
            texts.append(capsys.readouterr().out.encode())
    assert texts[1] == texts[0]
    assert texts[1].count(b"\n") == rows + 1


def test_traces_json_matches_entries(tmp_path):
    table = build_trace_table(make_context(101))
    out = tmp_path / "t.json"
    assert dispatch(["traces", "--p", "101", "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text()) == [
        {"lambda": lam, "a": a, "phi": sign} for lam, a, sign in table.entries()
    ]
