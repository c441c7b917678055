"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3batman
from k3batman import cli
from k3batman.stats import STATISTICS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(k3batman.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_example_prime(tmp_path):
    out_dir, cli_dir = tmp_path / "out", tmp_path / "cli"
    result = _run("run_example_prime.py", "--p", "1009", "--grid", "10", "--bins", "11",
                  "--out-dir", str(out_dir))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "all identities hold" in lines
    assert [line.split(":")[0] for line in lines if line.endswith(", all pass")] == list(STATISTICS)
    names = [f"report_1009.{which}.csv" for which in STATISTICS] + ["hist_1009.svg"]
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(names)
    cli_dir.mkdir()
    assert cli.dispatch(["verify", "distribution", "--p", "1009", "--grid", "10",
                         "--out", str(cli_dir / "report_1009")]) == 0
    assert cli.dispatch(["hist", "--p", "1009", "--bins", "11", "--overlay",
                         "--out", str(cli_dir / "hist_1009.svg")]) == 0
    for name in names:
        assert (out_dir / name).read_bytes() == (cli_dir / name).read_bytes(), name


@pytest.mark.skipif(cli._available_memory() is None, reason="available memory cannot be read")
def test_run_example_prime_refuses_a_prime_too_large_to_build(tmp_path):
    result = _run("run_example_prime.py", "--p", "1000000000000037", "--out-dir", str(tmp_path))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: p=1000000000000037 needs about")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(cli._available_memory() is None, reason="available memory cannot be read")
def test_run_example_prime_refused_leaves_no_out_dir(tmp_path):
    out_dir = tmp_path / "out" / "nested"
    result = _run("run_example_prime.py", "--p", "1000000000000037", "--out-dir", str(out_dir))
    assert result.returncode == 2, result.stderr
    assert list(tmp_path.iterdir()) == []


def test_sweep_constant_audit():
    result = _run("sweep_constant_audit.py", "--pmax", "2000")
    assert result.returncode == 0, result.stderr
    assert "all below the bound" in result.stdout and "FAIL" not in result.stdout


@pytest.mark.parametrize("script, args, reason", [
    ("sweep_constant_audit.py", ["--pmax", "4"], "--pmax must be >= 5, got 4"),
    ("run_example_prime.py", ["--grid", "0", "--out-dir", "{out}"],
     "argument --grid: must be >= 1, got 0"),
    ("run_example_prime.py", ["--bins", "0", "--out-dir", "{out}"],
     "argument --bins: must be >= 1, got 0"),
    ("run_example_prime.py", ["--nmax", "-1", "--out-dir", "{out}"],
     "argument --nmax: must be >= 1, got -1"),
    ("run_example_prime.py", ["--p", "100", "--out-dir", "{out}"], "p=100 is composite"),
    ("run_example_prime.py", ["--p", "7", "--out-dir", "{file}"], "File exists"),
], ids=["pmax", "grid", "bins", "nmax", "composite-p", "out-dir-is-file"])
def test_bad_argument_is_exit_2_with_one_error_line(tmp_path, script, args, reason):
    out_dir = tmp_path / "out"
    (tmp_path / "file").write_text("")
    result = _run(script, *(arg.format(out=out_dir, file=tmp_path / "file") for arg in args))
    assert result.returncode == 2, result.stderr
    assert result.stdout == "" and "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and reason in errors[0], result.stderr
    assert not out_dir.exists()
