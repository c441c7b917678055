"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3batman

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(k3batman.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_example_prime(tmp_path):
    result = _run("run_example_prime.py", "--p", "1009", "--grid", "10", "--bins", "11",
                  "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("exact match") == 6 and "MISMATCH" not in result.stdout
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        [f"report_1009_{which}.csv" for which in k3batman.stats.STATISTICS] + ["hist_1009.svg"]
    )


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
