"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

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
