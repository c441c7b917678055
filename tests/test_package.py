import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import k3batman
from k3batman import cache
from util import child_env


def test_every_export_resolves():
    # `from k3batman import *` fails on the first name in __all__ that is missing
    assert [name for name in k3batman.__all__ if not hasattr(k3batman, name)] == []


def test_readme_names_the_cache_magic():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"`{cache.MAGIC.decode()}`" in readme.read_text()


def test_ci_runs_the_tier1_command():
    # the workflow runs only on the CI host, so its test line is checked here as text
    root = Path(__file__).resolve().parents[1]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (root / "ROADMAP.md").read_text())
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    runs = [line.strip().removeprefix("- run: ") for line in workflow if "-m pytest" in line]
    # a --durations report of the slowest tests may ride along: it changes no result
    runs = [re.sub(r" --durations=\d+$", "", run) for run in runs]
    assert tier1 is not None and runs == [tier1.group(1)]


# Prints the variable as the package left it, then the CPU seconds that the
# threads other than the main one used in the 0.3 s after the import.
_IDLE_THREADS_CPU = """
import os, time
import k3batman
time.sleep(0.3)
ticks = 0
for task in os.listdir("/proc/self/task"):
    if int(task) != os.getpid():
        with open(f"/proc/self/task/{task}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
print(ticks / os.sysconf("SC_CLK_TCK"))
"""


def _run_without_thread_timeout(code: str, **preset) -> list[str]:
    """The lines a child Python that imports this k3batman prints, started
    with OPENBLAS_THREAD_TIMEOUT unset unless ``preset`` sets it."""
    env = child_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    env.update(preset)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_import_leaves_numpys_blas_threads_idle():
    # OpenBLAS starts nproc - 1 workers when numpy loads; unless told
    # otherwise, each spins about 0.07 s of CPU before it sleeps
    timeout, cpu = _run_without_thread_timeout(_IDLE_THREADS_CPU)
    assert float(cpu) < 0.02, cpu
    assert timeout == "4"


def test_import_keeps_a_preset_thread_timeout():
    code = "import os, k3batman; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert _run_without_thread_timeout(code, OPENBLAS_THREAD_TIMEOUT="30") == ["30"]
