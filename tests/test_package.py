import re
from pathlib import Path

import k3batman
from k3batman import cache


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
