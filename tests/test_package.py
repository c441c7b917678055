from pathlib import Path

import k3batman
from k3batman import cache


def test_every_export_resolves():
    # `from k3batman import *` fails on the first name in __all__ that is missing
    assert [name for name in k3batman.__all__ if not hasattr(k3batman, name)] == []


def test_readme_names_the_cache_magic():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"`{cache.MAGIC.decode()}`" in readme.read_text()
