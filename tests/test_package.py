import k3batman


def test_every_export_resolves():
    # `from k3batman import *` fails on the first name in __all__ that is missing
    assert [name for name in k3batman.__all__ if not hasattr(k3batman, name)] == []
