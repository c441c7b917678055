import pytest

from k3batman import build_hurwitz_table, build_trace_table, make_context
from util import primes_up_to


@pytest.fixture(scope="session")
def hurwitz_4000():
    return build_hurwitz_table(4000)


@pytest.fixture(scope="session")
def trace_tables_1000():
    """TraceTable per prime 5 <= p <= 1000, built once for the whole run."""
    tables = {}
    for p in primes_up_to(1000):
        if p >= 5:
            tables[p] = build_trace_table(make_context(p))
    return tables


@pytest.fixture(scope="session")
def table_1009():
    return build_trace_table(make_context(1009))


@pytest.fixture(scope="session")
def table_10007():
    return build_trace_table(make_context(10007))


@pytest.fixture(scope="session")
def table_93283():
    return build_trace_table(make_context(93283))
