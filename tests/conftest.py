import pytest

from kramers import build_series
from kramers import oracle


@pytest.fixture(scope="session")
def series_cache():
    """Memoised build_series: the heavy fixtures are shared across modules."""
    cache = {}

    def get(gamma, order):
        key = (gamma, order)
        if key not in cache:
            cache[key] = build_series(gamma, order)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def oracle_j():
    """The oracle's double integrals, computed once per session."""
    return oracle.j_constants()
