import pytest

from focklab import unitary_haar as uh


@pytest.fixture
def fresh_pool():
    """Start and end a test without a cached Monte Carlo process pool."""
    uh._shutdown_pool()
    yield
    uh._shutdown_pool()
