import numpy as np
import pytest


def pytest_configure(config):
    # A NaN or an overflow in package arithmetic, or a deprecated call, fails
    # the test that hit it; a test's own filterwarnings mark still takes
    # precedence.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")


@pytest.fixture(autouse=True)
def _seed_numpy_legacy():
    # A few oracles use the legacy global RNG; pin it per test.
    np.random.seed(12345)
