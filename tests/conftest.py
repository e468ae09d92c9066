import numpy as np
import pytest


def pytest_configure(config):
    # A NaN or an overflow in package arithmetic, or a deprecated call, fails
    # the test that hit it; a test's own filterwarnings mark still takes
    # precedence.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    # Hypothesis imports libcst to report a failing example, and libcst's own
    # import warns; an error there would stop the session at the first failure.
    config.addinivalue_line("filterwarnings", "ignore::DeprecationWarning:libcst")


@pytest.fixture(autouse=True)
def _seed_numpy_legacy():
    # A few oracles use the legacy global RNG; pin it per test.
    np.random.seed(12345)
