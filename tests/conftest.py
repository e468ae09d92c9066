# The package goes first: its EVENTSTATE_NUM_THREADS bridge only reaches the
# BLAS thread pools if it runs before numpy is imported.
import eventstates  # noqa: F401
import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _seed_numpy_legacy():
    # A few oracles use the legacy global RNG; pin it per test.
    np.random.seed(12345)
