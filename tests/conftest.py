import time

import pytest

from slicesec import ChannelParams, default_schemes, default_t_grid, sweep


@pytest.fixture(scope="session")
def default_base():
    return ChannelParams(transmission=0.5, samples=200_000, seed=42)


@pytest.fixture(scope="session")
def full_sweep(default_base):
    """The full 18-scheme x 19-T default sweep, single worker, with its runtime."""
    start = time.perf_counter()
    table = sweep(default_t_grid(), default_schemes(), default_base, workers=1)
    elapsed = time.perf_counter() - start
    return table, elapsed
