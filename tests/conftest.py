"""Pytest setup shared by the test suite.

Property tests draw their examples from a fixed derandomized sequence and
keep no example database, so every machine and every run tries the same
examples and no result depends on a local ``.hypothesis/`` directory.
Example counts are left to each test's own ``@settings``.

Memory guards measure with the ``peak_bytes`` fixture.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the peak traced allocation, in bytes, of ``fn()``."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
