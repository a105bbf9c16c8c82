"""Pytest setup shared by the test suite.

Property tests draw their examples from a fixed derandomized sequence and
keep no example database, so every machine and every run tries the same
examples and no result depends on a local ``.hypothesis/`` directory.
Example counts are left to each test's own ``@settings``.

Memory guards measure with the ``peak_bytes`` fixture; ``engine_calls``
counts the calls the benchmark counts.
"""

import tracemalloc

import pytest
from hypothesis import settings

import flowal.engine

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


@pytest.fixture
def engine_calls(monkeypatch):
    """Calls made through ``flowal.engine``'s fit and oracle names, by name.

    The benchmark counts its labels and fits through these names, so a loop
    that reached them by another route would change its figures.
    """
    calls = dict.fromkeys(("fit_forest", "fit_committee", "oracle_label"), 0)
    for name in calls:
        def counting(*args, _name=name, _call=getattr(flowal.engine, name),
                     **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(flowal.engine, name, counting)
    return calls
