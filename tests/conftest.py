"""Pytest setup shared by the test suite.

Property tests draw their examples from a fixed derandomized sequence and
keep no example database, so every machine and every run tries the same
examples and no result depends on a local ``.hypothesis/`` directory.
Example counts are left to each test's own ``@settings``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
