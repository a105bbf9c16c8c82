"""Seed derivation used by every randomized component.

All randomness flows through ``make_rng`` so that sub-streams are pure
functions of (seed, index...) and never depend on call order or thread
schedule.
"""

import numpy as np

from .errors import InvalidParams, _check_int

_MASK = (1 << 64) - 1


def make_rng(*parts: int) -> np.random.Generator:
    """Generator seeded by a tuple of ints (negatives wrap); the one seed check."""
    for part in parts:
        _check_int(part, "seed", InvalidParams)
    return np.random.default_rng([int(p) & _MASK for p in parts])


def derive_seed(*parts: int) -> int:
    """Collapse a seed tuple into one 63-bit integer seed."""
    return int(make_rng(*parts).integers(0, 1 << 63))
