"""Deterministic random-number management.

Everything in this reproduction must be bit-reproducible: the "measured"
numbers come from a simulator, not a wall clock, so any randomness (e.g.
calibration noise, partitioner tie-breaking) flows through seeded
:class:`numpy.random.Generator` instances created here.
"""

from __future__ import annotations

import numpy as np

#: Default seed used across the project when callers do not supply one.
DEFAULT_SEED = 20060613


def seeded_rng(seed: int | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` with a fixed default seed.

    Parameters
    ----------
    seed:
        Explicit seed.  ``None`` selects :data:`DEFAULT_SEED` (never an
        OS-entropy seed — determinism is a hard requirement here).
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)

