"""Reproducible random streams.

All stochastic routines in this package take an explicit numpy Generator
and draw whole arrays from it.  :func:`stream` derives such generators from
a master seed with a counter-based bit generator (Philox), so any cell of a
larger experiment can be reproduced in isolation by re-deriving its stream
from the master seed and its key path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a master seed and an integer key path.

    The same (seed, key) pair always yields the same stream; distinct key
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
