"""Reproducible random streams.

All stochastic routines in this package take an explicit numpy Generator.
Streams are derived from a master seed with a counter-based bit generator
(Philox), so any cell of a larger experiment can be reproduced in isolation
by re-deriving its stream from the master seed and its key path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "RandomBuffer"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a master seed and an integer key path.

    The same (seed, key) pair always yields the same stream; distinct key
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


class RandomBuffer:
    """Buffered scalar uniforms over [0, 1).

    Hot loops (RR-set BFS, forward cascades) consume one uniform per edge;
    drawing them in blocks amortizes the per-call generator overhead.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block)
        self._pos = 0

    def u(self) -> float:
        pos = self._pos
        if pos >= self._block:
            self._buf = self._rng.random(self._block)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]
