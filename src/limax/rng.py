"""Reproducible random streams.

All stochastic routines in this package take an explicit numpy Generator.
Streams are derived from a master seed with a counter-based bit generator
(Philox), so any cell of a larger experiment can be reproduced in isolation
by re-deriving its stream from the master seed and its key path.

The batched kernels (RR and hybrid RR sets, forward cascades) draw whole
arrays from the generator itself.  The scalar samplers (one triggering set,
one virtual arm) take a generator or a :class:`RandomBuffer`, which draws
uniforms from the generator in blocks and hands them out as Python floats,
one at a time (``u``) or as a slice (``take``).  :func:`draws` gives the
same two callables for a buffer or a bare generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "RandomBuffer", "draws"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a master seed and an integer key path.

    The same (seed, key) pair always yields the same stream; distinct key
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


class RandomBuffer:
    """Buffered uniforms over [0, 1), held as a Python list.

    Scalar loops that consume one uniform at a time amortize the per-call
    generator overhead by drawing blocks of ``block``, and storing the
    block as a list makes each value a Python float, which compares much
    faster than a numpy scalar.

    ``take(k)`` returns exactly the values that k calls of ``u()`` would.
    Both refill only in whole blocks, and only when a value past the end of
    the current block is needed.  That matters because the batched kernels,
    given a buffer, draw from its ``_rng`` directly between buffered draws:
    a refill at any other point, or a short draw of just the missing
    values, would shift those interleaved draws in the stream.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block).tolist()
        self._pos = 0

    def u(self) -> float:
        pos = self._pos
        if pos >= self._block:
            self._buf = self._rng.random(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def take(self, k: int) -> list[float]:
        """The next k uniforms, as k calls of ``u()`` would return them."""
        pos = self._pos
        end = pos + k
        if end <= self._block:
            self._pos = end
            return self._buf[pos:end]
        out = self._buf[pos:]
        k = end - self._block
        while True:
            self._buf = self._rng.random(self._block).tolist()
            if k <= self._block:
                self._pos = k
                return out + self._buf[:k]
            out += self._buf
            k -= self._block


def draws(rng):
    """``(u, take)`` for a :class:`RandomBuffer` or a bare numpy Generator.

    ``u()`` returns one uniform and ``take(k)`` a list of the next k; both
    read the same stream in order, so a node's k in-edge coins can be drawn
    as one slice.  A Generator yields the same values for one block of k as
    for k scalar draws.
    """
    if isinstance(rng, RandomBuffer):
        return rng.u, rng.take
    return rng.random, lambda k: rng.random(k).tolist()
