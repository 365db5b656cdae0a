"""Reproducible random streams.

All stochastic routines in this package take an explicit numpy Generator
and draw whole arrays from it.  :func:`stream` derives such generators from
a master seed with a counter-based bit generator (Philox), so any cell of a
larger experiment, and with it its graph, scenario and instance, can be
reproduced in isolation by re-deriving its stream from the master seed and
its key path.  The independence of key paths comes from ``SeedSequence``'s
spawn keys, not from Philox.

The Monte-Carlo uniforms themselves (the IC coins, LT picks, hybrid arms
and seed coins) come from a :func:`child` generator on SFC64, about 2.5x
cheaper per double than Philox: each public sampling entry point (RR and
hybrid-RR ``extend``, the forward spread simulations) seeds one from four
words of its caller's generator, after drawing any roots, and draws
everything else from it.  Equal caller states still give equal outputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "child"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a master seed and an integer key path.

    The same (seed, key) pair always yields the same stream; distinct key
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def child(gen: np.random.Generator) -> np.random.Generator:
    """An SFC64 generator seeded from four 63-bit words drawn from ``gen``:
    the source of one sampling call's uniforms."""
    return np.random.Generator(np.random.SFC64(gen.integers(0, 2**63, size=4)))
