"""Ground truth: Monte-Carlo spread estimates and exact small-instance oracles.

Forward Monte-Carlo runs many cascades at once (``_cascades``) over the
(node, run) pairs of a batch of runs, keyed ``node * runs + run``; a fixed
cap on the pairs per batch bounds the memory.  Under IC, the forward twin
of the reverse search in ``limax.rrset``, the cascades advance one BFS
level per vectorized step over the out-edge CSR, each out-edge of a newly
active pair drawing one coin, in the reverse kernel's level step; a pair
is counted for its run as it is expanded.  Under LT each pair commits to
one in-neighbour pick per run, drawn up front; by the live-edge view of LT
(Kempe, Kleinberg and Tardos 2003) it ends up active exactly when its
chain of picks reaches a seed, which pointer doubling settles in O(log n)
whole-array rounds.  A run's spread is its count of active pairs.

The exact oracle enumerates every live-edge graph of a small instance (all
2^m edge outcomes under IC, the product of per-node in-neighbor choices
under LT) with its exact probability.  Conditioned on a live-edge graph, a
node ends up active exactly when at least one of its ancestors (itself
included) is seeded, so summing ``1 - prod_{w in anc(u)} (1 - h_w(x))``
over nodes and averaging over live-edge graphs gives g(x) exactly; this is
the seed-subset expectation of the activated count folded per node by
linearity.  ``exact_g_subsets`` keeps the literal double enumeration over
seed subsets as an independent cross-check for the oracle itself.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .budgets import as_partition
from .graph import IC, DirectedGraph, TriggeringParams
from .rng import child
from .rrset import _EDGE_CHUNK, _live_edges, _reach, _slots
from .strategy import LatticeConfig, StrategyMix, as_steps

__all__ = [
    "SpreadEstimate",
    "InstanceTooLargeError",
    "simulate_spread_seeds",
    "simulate_spread_mix",
    "LiveEdgeEnumeration",
    "exact_g",
    "exact_g_subsets",
    "exact_sigma",
    "exact_opt",
    "enumerate_feasible_mixes",
]

MAX_EXACT_NODES = 12
MAX_EXACT_EDGES = 12
MAX_OPT_POINTS = 100_000

# fixed memory cap of the forward kernel (internal, not an option): the
# (node, run) pairs of one batch of runs, and also its seed draws per run
_RUN_PAIRS = 1 << 20


class InstanceTooLargeError(ValueError):
    """Exact enumeration requested beyond the size guard."""


class SpreadEstimate(NamedTuple):
    mean: float
    se: float
    runs: int


# --- forward Monte-Carlo -----------------------------------------------------

def _lt_parents(params: TriggeringParams, n: int, size: int,
                rng: np.random.Generator) -> np.ndarray:
    """Each (node, run) pair's committed in-neighbour under LT, as pointers
    over the keys ``node * size + run``: entry k holds the key of k's pick
    in the same run, or k for none, and one more entry, key ``n * size``,
    points at itself.  Every node with in-edges draws one uniform per run,
    node-major, and takes its slot among its running weight sums (see
    :func:`limax.rrset._slots`), ``_EDGE_CHUNK`` pairs or one node at a time."""
    indptr, src, cum = params._csr
    has = np.flatnonzero(np.diff(indptr))
    par = np.arange(n * size + 1)
    grid = par[:-1].reshape(n, size)
    rows = max(1, _EDGE_CHUNK // size)
    for r0 in range(0, len(has), rows):
        nodes = has[r0:r0 + rows, None]
        lo, hi = indptr[nodes], indptr[nodes + 1]
        pos = _slots(cum, lo, hi, rng.random((len(nodes), size)))
        pick = np.where(pos < hi, src.take(pos, mode="clip"), nodes)  # or itself
        grid[nodes[:, 0]] = pick * size + np.arange(size)
    return par


def _follow(par: np.ndarray, top: int) -> tuple[np.ndarray, int]:
    """Pointer doubling over ``par``, whose key ``top`` points at itself:
    round r squares the pointers, so the keys then pointing at ``top`` are
    those within 2^r steps of it.  A key s > 2^r steps away has one exactly
    2^r steps away on its chain, which round r adds, so the first round
    that adds none is the last.  Returns the mask of keys whose chain
    reaches ``top``, and the number of rounds; ``par`` is overwritten."""
    hit = par == top
    spare = np.empty_like(par)
    for rounds in itertools.count(1):
        count = np.count_nonzero(hit)
        par, spare = np.take(par, par, out=spare, mode="clip"), par
        hit = par == top
        if np.count_nonzero(hit) == count:
            return hit, rounds


def _cascades(graph: DirectedGraph, params: TriggeringParams, runs: int,
              width: int, seed_keys, rng: np.random.Generator) -> np.ndarray:
    """Active-node counts of ``runs`` independent forward cascades.

    Runs go in batches of ``size`` whose (node, run) pairs, and whose
    ``width`` seed draws per run, fit ``_RUN_PAIRS``.  ``seed_keys(size)``
    draws one batch's seeds and returns their sorted, distinct keys
    ``node * size + run``.  Under IC the cascade then advances one level
    per step over the out-edge CSR (see :func:`limax.rrset._reach`), so
    each active pair is expanded once, and counted for its run then, and
    every out-edge of a newly active pair draws one uniform.  Under LT
    every pair commits to its in-neighbour once, drawn per batch after the
    seeds (see :func:`_lt_parents`), and is active when its chain of picks
    reaches a seed (see :func:`_follow`).  A run's count is the number of
    its active keys.
    """
    n = graph.n
    per_batch = max(1, min(runs, _RUN_PAIRS // max(n, width, 1)))
    marks = np.zeros(per_batch * n // 8 + 1, dtype=np.uint8)
    out_csr = params._out_csr
    counts = np.zeros(runs)
    for b0 in range(0, runs, per_batch):
        size = min(per_batch, runs - b0)
        frontier = seed_keys(size)
        if params.kind == IC:
            def expand(keys):
                nodes, local = np.divmod(keys, size)
                counts[b0:b0 + size] += np.bincount(local, minlength=size)
                return _live_edges(out_csr, out_csr[0][nodes], out_csr[0][1:][nodes],
                                   local, size, rng)

            for _ in _reach(marks, frontier, expand):
                pass
            marks.fill(0)
        else:
            par = _lt_parents(params, n, size, rng)
            par[frontier] = n * size  # the seeds point at the last key
            hit, _ = _follow(par, n * size)
            counts[b0:b0 + size] = hit[:-1].reshape(n, size).sum(axis=0)
            del frontier, par, hit  # before the next batch draws
    return counts


def _estimate(spreads: np.ndarray) -> SpreadEstimate:
    runs = len(spreads)
    mean = float(spreads.mean())
    se = float(spreads.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return SpreadEstimate(mean, se, runs)


def simulate_spread_seeds(graph: DirectedGraph, params: TriggeringParams,
                          seeds, runs: int, rng) -> SpreadEstimate:
    """Mean active-node count over independent cascades from a fixed seed set."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    nodes = np.array(sorted({int(v) for v in seeds}), dtype=np.int64)
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= graph.n):
        raise ValueError(f"seed node outside [0, {graph.n})")
    rng = child(rng)

    def seed_keys(size):
        return (nodes[:, None] * size + np.arange(size)).ravel()

    return _estimate(_cascades(graph, params, runs, 0, seed_keys, rng))


def simulate_spread_mix(graph: DirectedGraph, params: TriggeringParams,
                        model, x, runs: int, rng) -> SpreadEstimate:
    """Each run seeds node v independently with probability h_v(x), then cascades.

    A batch of runs draws its seed coins as one (runs, support) block, where
    the support is the nodes with h_v(x) > 0.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    h = model.h_all(as_steps(x))
    support = np.flatnonzero(h > 0.0)
    rng = child(rng)

    def seed_keys(size):
        run, col = np.nonzero(rng.random((size, len(support))) < h[support])
        return np.sort(support[col] * size + run)

    return _estimate(_cascades(graph, params, runs, len(support), seed_keys, rng))


# --- exact enumeration -------------------------------------------------------

class LiveEdgeEnumeration:
    """Exhaustive live-edge outcomes of a small instance.

    ``probs[l]`` is the probability of outcome l and ``anc[l, u]`` the
    bitmask of nodes with a live path to u (u included).  Reusable across
    many mixes, which keeps lattice sweeps cheap.
    """

    def __init__(self, graph: DirectedGraph, params: TriggeringParams):
        n, m = graph.n, graph.m
        if n > MAX_EXACT_NODES or m > MAX_EXACT_EDGES:
            raise InstanceTooLargeError(
                f"exact enumeration limited to n <= {MAX_EXACT_NODES}, m <= {MAX_EXACT_EDGES}")
        self.graph = graph
        self.params = params
        self.n = n
        indptr, src, vals = params._csr
        deg = np.diff(indptr)
        dst = np.repeat(np.arange(n), deg)
        if params.kind == IC:
            num = 1 << m
            idx = np.arange(num, dtype=np.int64)
            probs = np.ones(num)
            live = []
            for t, p in enumerate(vals.tolist()):
                bit = ((idx >> t) & 1).astype(bool)
                probs *= np.where(bit, p, 1.0 - p)
                live.append(bit)
        else:
            # one digit per node with in-edges: its in-edge slot, or deg for none
            has = np.flatnonzero(deg)
            radices = (deg[has] + 1).tolist()
            num = int(np.prod(radices, dtype=np.int64)) if radices else 1
            idx = np.arange(num, dtype=np.int64)
            digits = {}
            scale = 1
            probs = np.ones(num)
            for v, base in zip(has.tolist(), radices):
                digits[v] = (idx // scale) % base
                scale *= base
                none = 1.0 - vals[indptr[v + 1] - 1]  # one minus the weight sum
                probs *= np.append(params.values[indptr[v]:indptr[v + 1]], none)[digits[v]]
            live = [digits[v] == e - indptr[v] for e, v in enumerate(dst.tolist())]
        edges = list(zip(src.tolist(), dst.tolist()))
        anc = np.empty((num, n), dtype=np.int32)
        for u in range(n):
            anc[:, u] = 1 << u
        for _ in range(n):
            changed = False
            for t, (u, v) in enumerate(edges):
                merged = anc[:, v] | np.where(live[t], anc[:, u], 0)
                if not np.array_equal(merged, anc[:, v]):
                    anc[:, v] = merged
                    changed = True
            if not changed:
                break
        self.probs = probs
        self.anc = anc

    def _survival_table(self, h: np.ndarray) -> np.ndarray:
        """dp[mask] = prod over set bits i of (1 - h_i)."""
        dp = np.ones(1)
        for i in range(self.n):
            dp = np.concatenate((dp, dp * (1.0 - h[i])))
        return dp

    def spread_given_h(self, h: np.ndarray) -> float:
        dp = self._survival_table(np.asarray(h, dtype=np.float64))
        return float(self.probs @ (1.0 - dp[self.anc]).sum(axis=1))

    def sigma(self, seeds) -> float:
        """Exact expected spread of a deterministic seed set."""
        mask = 0
        for v in seeds:
            mask |= 1 << int(v)
        hit = (self.anc & mask) != 0
        return float(self.probs @ hit.sum(axis=1))


def exact_g(graph: DirectedGraph, params: TriggeringParams, model, x,
            enumeration: LiveEdgeEnumeration | None = None) -> float:
    """Exact expected spread of mix x (small instances only)."""
    enum = enumeration or LiveEdgeEnumeration(graph, params)
    steps = as_steps(x)
    return enum.spread_given_h(model.h_all(steps))


def exact_sigma(graph: DirectedGraph, params: TriggeringParams, seeds,
                enumeration: LiveEdgeEnumeration | None = None) -> float:
    enum = enumeration or LiveEdgeEnumeration(graph, params)
    return enum.sigma(seeds)


def exact_g_subsets(graph: DirectedGraph, params: TriggeringParams, model, x) -> float:
    """Literal double enumeration: every live-edge outcome crossed with every
    seed subset over the nodes with h_v(x) > 0.  Slow; test-sized inputs only."""
    enum = LiveEdgeEnumeration(graph, params)
    steps = as_steps(x)
    h = model.h_all(steps)
    support = np.flatnonzero(h > 0.0).tolist()
    if len(support) > MAX_EXACT_NODES:
        raise InstanceTooLargeError("seed-subset enumeration support too large")
    total = 0.0
    for size in range(len(support) + 1):
        for combo in itertools.combinations(support, size):
            p_s = 1.0
            for v in support:
                p_s *= h[v] if v in combo else 1.0 - h[v]
            if p_s == 0.0:
                continue
            total += p_s * enum.sigma(combo)
    return total


def enumerate_feasible_mixes(lattice: LatticeConfig, constraint):
    """Yield every feasible step vector (ascending lexicographic order).

    Each coordinate runs up to the lattice's step count or its group's
    remaining cap, whichever is lower, so every leaf is feasible."""
    d = lattice.d
    group_of, left = (a.tolist() for a in as_partition(constraint, d))
    points = math.prod(math.comb(cap + group_of.count(g), cap) for g, cap in enumerate(left))
    if points > MAX_OPT_POINTS:
        raise InstanceTooLargeError(f"{points} lattice points exceed the search guard")

    steps = np.zeros(d, dtype=np.int64)

    def rec(j: int):
        if j == d:
            yield steps.copy()
            return
        g = group_of[j]
        room = left[g]
        for s in range(min(lattice.budget_steps, room) + 1):
            steps[j] = s
            left[g] = room - s
            yield from rec(j + 1)
        steps[j] = 0
        left[g] = room

    yield from rec(0)


def exact_opt(graph: DirectedGraph, params: TriggeringParams, model,
              lattice: LatticeConfig, constraint) -> tuple[StrategyMix, float]:
    """Exhaustive search over all feasible mixes; returns (argmax, OPT)."""
    enum = LiveEdgeEnumeration(graph, params)
    best_steps = np.zeros(lattice.d, dtype=np.int64)
    best = -1.0
    for steps in enumerate_feasible_mixes(lattice, constraint):
        val = enum.spread_given_h(model.h_all(steps))
        if val > best:
            best = val
            best_steps = steps
    return StrategyMix(best_steps), float(best)
