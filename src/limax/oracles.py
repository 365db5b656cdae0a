"""Ground truth: Monte-Carlo spread estimates and exact small-instance oracles.

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
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .budgets import TotalBudget, is_feasible
from .graph import IC, DirectedGraph, TriggeringParams
from .rng import RandomBuffer
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

_SMALL_N = 32
_SMALL_M = 64


class InstanceTooLargeError(ValueError):
    """Exact enumeration requested beyond the size guard."""


class SpreadEstimate(NamedTuple):
    mean: float
    se: float
    runs: int


# --- forward Monte-Carlo -----------------------------------------------------

def _forward_count(graph: DirectedGraph, params: TriggeringParams,
                   initial: list[int], u) -> int:
    """One cascade from `initial`; returns the number of active nodes."""
    active = bytearray(graph.n)
    frontier: list[int] = []
    for v in initial:
        if not active[v]:
            active[v] = 1
            frontier.append(v)
    count = len(frontier)
    out_py = graph._out_py
    if params.kind == IC:
        out_probs = params._out_py
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                targets = out_py[v]
                probs = out_probs[v]
                for t in range(len(targets)):
                    w = targets[t]
                    if not active[w] and u() < probs[t]:
                        active[w] = 1
                        nxt.append(w)
            count += len(nxt)
            frontier = nxt
        return count
    # LT: each exposed node commits to at most one in-neighbor, drawn once
    in_py = graph._in_py
    choice: dict[int, int] = {}
    lt_cum = params._lt_cum
    while frontier:
        nxt = []
        for v in frontier:
            for w in out_py[v]:
                if active[w]:
                    continue
                picked = choice.get(w, -2)
                if picked == -2:
                    t = bisect_right(lt_cum[w], u())
                    srcs = in_py[w]
                    picked = choice[w] = srcs[t] if t < len(srcs) else -1
                if picked == v:
                    active[w] = 1
                    nxt.append(w)
        count += len(nxt)
        frontier = nxt
    return count


def _edge_list(graph: DirectedGraph, params: TriggeringParams):
    edges = []
    for v in range(graph.n):
        for t, w in enumerate(graph._in_py[v]):
            edges.append((w, v, params._in_py[v][t]))
    return edges


def _mc_small_run(graph: DirectedGraph, params: TriggeringParams,
                  seed_rows: np.ndarray, rng) -> np.ndarray:
    """Vectorized cascades over all runs at once (n, m small)."""
    runs = seed_rows.shape[0]
    active = seed_rows.copy()
    if params.kind == IC:
        edges = _edge_list(graph, params)
        p = np.array([e[2] for e in edges])
        live = rng.random((runs, len(edges))) < p
        changed = True
        while changed:
            changed = False
            for t, (u, v, _) in enumerate(edges):
                add = active[:, u] & live[:, t] & ~active[:, v]
                if add.any():
                    active[:, v] |= add
                    changed = True
        return active.sum(axis=1)
    # LT: per node draw the committed in-neighbor slot (or none) per run
    choice: list[np.ndarray | None] = [None] * graph.n
    for v in range(graph.n):
        deg = len(graph._in_py[v])
        if deg == 0:
            continue
        cum = np.asarray(params._lt_cum[v])
        r = rng.random(runs)
        c = np.searchsorted(cum, r, side="right")  # deg means "none"
        choice[v] = c
    changed = True
    while changed:
        changed = False
        for v in range(graph.n):
            c = choice[v]
            if c is None:
                continue
            for t, w in enumerate(graph._in_py[v]):
                add = active[:, w] & (c == t) & ~active[:, v]
                if add.any():
                    active[:, v] |= add
                    changed = True
    return active.sum(axis=1)


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
    seed_list = sorted({int(v) for v in seeds})
    if graph.n <= _SMALL_N and graph.m <= _SMALL_M and runs >= 64:
        rows = np.zeros((runs, graph.n), dtype=bool)
        rows[:, seed_list] = True
        return _estimate(_mc_small_run(graph, params, rows, rng).astype(np.float64))
    buf = RandomBuffer(rng)
    spreads = np.fromiter(
        (_forward_count(graph, params, seed_list, buf.u) for _ in range(runs)),
        dtype=np.float64, count=runs)
    return _estimate(spreads)


def simulate_spread_mix(graph: DirectedGraph, params: TriggeringParams,
                        model, x, runs: int, rng) -> SpreadEstimate:
    """Each run seeds node v independently with probability h_v(x), then cascades."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    steps = as_steps(x)
    h = model.h_all(steps)
    if graph.n <= _SMALL_N and graph.m <= _SMALL_M and runs >= 64:
        rows = rng.random((runs, graph.n)) < h
        return _estimate(_mc_small_run(graph, params, rows, rng).astype(np.float64))
    support = np.flatnonzero(h > 0.0)
    h_sup = h[support]
    support_list = support.tolist()
    buf = RandomBuffer(rng)
    base = buf._rng
    spreads = np.empty(runs)
    for r in range(runs):
        hits = np.flatnonzero(base.random(len(support_list)) < h_sup)
        initial = [support_list[t] for t in hits.tolist()]
        spreads[r] = _forward_count(graph, params, initial, buf.u)
    return _estimate(spreads)


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
        edges = _edge_list(graph, params)
        if params.kind == IC:
            num = 1 << m
            idx = np.arange(num, dtype=np.int64)
            probs = np.ones(num)
            live = []
            for t, (_, _, p) in enumerate(edges):
                bit = ((idx >> t) & 1).astype(bool)
                probs *= np.where(bit, p, 1.0 - p)
                live.append(bit)
        else:
            radices = []
            node_digits: dict[int, int] = {}
            for v in range(n):
                deg = len(graph._in_py[v])
                if deg:
                    node_digits[v] = len(radices)
                    radices.append(deg + 1)
            num = int(np.prod(radices, dtype=np.int64)) if radices else 1
            idx = np.arange(num, dtype=np.int64)
            digits = []
            scale = 1
            for base in radices:
                digits.append((idx // scale) % base)
                scale *= base
            probs = np.ones(num)
            for v, dpos in node_digits.items():
                cum = params._lt_cum[v]
                w = np.asarray(params.in_values[v])
                none_p = 1.0 - cum[-1]
                c = digits[dpos]
                pv = np.where(c < len(w), w[np.minimum(c, len(w) - 1)], none_p)
                probs *= pv
            live = []
            edge_pos: dict[int, int] = {v: 0 for v in range(n)}
            for (u, v, _) in edges:
                t = edge_pos[v]
                edge_pos[v] = t + 1
                live.append(digits[node_digits[v]] == t)
        anc = np.empty((num, n), dtype=np.int32)
        for u in range(n):
            anc[:, u] = 1 << u
        for _ in range(n):
            changed = False
            for t, (u, v, _) in enumerate(edges):
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
    """Yield every feasible step vector (ascending lexicographic order)."""
    d = lattice.d
    if isinstance(constraint, TotalBudget):
        points = math.comb(constraint.steps + d, d)
    else:
        points = 1
        for g, cap in zip(constraint.groups, constraint.caps):
            points *= math.comb(cap + len(g), len(g))
    if points > MAX_OPT_POINTS:
        raise InstanceTooLargeError(f"{points} lattice points exceed the search guard")

    steps = np.zeros(d, dtype=np.int64)

    def rec(j: int):
        if j == d:
            if is_feasible(steps, constraint):
                yield steps.copy()
            return
        for s in range(lattice.budget_steps + 1):
            steps[j] = s
            if isinstance(constraint, TotalBudget) and int(steps[:j + 1].sum()) > constraint.steps:
                steps[j] = 0
                break
            yield from rec(j + 1)
        steps[j] = 0

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
