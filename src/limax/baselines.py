"""Comparison algorithms: Monte-Carlo greedy, uniform discount, coordinate
descent, and degree-proportional allocation.

UD and CD address the personalized setting (one private strategy per node).
UD tries each flat discount c in {0.1, ..., 1.0}, greedily granting c to
floor(k/c) nodes by estimated marginal spread, and keeps the best of the
ten candidates; CD then shifts single steps between coordinates while the
estimate strictly improves.  Both are reconstructions from one-line
descriptions of the original heuristics, not ports.
"""

from __future__ import annotations

import numpy as np

from .graph import DirectedGraph, TriggeringParams
from .immprr import lgreedy
from .oracles import simulate_spread_mix
from .rng import stream
from .rrset import RRCollection, g_hat
from .strategy import IndependentActivation, LatticeConfig, StrategyMix, as_steps

__all__ = [
    "UnsupportedScenarioError",
    "mclg",
    "ud",
    "cd",
    "hd",
]


class UnsupportedScenarioError(ValueError):
    """Baseline requires the personalized one-strategy-per-node scenario."""


def mclg(graph: DirectedGraph, params: TriggeringParams, model,
         lattice: LatticeConfig, constraint, sims: int, rng) -> StrategyMix:
    """Lattice greedy with Monte-Carlo spread estimation (`sims` runs per
    candidate evaluation).  Slow; the accuracy/cost reference point."""
    if sims < 1:
        raise ValueError("sims must be >= 1")
    base = int(rng.integers(0, 2**63 - 1))
    calls = [0]

    def objective(steps: np.ndarray) -> float:
        calls[0] += 1
        sub = stream(base, calls[0])
        return simulate_spread_mix(graph, params, model, steps, sims, sub).mean

    return lgreedy(objective, lattice, constraint)


def _require_personalized(model, lattice: LatticeConfig, n: int) -> None:
    if getattr(model, "kind", None) != "independent" or lattice.d != n or model.n != n:
        raise UnsupportedScenarioError("needs d == n with one strategy per node")
    # node v owns strategy v iff its one flat row is (v, v)
    owned = np.diff(model._indptr) == 1
    owned[owned] = model._flat_strats[model._indptr[:-1][owned]] == np.flatnonzero(owned)
    if not owned.all():
        v = int(np.argmin(owned))
        raise UnsupportedScenarioError(f"node {v} is not owned by strategy {v}")


def ud(graph: DirectedGraph, params: TriggeringParams,
       model: IndependentActivation, lattice: LatticeConfig, k: float,
       collection: RRCollection, rng) -> StrategyMix:
    """Uniform discount: best over c of 'give discount c to floor(k/c) nodes'.

    Node choice per c is greedy by marginal partial coverage on the given
    collection; the ten candidates are compared on the same collection.
    ``rng`` is accepted for interface uniformity; the procedure is
    deterministic.
    """
    _require_personalized(model, lattice, graph.n)
    budget_steps = int(round(k / lattice.delta))
    theta = collection.theta
    # one strategy per node: strategy v's entries are the RR sets holding v
    rr, _, bounds = collection.strategy_entries()
    idx_of = [rr[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    best_mix = StrategyMix.zeros(lattice.d)
    best_val = -1.0
    for tenth in range(1, 11):
        c = tenth / 10.0
        steps_c = round(c / lattice.delta)
        if steps_c == 0 or abs(steps_c * lattice.delta - c) > 1e-9:
            continue  # discount not representable on this lattice
        if steps_c > lattice.budget_steps:
            continue
        n_sel = budget_steps // steps_c
        chosen: list[int] = []
        if n_sel and theta:
            qc = model._flat_tables[:, steps_c]
            s = np.ones(theta)
            picked = np.zeros(graph.n, dtype=bool)
            for _ in range(min(n_sel, graph.n)):
                best_node = -1
                best_gain = 0.0
                for v in range(graph.n):
                    if picked[v] or qc[v] <= 0.0 or not len(idx_of[v]):
                        continue
                    gain = qc[v] * float(s[idx_of[v]].sum())
                    if gain > best_gain:
                        best_gain = gain
                        best_node = v
                if best_node < 0:
                    break
                picked[best_node] = True
                chosen.append(best_node)
                s[idx_of[best_node]] *= 1.0 - qc[best_node]
        elif n_sel:
            chosen = list(range(min(n_sel, graph.n)))
        x = np.zeros(lattice.d, dtype=np.int64)
        x[chosen] = steps_c
        val = g_hat(collection, model, x) if theta else 0.0
        if val > best_val:
            best_val = val
            best_mix = StrategyMix(x)
    return best_mix


def cd(graph: DirectedGraph, params: TriggeringParams, model,
       lattice: LatticeConfig, k: float, start: StrategyMix,
       collection: RRCollection, max_sweeps: int = 100) -> StrategyMix:
    """Coordinate descent: move one step from a to b whenever the estimate
    strictly increases; lexicographic (a, b) sweeps, capped to avoid
    plateau cycling."""
    x = as_steps(start, lattice.d).copy()
    current = g_hat(collection, model, x)
    d = lattice.d
    # an opaque model gives no entries to rule a target out, so every b is one
    independent = getattr(collection.model, "kind", None) == "independent"
    has_entries = np.diff(collection.strategy_entries()[2]) > 0 if independent else [True] * d
    for _ in range(max_sweeps):
        improved = False
        for a in range(d):
            if x[a] == 0:
                continue
            for b in range(d):
                # a target with no coverage entries can never beat monotone loss
                if b == a or x[b] + 1 > lattice.budget_steps or not has_entries[b]:
                    continue
                x[a] -= 1
                x[b] += 1
                val = g_hat(collection, model, x)
                if val > current:
                    current = val
                    improved = True
                else:
                    x[a] += 1
                    x[b] -= 1
                if x[a] == 0:
                    break
        if not improved:
            break
    return StrategyMix(x)


def hd(graph: DirectedGraph, lattice: LatticeConfig, k: float,
       m_nodes: int, cap_steps: int | None = None) -> StrategyMix:
    """Spread the budget over the m_nodes highest out-degree nodes in
    proportion to degree, rounding down to the lattice; leftover steps go
    one at a time to the highest-degree nodes still below their cap."""
    n = graph.n
    if lattice.d != n:
        raise UnsupportedScenarioError("needs d == n (personalized scenario)")
    if m_nodes < 1 or m_nodes > n:
        raise ValueError("m_nodes must be in [1, n]")
    cap = lattice.budget_steps if cap_steps is None else min(cap_steps, lattice.budget_steps)
    deg = graph.out_degrees()
    order = np.lexsort((np.arange(n), -deg))[:m_nodes]
    budget_steps = int(round(k / lattice.delta))
    x = np.zeros(n, dtype=np.int64)
    total_deg = int(deg[order].sum())
    if total_deg > 0:
        for v in order:
            x[v] = min(cap, budget_steps * int(deg[v]) // total_deg)
    leftover = budget_steps - int(x.sum())
    while leftover > 0:
        progressed = False
        for v in order:
            if leftover == 0:
                break
            if x[v] < cap:
                x[v] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            break
    return StrategyMix(x)
