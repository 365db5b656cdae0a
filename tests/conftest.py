"""Shared test helpers: randomized small instances and lattice sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from limax.graph import (IC, LT, DirectedGraph, TriggeringParams,
                         assign_weighted_cascade, from_edges, uniform_ic)
from limax.strategy import IndependentActivation, LatticeConfig


@dataclass
class Instance:
    graph: DirectedGraph
    params: TriggeringParams
    model: IndependentActivation
    lattice: LatticeConfig


def random_concave_table(rng, steps: int, total_cap: float = 0.9) -> np.ndarray:
    """Random nondecreasing concave lattice table with q(0) = 0."""
    marginals = np.sort(rng.uniform(0.05, 1.0, size=steps))[::-1]
    total = rng.uniform(0.3, total_cap)
    marginals *= total / marginals.sum()
    return np.concatenate(([0.0], np.cumsum(marginals)))


def random_graph(rng, n: int, m: int, kind: str = IC) -> tuple[DirectedGraph, TriggeringParams]:
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    take = min(m, len(pairs))
    idx = rng.choice(len(pairs), size=take, replace=False)
    graph = from_edges(n, [pairs[i] for i in idx])
    if kind == IC:
        params = TriggeringParams.build(graph, IC, rng.uniform(0.2, 0.9, size=graph.m))
    else:
        rows = []
        for deg in graph.in_degrees().tolist():
            if deg == 0:
                continue
            w = rng.uniform(0.1, 1.0, size=deg)
            w *= rng.uniform(0.3, 1.0) / w.sum()
            rows.append(w)
        params = TriggeringParams.build(graph, LT, np.concatenate([np.empty(0), *rows]))
    return graph, params


def node_rows(model: IndependentActivation, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Node v's strategies S_v (sorted) and their tables, one row each."""
    lo, hi = model._indptr[v], model._indptr[v + 1]
    return model._flat_strats[lo:hi], model._flat_tables[lo:hi]


def h_per_node(model: IndependentActivation, v: int, steps) -> float:
    """h_v at the int step vector ``steps``: the product over node v's rows,
    one scalar factor at a time, the reference ``h_all`` is checked against."""
    acc = 1.0
    for j, tab in zip(*node_rows(model, v)):
        acc *= 1.0 - tab[steps[j]]
    return 1.0 - acc


def csr_rows(indptr, flat) -> list[list]:
    """Per-node lists ``flat[indptr[v]:indptr[v + 1]]`` of one CSR array."""
    bounds = indptr.tolist()
    return [flat[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


# random_instance seeds giving n >= 6, m >= 8, d >= 2, six or more q tables
# and two or more nodes with several in-edges, under both IC and LT
RICH_SEEDS = [501, 511, 525, 542]


SHARED_IC = ["weighted_cascade", "uniform"]


def shared_ic(graph: DirectedGraph, shared: str) -> TriggeringParams:
    """IC parameters whose in-edges share one probability per node: 1 / in-degree
    (weighted cascade) or 0.45 everywhere."""
    if shared == "weighted_cascade":
        return assign_weighted_cascade(graph)
    return uniform_ic(graph, 0.45)


def triggering_sets(params: TriggeringParams, nodes, rng) -> list[list[int]]:
    """The sorted triggering sets of ``nodes``, drawn by one call of the RR
    kernel's in-edge step ``limax.rrset._live_in_edges``, with pair k
    (``nodes[k]``, k) standing for set k."""
    from limax.rrset import _live_in_edges

    nodes = np.asarray(nodes, dtype=np.int64)
    keys = np.concatenate([np.empty(0, np.int64), *_live_in_edges(
        params, nodes, np.arange(len(nodes)), len(nodes), rng)])
    sets: list[list[int]] = [[] for _ in nodes]
    for src, k in zip(*(a.tolist() for a in np.divmod(keys, len(nodes)))):
        sets[k].append(src)
    return [sorted(s) for s in sets]


def rr_set(graph: DirectedGraph, params: TriggeringParams, root: int, rng):
    """The RR set rooted at ``root``, sampled by one call of
    ``RRCollection._sample``."""
    from limax.rrset import RRCollection

    coll = RRCollection(graph, params, None)
    coll._sample(np.array([root], dtype=np.int64), rng)
    return coll.sets[0]


def random_instance(rng, n_max=8, m_max=10, d_max=3, steps_max=3,
                    kind: str | None = None, extra_steps: int = 0) -> Instance:
    """Random small instance with concave independent activation everywhere.

    ``extra_steps`` widens the table domain beyond the budget so sweeps can
    look one or two steps past the box they certify.
    """
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    d = int(rng.integers(1, d_max + 1))
    steps = int(rng.integers(1, steps_max + 1))
    kind = kind or (IC if rng.random() < 0.7 else LT)
    graph, params = random_graph(rng, n, m, kind)
    lattice = LatticeConfig(d=d, delta=1.0, budget_steps=steps + extra_steps)
    nodes, strategies, tables = [], [], []
    for v in range(n):
        count = int(rng.integers(0, min(d, 2) + 1)) if rng.random() < 0.85 else 0
        js = rng.choice(d, size=count, replace=False) if count else []
        for j in js:
            nodes.append(v)
            strategies.append(j)
            tables.append(random_concave_table(rng, lattice.budget_steps))
    model = IndependentActivation(n, lattice, nodes, strategies,
                                  np.reshape(tables, (-1, lattice.budget_steps + 1)))
    return Instance(graph, params, model, lattice)


def stage_reuse_instance():
    """An n = 200 segmented-event instance (d = 40, K = 10, eps = 0.9) whose
    IMM sampling ends at a stage whose collection already meets the final
    size for some solver streams, and grows past it for others.

    Returns (graph, params, model, lattice, imm).
    """
    from limax.graph import gen_erdos_renyi
    from limax.immprr import make_imm_params
    from limax.rng import stream
    from limax.strategy import make_segmented_event

    graph = gen_erdos_renyi(200, 1000, stream(5, 200))
    lattice = LatticeConfig(d=40, delta=1.0, budget_steps=10)
    model = make_segmented_event(graph.out_degrees(),
                                 lattice, 100, 0.3, stream(6, 200))
    imm = make_imm_params(graph.n, lattice, 10, 0.9, 1.0)
    return graph, assign_weighted_cascade(graph), model, lattice, imm


def stage_budget(rng, d: int, steps: int, partitioned: bool):
    """A total budget of ``steps``, or a partition of the d strategies into
    one group (d < 4) or two interleaved ones, with caps in [1, steps]."""
    from limax.budgets import PartitionedBudget, TotalBudget

    if not partitioned or d < 2:
        return TotalBudget(steps)
    groups = [tuple(range(d))] if d < 4 else [tuple(range(0, d, 2)), tuple(range(1, d, 2))]
    return PartitionedBudget(groups=groups,
                             caps=rng.integers(1, steps + 1, size=len(groups)).tolist())


def needs_around(est: float, rounds: int) -> list[float]:
    """Stage thresholds around a full greedy's estimate: below it, at it,
    one float either side, just above, and one no greedy of ``rounds``
    steps whose first gain is at most ``est`` can reach."""
    return ([est * f for f in (0.0, 0.5, 0.99, 1 - 1e-9, 1.0, 1 + 1e-9, 1.01, 1.5, 3.0)]
            + [np.nextafter(est, -np.inf), np.nextafter(est, np.inf), (rounds + 1) * est + 1])


def sweep_monotone_dr(f, d: int, bound: int, tol: float = 1e-9) -> tuple[int, int]:
    """Count monotonicity / diminishing-return violations of f on {0..bound}^d.

    ``f`` maps an int step vector to a float and must accept coordinates up
    to bound + 1.  One-step marginal comparisons imply the full pairwise
    property on the box by chaining.
    """
    vals: dict[tuple, float] = {}
    for pt in product(range(bound + 2), repeat=d):
        vals[pt] = float(f(np.array(pt, dtype=np.int64)))

    def marg(pt: tuple, j: int) -> float:
        up = list(pt)
        up[j] += 1
        return vals[tuple(up)] - vals[pt]

    mono = dr = 0
    for pt in product(range(bound + 1), repeat=d):
        for j in range(d):
            if marg(pt, j) < -tol:
                mono += 1
            for i in range(d):
                up = list(pt)
                up[i] += 1
                up = tuple(up)
                if max(up) > bound:
                    continue
                if marg(pt, j) < marg(up, j) - tol:
                    dr += 1
    return mono, dr


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
