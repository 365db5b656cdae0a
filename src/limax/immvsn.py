"""Virtual-strategy-node reduction: lattice optimization as seed selection.

Strategy j is expanded into K virtual nodes u[j,1..K]; virtual node u[j,i]
points at every node v with j in S_v with edge weight
``q[v,j](i*delta) - q[v,j]((i-1)*delta)``.  Within one strategy those edges
behave like a linear-threshold node (at most one fires, with probability
equal to its weight); across strategies, and against real in-neighbors,
activation attempts stay independent.  Seeding the first i virtual nodes of
strategy j then activates v with probability exactly q[v,j](i*delta), so a
mix corresponds to a prefix seed set.  Because concave curves make the
weights nonincreasing in i, any seed subset of a strategy is dominated by
the same-size prefix, which is what lets an arbitrary greedy seed set be
converted back to a mix at no loss.

Seed selection is then classical max-coverage greedy over the virtual nodes
in hybrid RR sets; sets that contain no virtual node can never be covered
but still count in the estimator's denominator.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .budgets import PartitionedBudget, total_steps
from .graph import DirectedGraph, TriggeringParams
from .immprr import (ImmParams, InvalidModelError, SamplingStats,
                     _imm_stages, _validate_domain)
from .oracles import SpreadEstimate, _estimate, _forward_count
from .rng import RandomBuffer
from .rrset import EmptyCollectionError, _reverse_reach
from .strategy import (IndependentActivation, LatticeConfig, StrategyMix,
                       validate_model)

__all__ = [
    "VirtualNodeId",
    "AugmentedGraph",
    "HybridRRSet",
    "HybridCollection",
    "build_augmented",
    "sample_virtual_arm",
    "generate_hybrid_rr_set",
    "generate_hybrid_collection",
    "node_selection_virtual",
    "simulate_spread_virtual_seeds",
    "VsnResult",
    "run_immvsn",
    "immvsn",
]


@dataclass(frozen=True, order=True)
class VirtualNodeId:
    """The i-th delta-increment of strategy j (i counts from 1)."""

    j: int
    i: int


class AugmentedGraph:
    """Original graph plus implicit virtual strategy nodes.

    Virtual edges are never materialized: the model's cumulative q tables
    double as the per-(v, j) edge-weight prefix sums, so both sampling and
    weight queries read straight from them.
    """

    def __init__(self, graph: DirectedGraph, params: TriggeringParams,
                 model: IndependentActivation, lattice: LatticeConfig):
        if getattr(model, "kind", None) != "independent":
            raise InvalidModelError("virtual-node reduction needs independent activation")
        violations = validate_model(model, lattice)
        if violations:
            raise InvalidModelError(
                "curves must be concave nondecreasing probabilities with "
                f"q(0)=0; first violation: {violations[0]}")
        self.graph = graph
        self.params = params
        self.model = model
        self.lattice = lattice
        self.steps = lattice.budget_steps
        # python-list views of the cumulative tables for fast scalar bisect
        self._cum_py: list[list[list[float]]] = [
            [row.tolist() for row in model.tables[v]] for v in range(graph.n)]
        self._strat_py: list[list[int]] = [s.tolist() for s in model.strategies]

    def flat(self, node: VirtualNodeId) -> int:
        return node.j * self.steps + (node.i - 1)

    def unflat(self, flat: int) -> VirtualNodeId:
        return VirtualNodeId(j=flat // self.steps, i=flat % self.steps + 1)

    def weight(self, v: int, j: int, i: int) -> float:
        """LT weight q[v,j](i*delta) - q[v,j]((i-1)*delta) of the virtual
        edge (u[j,i], v)."""
        q = self.model.q_steps
        return q(v, j, i) - q(v, j, i - 1)


def build_augmented(graph: DirectedGraph, params: TriggeringParams,
                    model: IndependentActivation, lattice: LatticeConfig) -> AugmentedGraph:
    return AugmentedGraph(graph, params, model, lattice)


def sample_virtual_arm(aug: AugmentedGraph, v: int, j: int, rng):
    """Draw at most one virtual node of strategy j into v's triggering set.

    Inverse-CDF over the cumulative curve: with u uniform, returns the
    smallest i with q(i*delta) > u (an O(log K) bisect), or None with the
    residual probability 1 - q(K*delta).
    """
    t = int(np.searchsorted(aug.model.strategies[v], j))
    strats = aug._strat_py[v]
    if t >= len(strats) or strats[t] != j:
        raise KeyError(f"strategy {j} does not apply to node {v}")
    cum = aug._cum_py[v][t]
    u = (rng.u if isinstance(rng, RandomBuffer) else rng.random)()
    if u >= cum[-1]:
        return None
    return VirtualNodeId(j=j, i=bisect_right(cum, u))


@dataclass
class HybridRRSet:
    root: int
    real_members: np.ndarray
    virtual_members: tuple[VirtualNodeId, ...]


def generate_hybrid_rr_set(aug: AugmentedGraph, root: int, rng) -> HybridRRSet:
    u = rng.u if isinstance(rng, RandomBuffer) else rng.random
    seen, _, virtual = _reverse_reach(aug.graph, aug.params, root, u,
                                      (aug._strat_py, aug._cum_py, aug.steps))
    return HybridRRSet(
        root=root,
        real_members=np.array(sorted(seen), dtype=np.int64),
        virtual_members=tuple(aug.unflat(f) for f in sorted(virtual)),
    )


class HybridCollection:
    """Hybrid RR sets kept only as their virtual-node content.

    Sets without any virtual member can never be covered by a virtual seed;
    they are folded into a counter but remain in theta, keeping the coverage
    estimator unbiased.
    """

    def __init__(self, aug: AugmentedGraph):
        self.aug = aug
        self.n = aug.graph.n
        self.theta = 0
        self.virtual_sets: list[list[int]] = []
        self.index: dict[int, list[int]] = {}

    def extend(self, count: int, rng) -> None:
        if count <= 0:
            return
        buf = rng if isinstance(rng, RandomBuffer) else RandomBuffer(rng)
        base = buf._rng
        u = buf.u
        roots = base.integers(0, self.n, size=count)
        aug = self.aug
        graph, params = aug.graph, aug.params
        arms = (aug._strat_py, aug._cum_py, aug.steps)
        for r in roots:
            _, _, virtual = _reverse_reach(graph, params, int(r), u, arms)
            self.theta += 1
            if virtual:
                si = len(self.virtual_sets)
                flats = sorted(virtual)
                self.virtual_sets.append(flats)
                for f in flats:
                    self.index.setdefault(f, []).append(si)


def generate_hybrid_collection(aug: AugmentedGraph, count: int, rng) -> HybridCollection:
    coll = HybridCollection(aug)
    coll.extend(count, rng)
    return coll


def _greedy_virtual(collection: HybridCollection, constraint) -> tuple[list[int], int]:
    """Max-coverage greedy over virtual nodes.

    Returns (seed flat ids, covered set count).  Stops early once no
    candidate has positive marginal coverage; ties go to the lowest flat id
    (lowest strategy, then lowest increment).
    """
    aug = collection.aug
    steps = aug.steps
    budget = total_steps(constraint)
    counts = {f: len(ids) for f, ids in collection.index.items()}
    covered = bytearray(len(collection.virtual_sets))
    partitioned = isinstance(constraint, PartitionedBudget)
    if partitioned:
        used = [0] * len(constraint.caps)
        group_of = constraint.group_of
    seeds: list[int] = []
    covered_total = 0
    for _ in range(budget):
        best_f = -1
        best_c = 0
        for f, c in counts.items():
            if c > best_c or (c == best_c and c > 0 and (best_f == -1 or f < best_f)):
                if partitioned and used[group_of[f // steps]] >= constraint.caps[group_of[f // steps]]:
                    continue
                best_f = f
                best_c = c
        if best_f < 0 or best_c == 0:
            break
        seeds.append(best_f)
        if partitioned:
            used[group_of[best_f // steps]] += 1
        for si in collection.index[best_f]:
            if not covered[si]:
                covered[si] = 1
                covered_total += 1
                for w in collection.virtual_sets[si]:
                    counts[w] -= 1
    return seeds, covered_total


def _seeds_to_mix(seeds: list[int], steps: int, d: int) -> StrategyMix:
    x = np.zeros(d, dtype=np.int64)
    for f in seeds:
        x[f // steps] += 1
    return StrategyMix(x)


def node_selection_virtual(collection: HybridCollection, lattice: LatticeConfig,
                           constraint) -> StrategyMix:
    """Greedy virtual seed selection followed by prefix conversion: strategy j
    receives one step per selected member of U_j, regardless of arm index."""
    if collection.theta == 0:
        raise EmptyCollectionError("estimate undefined on an empty collection")
    seeds, _ = _greedy_virtual(collection, constraint)
    return _seeds_to_mix(seeds, collection.aug.steps, lattice.d)


def simulate_spread_virtual_seeds(aug: AugmentedGraph, seeds, runs: int,
                                  rng) -> SpreadEstimate:
    """Monte-Carlo spread (real nodes only) of a virtual seed set.

    Forward counterpart of the reverse sampler: every (node, strategy) pair
    draws one arm, the node joins the initial actives iff its arm is seeded,
    then the real cascade runs as usual.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    flat_seeds = {aug.flat(s) if isinstance(s, VirtualNodeId) else int(s) for s in seeds}
    graph = aug.graph
    steps = aug.steps
    buf = RandomBuffer(rng)
    u = buf.u
    strat_py = aug._strat_py
    cum_py = aug._cum_py
    touched = [v for v in range(graph.n) if strat_py[v]]
    spreads = np.empty(runs)
    for r in range(runs):
        initial = []
        for v in touched:
            cums = cum_py[v]
            for t, j in enumerate(strat_py[v]):
                cum = cums[t]
                x = u()
                if x < cum[-1] and (j * steps + bisect_right(cum, x) - 1) in flat_seeds:
                    initial.append(v)
                    break
        spreads[r] = _forward_count(graph, params=aug.params, initial=initial, u=u)
    return _estimate(spreads)


# --- sampling phase and driver ------------------------------------------------

@dataclass
class VsnResult:
    mix: StrategyMix
    collection: HybridCollection | None
    stats: SamplingStats | None


def _sampling_virtual(aug: AugmentedGraph, constraint, imm: ImmParams,
                      rng) -> tuple[HybridCollection, SamplingStats]:
    collection = HybridCollection(aug)
    stats = _imm_stages(
        collection, lambda c: c.n * _greedy_virtual(c, constraint)[1] / c.theta,
        imm, rng)
    return collection, stats


def run_immvsn(graph: DirectedGraph, params: TriggeringParams,
               model: IndependentActivation, lattice: LatticeConfig,
               constraint, imm: ImmParams, rng) -> VsnResult:
    _validate_domain(lattice, constraint)
    if total_steps(constraint) == 0:
        return VsnResult(StrategyMix.zeros(lattice.d), None, None)
    # no force escape hatch here: non-concave curves would give the virtual
    # edges negative weights, so the reduction itself breaks, not just the
    # approximation guarantee
    aug = build_augmented(graph, params, model, lattice)
    collection, stats = _sampling_virtual(aug, constraint, imm, rng)
    mix = node_selection_virtual(collection, lattice, constraint)
    return VsnResult(mix, collection, stats)


def immvsn(graph: DirectedGraph, params: TriggeringParams,
           model: IndependentActivation, lattice: LatticeConfig,
           constraint, imm: ImmParams, rng) -> StrategyMix:
    """End-to-end driver; see :func:`run_immvsn` for the result with stats."""
    return run_immvsn(graph, params, model, lattice, constraint, imm, rng).mix
