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
but still count in the estimator's denominator.  A hybrid RR set is an RR
set whose every member v also draws, for each strategy j in S_v, the
virtual in-neighbor u[j,i] with probability equal to its edge weight
(inverse CDF over q[v,j], so at most one per strategy).  A virtual node
has no in-edges, so its arms never extend the reverse search:
``HybridCollection`` draws them through ``AugmentedGraph.draw_arms`` once
per batch of the reverse-reach kernel of ``limax.rrset``, after the batch's
coins, which leaves each set's distribution, and with it the IMM sampling
argument (Tang, Shi, Xiao, SIGMOD 2015), unchanged.  A collection keeps one
(set id, virtual flat id) pair per distinct virtual member, in two sorted
arrays, deduplicated by sorting their packed int64 keys.  The greedy counts
the sets of every flat id in one array, groups the sets by flat id with one
sort of the packed keys ``flat * theta + set``, and subtracts each newly
covered set's members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budgets import PartitionedBudget, total_steps
from .graph import DirectedGraph, TriggeringParams
from .immprr import (ImmParams, InvalidModelError, SamplingStats,
                     _imm_stages, _validate_domain)
from .oracles import SpreadEstimate, _cascades, _estimate
from .rng import child
from .rrset import (_EDGE_CHUNK, _NONE, EmptyCollectionError, _distinct,
                    _reverse_reach, _slots)
from .strategy import (IndependentActivation, LatticeConfig, StrategyMix,
                       validate_model)

__all__ = [
    "VirtualNodeId",
    "AugmentedGraph",
    "HybridCollection",
    "build_augmented",
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
    double as the per-(v, j) edge-weight prefix sums: the weight of
    u[j,i] -> v is ``np.diff`` of the (v, j) table row.  Virtual node u[j,i] has
    the flat id ``j * steps + i - 1``, below ``span = d * steps``; this
    class alone encodes and decodes that layout, both when it draws arms
    (:meth:`draw_arms`, per kernel batch in ``HybridCollection`` and per
    batch of runs in the virtual-seed simulation) and when it maps a
    :class:`VirtualNodeId` (:meth:`flat`).  ``lattice`` must be the model's
    own lattice.
    """

    def __init__(self, graph: DirectedGraph, params: TriggeringParams,
                 model: IndependentActivation, lattice: LatticeConfig):
        if getattr(model, "kind", None) != "independent":
            raise InvalidModelError("virtual-node reduction needs independent activation")
        if lattice != model.lattice:
            raise ValueError(f"lattice {lattice} differs from the model's {model.lattice}")
        if model.n != graph.n:
            raise ValueError(f"model over {model.n} nodes for a graph of {graph.n}")
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
        self.span = lattice.d * self.steps

    def draw_arms(self, nodes: np.ndarray, rng: np.random.Generator):
        """One uniform per table row (v, j) of each of ``nodes``, in the
        order ``model.rows`` lists them; the arm is the smallest i with
        q[v, j](i) above it, or none at or above q[v, j](K).  Returns, per
        arm that fires, the index of its node in ``nodes`` and its flat id."""
        tables = self.model._flat_tables
        pair, rows = self.model.rows(nodes)
        x = rng.random(len(rows))
        fire = np.flatnonzero(x < tables[rows, -1])
        rows, x = rows[fire], x[fire]
        lo = rows * (self.steps + 1)
        # q[v, j](0) = 0 <= x < q[v, j](K): the slot in v's row is the arm i, in [1, K]
        i = _slots(tables.ravel(), lo, lo + self.steps + 1, x) - lo
        return pair[fire], self.model._flat_strats[rows] * self.steps + i - 1

    def flat(self, node: VirtualNodeId) -> int:
        """The flat id j * K + i - 1 of ``node``.  An i outside [1, K] or a
        j outside [0, d) would alias another node's id and is a
        ``ValueError``, with the message of an out-of-range flat seed."""
        if not (1 <= node.i <= self.steps and 0 <= node.j < self.lattice.d):
            raise ValueError(f"virtual seed outside flat ids [0, {self.span})")
        return node.j * self.steps + (node.i - 1)


def build_augmented(graph: DirectedGraph, params: TriggeringParams,
                    model: IndependentActivation, lattice: LatticeConfig) -> AugmentedGraph:
    return AugmentedGraph(graph, params, model, lattice)


class HybridCollection:
    """Hybrid RR sets kept only as their virtual-node content.

    ``vsets`` and ``flats`` list one (set id, virtual flat id) pair per
    distinct virtual node of a set, sorted by set, then flat id; each
    ``extend`` appends its sets with global set ids.  :meth:`_sample` draws
    the arms of a kernel batch's members after its coins, which is exact
    because virtual nodes have no in-edges.  Sets without any virtual
    member can never be covered by a virtual seed: they hold no pair but
    remain in theta, keeping the coverage estimator unbiased.
    """

    def __init__(self, aug: AugmentedGraph):
        self.aug = aug
        self.n = aug.graph.n
        self.theta = 0
        self.vsets = _NONE
        self.flats = _NONE

    @property
    def virtual_sets(self) -> list[list[int]]:
        """The flat ids of every set that holds a virtual node, in set order."""
        bounds = np.flatnonzero(np.diff(self.vsets, prepend=-1)).tolist() + [len(self.vsets)]
        flats = self.flats.tolist()
        return [flats[a:b] for a, b in zip(bounds, bounds[1:])]

    def _sample(self, roots: np.ndarray, rng: np.random.Generator) -> None:
        """Append the hybrid RR sets rooted at ``roots``, in order: each kernel
        batch's members draw their arms, ``_EDGE_CHUNK`` members per call."""
        aug, span = self.aug, self.aug.span
        vsets, flats = [self.vsets], [self.flats]
        for sets, nodes in _reverse_reach(aug.graph, aug.params, roots, rng):
            keys = [_NONE]
            for a in range(0, len(nodes), _EDGE_CHUNK):
                pair, ids = aug.draw_arms(nodes[a:a + _EDGE_CHUNK], rng)
                keys.append(sets[a + pair] * span + ids)
            v, f = np.divmod(_distinct(np.concatenate(keys)), span)
            vsets.append(v + self.theta)
            flats.append(f)
        self.vsets = np.concatenate(vsets)
        self.flats = np.concatenate(flats)
        self.theta += len(roots)

    def extend(self, count: int, rng: np.random.Generator) -> None:
        """Generate ``count`` more hybrid RR sets rooted at uniform random
        nodes: the roots come from ``rng``, every other draw from its child."""
        if count > 0:
            roots = rng.integers(0, self.n, size=count)
            self._sample(roots, child(rng))


def generate_hybrid_collection(aug: AugmentedGraph, count: int, rng) -> HybridCollection:
    coll = HybridCollection(aug)
    coll.extend(count, rng)
    return coll


def _greedy_virtual(collection: HybridCollection, constraint) -> tuple[list[int], int]:
    """Max-coverage greedy over virtual nodes.

    Returns (seed flat ids, covered set count).  Stops early once no
    candidate has positive marginal coverage; ties go to the lowest flat id
    (lowest strategy, then lowest increment).  Each pick subtracts the
    newly covered sets' members from a count array over all d * K flat ids;
    under a partitioned budget the flat ids of exhausted groups are masked.
    """
    steps, span = collection.aug.steps, collection.aug.span
    vsets, flats = collection.vsets, collection.flats
    counts = np.bincount(flats, minlength=span)
    theta = collection.theta  # at least 1: callers never select on an empty collection
    set_ptr = np.concatenate(([0], np.cumsum(np.bincount(vsets, minlength=theta))))
    # each flat id's sets, in rising order: one sort of keys flat * theta +
    # set, each below d * K * theta, in place of a stable argsort of flats
    by_flat = np.sort(flats * theta + vsets) % theta
    flat_ptr = np.concatenate(([0], np.cumsum(counts)))
    covered = np.zeros(theta, dtype=bool)
    partitioned = isinstance(constraint, PartitionedBudget)
    if partitioned:
        used = np.zeros(len(constraint.caps), dtype=np.int64)
        caps = np.asarray(constraint.caps)
        group_of = np.repeat(constraint.group_of, steps)  # per flat id
    seeds: list[int] = []
    covered_total = 0
    for _ in range(total_steps(constraint)):
        score = np.where(used[group_of] < caps[group_of], counts, 0) if partitioned else counts
        best = int(np.argmax(score))
        if score[best] <= 0:
            break
        seeds.append(best)
        if partitioned:
            used[group_of[best]] += 1
        sets = by_flat[flat_ptr[best]:flat_ptr[best + 1]]
        sets = sets[~covered[sets]]
        covered[sets] = True
        covered_total += len(sets)
        lo = set_ptr[sets]
        size = set_ptr[sets + 1] - lo
        ends = np.cumsum(size)
        np.subtract.at(counts, flats[np.repeat(lo - (ends - size), size)
                                     + np.arange(size.sum())], 1)
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
    draws one arm, the node joins the initial actives iff one of its arms
    is seeded, then the real cascade runs as usual.  A batch of runs draws
    its arms as one block, run-major, each run in the row order of
    ``model._flat_tables``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    graph, model, span = aug.graph, aug.model, aug.span
    flats = np.array([aug.flat(s) if isinstance(s, VirtualNodeId) else int(s)
                      for s in seeds], dtype=np.int64)
    if np.any((flats < 0) | (flats >= span)):
        raise ValueError(f"virtual seed outside flat ids [0, {span})")
    seeded = np.zeros(span, dtype=bool)
    seeded[flats] = True
    touched = np.flatnonzero(np.diff(model._indptr))  # the nodes with rows
    rng = child(rng)

    def seed_keys(size):
        pair, flats = aug.draw_arms(np.tile(touched, size), rng)
        pair = pair[seeded[flats]]
        return _distinct(touched[pair % len(touched)] * size + pair // len(touched))

    return _estimate(_cascades(graph, aug.params, runs, len(model._flat_nodes),
                               seed_keys, rng))


# --- sampling phase and driver ------------------------------------------------

@dataclass
class VsnResult:
    mix: StrategyMix
    collection: HybridCollection | None
    stats: SamplingStats | None


def _sampling_virtual(aug: AugmentedGraph, constraint, imm: ImmParams, rng):
    """The IMM sampling phase on hybrid RR sets; also returns the last
    stage's seeds when the final greedy would repeat them, else None."""
    collection = HybridCollection(aug)

    def stage_select(c):
        seeds, covered = _greedy_virtual(c, constraint)
        return c.n * covered / c.theta, seeds

    stats, seeds = _imm_stages(collection, stage_select, imm, rng)
    return collection, stats, seeds


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
    collection, stats, seeds = _sampling_virtual(aug, constraint, imm, rng)
    mix = node_selection_virtual(collection, lattice, constraint) if seeds is None \
        else _seeds_to_mix(seeds, aug.steps, lattice.d)
    return VsnResult(mix, collection, stats)


def immvsn(graph: DirectedGraph, params: TriggeringParams,
           model: IndependentActivation, lattice: LatticeConfig,
           constraint, imm: ImmParams, rng) -> StrategyMix:
    """End-to-end driver; see :func:`run_immvsn` for the result with stats."""
    return run_immvsn(graph, params, model, lattice, constraint, imm, rng).mix
