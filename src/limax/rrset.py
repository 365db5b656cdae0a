"""Reverse-reachable sets and the partial-coverage spread estimator.

An RR set rooted at v collects every node that reaches v in one sampled
live-edge graph.  Classically a seed set either hits an RR set or not; on a
lattice a mix x covers an RR set R only partially, with probability
``1 - prod_{v in R} (1 - h_v(x))``, and averaging that weight over theta
independent RR sets (scaled by n) gives the unbiased estimate of the
expected spread.

Each node's triggering draw happens at most once per RR set: the reverse
BFS expands every member exactly once, which keeps the sample consistent
with a single live-edge graph.  The same BFS kernel also samples the hybrid
RR sets of the virtual-node reduction (``limax.immvsn``), where each member
additionally draws one virtual arm per strategy that applies to it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .graph import IC, DirectedGraph, TriggeringParams
from .rng import RandomBuffer
from .strategy import as_steps

__all__ = [
    "RRSet",
    "RRCollection",
    "EmptyCollectionError",
    "generate_rr_set",
    "generate_collection",
    "g_hat",
    "save_collection",
    "load_collection",
]

FORMAT_VERSION = 1


class EmptyCollectionError(ValueError):
    """Spread estimate requested from a collection with no RR sets."""


@dataclass
class RRSet:
    root: int
    members: np.ndarray  # sorted node ids, always contains root
    width: int           # total in-degree over members (generation-cost proxy)


def _reverse_reach(graph: DirectedGraph, params: TriggeringParams,
                   root: int, u, arms=None) -> tuple[set[int], int, set[int]]:
    """One reverse BFS; `u` is a nullary callable yielding uniforms.

    With ``arms = (strategies, cum_tables, steps)`` the set is a hybrid RR
    set: every popped node first draws one virtual arm per applicable
    strategy, then its in-edges.  Returns (members, width, virtual flat ids).
    """
    in_py = graph._in_py
    seen = {root}
    stack = [root]
    width = 0
    virtual: set[int] = set()
    ic = params.kind == IC
    in_probs = params._in_py
    lt_cum = params._lt_cum
    strat_py, cum_py, steps = arms if arms is not None else (None, None, 0)
    while stack:
        v = stack.pop()
        if cum_py is not None:
            for t, cum in enumerate(cum_py[v]):
                x = u()
                if x < cum[-1]:
                    virtual.add(strat_py[v][t] * steps + bisect_right(cum, x) - 1)
        srcs = in_py[v]
        deg = len(srcs)
        width += deg
        if not deg:
            continue
        if ic:
            probs = in_probs[v]
            for t in range(deg):
                if u() < probs[t]:
                    w = srcs[t]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        else:
            t = bisect_right(lt_cum[v], u())
            if t < deg:
                w = srcs[t]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen, width, virtual


def generate_rr_set(graph: DirectedGraph, params: TriggeringParams,
                    root: int, rng) -> RRSet:
    """Sample the RR set rooted at ``root``."""
    u = rng.u if isinstance(rng, RandomBuffer) else rng.random
    seen, width, _ = _reverse_reach(graph, params, root, u)
    return RRSet(root=root, members=np.array(sorted(seen), dtype=np.int64), width=width)


class RRCollection:
    """A growing sequence of RR sets with inverted indexes.

    ``node_index[v]`` lists the RR-set ids containing v.  For independent
    activation models, ``strategy_lists[j]`` holds the (rr_id, node) pairs
    with ``v in R_i and j in S_v``, ordered by rr_id then node: the greedy
    update pass walks these lists instead of all RR sets.  Both indexes are
    filled while sets are generated.
    """

    def __init__(self, graph: DirectedGraph, params: TriggeringParams, model):
        self.graph = graph
        self.params = params
        self.model = model
        self.n = graph.n
        self.sets: list[RRSet] = []
        self.node_index: list[list[int]] = [[] for _ in range(graph.n)]
        self._independent = getattr(model, "kind", None) == "independent"
        if self._independent:
            self.strategy_lists: list[tuple[list[int], list[int]] | None] = [None] * model.lattice.d
            self._strat_py = [s.tolist() for s in model.strategies]
        else:
            self.strategy_lists = []
            self._strat_py = None
        self._concat: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._frozen_count = 0

    @property
    def theta(self) -> int:
        return len(self.sets)

    def add(self, rr: RRSet) -> None:
        i = len(self.sets)
        self.sets.append(rr)
        node_index = self.node_index
        if self._independent:
            strategies = self._strat_py
            lists = self.strategy_lists
            for v in rr.members.tolist():
                node_index[v].append(i)
                for j in strategies[v]:
                    slot = lists[j]
                    if slot is None:
                        slot = lists[j] = ([], [])
                    slot[0].append(i)
                    slot[1].append(v)
        else:
            for v in rr.members.tolist():
                node_index[v].append(i)

    def extend(self, count: int, rng) -> None:
        """Generate ``count`` more RR sets rooted at uniform random nodes."""
        if count <= 0:
            return
        buf = rng if isinstance(rng, RandomBuffer) else RandomBuffer(rng)
        base = buf._rng
        roots = base.integers(0, self.n, size=count)
        for r in roots:
            self.add(generate_rr_set(self.graph, self.params, int(r), buf))

    def _frozen(self) -> tuple[np.ndarray, np.ndarray]:
        if self._frozen_count != len(self.sets):
            if self.sets:
                self._concat = np.concatenate([s.members for s in self.sets])
                sizes = np.fromiter((len(s.members) for s in self.sets),
                                    dtype=np.int64, count=len(self.sets))
                self._offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            else:
                self._concat = np.empty(0, dtype=np.int64)
                self._offsets = np.empty(0, dtype=np.int64)
            self._frozen_count = len(self.sets)
        return self._concat, self._offsets

    def coverage_weights(self, h_all: np.ndarray) -> np.ndarray:
        """Per-RR-set partial coverage 1 - prod_{v in R} (1 - h_v)."""
        concat, offsets = self._frozen()
        if not len(self.sets):
            return np.empty(0)
        return 1.0 - np.multiply.reduceat(1.0 - h_all[concat], offsets)


def generate_collection(graph: DirectedGraph, params: TriggeringParams,
                        model, count: int, rng) -> RRCollection:
    """Fresh collection of ``count`` RR sets with indexes built on the fly."""
    if count < 0:
        raise ValueError("count must be >= 0")
    coll = RRCollection(graph, params, model)
    coll.extend(count, rng)
    return coll


def g_hat(collection: RRCollection, model, x) -> float:
    """Partial-coverage spread estimate of mix x over the collection."""
    if collection.theta == 0:
        raise EmptyCollectionError("estimate undefined on an empty collection")
    steps = as_steps(x)
    weights = collection.coverage_weights(model.h_all(steps))
    return collection.n / collection.theta * float(weights.sum())


def save_collection(collection: RRCollection, path) -> None:
    """Binary dump for reproducible debugging (indexes are rebuilt on load)."""
    concat, offsets = collection._frozen()
    np.savez_compressed(
        path,
        version=np.int64(FORMAT_VERSION),
        n=np.int64(collection.n),
        roots=np.array([s.root for s in collection.sets], dtype=np.int64),
        widths=np.array([s.width for s in collection.sets], dtype=np.int64),
        members=concat,
        offsets=offsets,
    )


def load_collection(path, graph: DirectedGraph, params: TriggeringParams,
                    model) -> RRCollection:
    with np.load(path) as data:
        version = int(data["version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported collection format version {version}")
        if int(data["n"]) != graph.n:
            raise ValueError("collection was dumped for a different graph size")
        roots = data["roots"]
        widths = data["widths"]
        members = data["members"]
        offsets = data["offsets"]
    coll = RRCollection(graph, params, model)
    bounds = np.concatenate((offsets, [len(members)])).astype(np.int64)
    for t in range(len(roots)):
        coll.add(RRSet(root=int(roots[t]),
                       members=members[bounds[t]:bounds[t + 1]].copy(),
                       width=int(widths[t])))
    return coll
