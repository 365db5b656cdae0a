"""Reverse-reachable sets and the partial-coverage spread estimator.

An RR set rooted at v collects every node that reaches v in one sampled
live-edge graph.  Classically a seed set either hits an RR set or not; on a
lattice a mix x covers an RR set R only partially, with probability
``1 - prod_{v in R} (1 - h_v(x))``, and averaging that weight over theta
independent RR sets (scaled by n) gives the unbiased estimate of the
expected spread.

Each node's triggering draw happens at most once per RR set: the reverse
BFS expands every member exactly once, which keeps the sample consistent
with a single live-edge graph.  Under IC a member's in-edge coins are one
slice of the uniform stream, in in-edge order, so the draw order is the
same as one scalar draw per edge.  The same BFS kernel also samples the
hybrid RR sets of the virtual-node reduction (``limax.immvsn``), where each
member additionally draws one virtual arm per strategy that applies to it.

A collection stores only its RR sets; the coverage weights and the greedy's
per-strategy entries are whole-array reductions over the frozen members.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .graph import IC, DirectedGraph, TriggeringParams
from .rng import RandomBuffer, draws
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
                   root: int, u, take, arms=None) -> tuple[set[int], int, set[int]]:
    """One reverse BFS over the stream read by ``u`` and ``take``.

    ``u()`` yields one uniform (LT pick, arm draws) and ``take(k)`` a list
    of the next k (a member's IC in-edge coins); see :func:`limax.rng.draws`.
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
            for w, x, p in zip(srcs, take(deg), in_probs[v]):
                if x < p and w not in seen:
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
    seen, width, _ = _reverse_reach(graph, params, root, *draws(rng))
    return RRSet(root=root, members=np.array(sorted(seen), dtype=np.int64), width=width)


class RRCollection:
    """A growing sequence of RR sets.

    The member arrays, frozen into ``concat``/``offsets`` on demand, are the
    collection's only index: :meth:`coverage_weights` reduces over them and
    :meth:`strategy_entries` derives the greedy's per-strategy view from
    them.  Both are cached until theta changes.
    """

    def __init__(self, graph: DirectedGraph, params: TriggeringParams, model):
        self.graph = graph
        self.params = params
        self.model = model
        self.n = graph.n
        self.sets: list[RRSet] = []
        self._concat: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._frozen_count = -1
        self._entries: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._entries_count = -1

    @property
    def theta(self) -> int:
        return len(self.sets)

    def add(self, rr: RRSet) -> None:
        self.sets.append(rr)

    def extend(self, count: int, rng) -> None:
        """Generate ``count`` more RR sets rooted at uniform random nodes."""
        if count <= 0:
            return
        buf = rng if isinstance(rng, RandomBuffer) else RandomBuffer(rng)
        roots = buf._rng.integers(0, self.n, size=count)
        for r in roots:
            self.add(generate_rr_set(self.graph, self.params, int(r), buf))

    def _frozen(self) -> tuple[np.ndarray, np.ndarray]:
        if self._frozen_count != len(self.sets):
            self._concat = np.concatenate([np.empty(0, np.int64)] + [s.members for s in self.sets])
            sizes = np.fromiter((len(s.members) for s in self.sets),
                                dtype=np.int64, count=len(self.sets))
            self._offsets = np.cumsum(sizes) - sizes
            self._frozen_count = len(self.sets)
        return self._concat, self._offsets

    def strategy_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every strategy's (RR set, table row) pairs, read off the members.

        There is one entry per (i, v, j) with v in R_i and j in S_v: ``rr``
        holds i and ``rows`` the row of ``model._flat_tables`` that tabulates
        q[v, j].  Strategy j owns ``bounds[j]:bounds[j + 1]``, ordered by i
        then v.  Needs an independent activation model.
        """
        if self._entries_count != len(self.sets):
            model = self.model
            concat, offsets = self._frozen()
            counts = np.bincount(model._flat_nodes, minlength=self.n)  # rows per node
            per = counts[concat]
            # a member's k-th entry is its node's first row plus k
            first_row = (np.cumsum(counts) - counts)[concat]
            rows = np.repeat(first_row - (np.cumsum(per) - per), per) + np.arange(per.sum())
            sizes = np.diff(offsets, append=len(concat))
            rr = np.repeat(np.repeat(np.arange(len(offsets)), sizes), per)
            strat = model._flat_strats[rows]
            order = np.argsort(strat, kind="stable")
            bounds = np.concatenate(
                ([0], np.cumsum(np.bincount(strat, minlength=model.lattice.d))))
            self._entries = (rr[order], rows[order], bounds)
            self._entries_count = len(self.sets)
        return self._entries

    def coverage_weights(self, h_all: np.ndarray) -> np.ndarray:
        """Per-RR-set partial coverage 1 - prod_{v in R} (1 - h_v)."""
        concat, offsets = self._frozen()
        return 1.0 - np.multiply.reduceat(1.0 - h_all[concat], offsets)


def generate_collection(graph: DirectedGraph, params: TriggeringParams,
                        model, count: int, rng) -> RRCollection:
    """Fresh collection of ``count`` RR sets rooted at uniform random nodes."""
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
    """Binary dump of roots, widths and the frozen member arrays."""
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
    if not len(roots) == len(widths) == len(offsets):
        raise ValueError(f"{len(roots)} roots, {len(widths)} widths and {len(offsets)} offsets")
    if len(members) and (members.min() < 0 or members.max() >= graph.n):
        raise ValueError(f"collection has a member id outside [0, {graph.n})")
    bounds = np.concatenate((offsets, [len(members)])).astype(np.int64)
    if bounds[0] != 0 or np.any(np.diff(bounds) < 0):
        raise ValueError(f"offsets must rise from 0 to at most {len(members)} members")
    coll = RRCollection(graph, params, model)
    for root, part, width in zip(roots.tolist(), np.split(members, bounds[1:-1]), widths.tolist()):
        coll.add(RRSet(root=root, members=part, width=width))
    return coll
