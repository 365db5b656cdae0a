"""Reverse-reachable sets and the partial-coverage spread estimator.

An RR set rooted at v collects every node that reaches v in one sampled
live-edge graph.  Classically a seed set either hits an RR set or not; on a
lattice a mix x covers an RR set R only partially, with probability
``1 - prod_{v in R} (1 - h_v(x))``, and averaging that weight over theta
independent RR sets (scaled by n) gives the unbiased estimate of the
expected spread.

Each node's triggering draw happens at most once per RR set: the reverse
search expands every member exactly once, which keeps the sample consistent
with a single live-edge graph.  One batched kernel (``_reverse_reach``)
draws many RR sets at once: it expands the newly reached (node, set) pairs
of every set in a batch together, one BFS level per step, over whole-array
in-edge views of the graph (``TriggeringParams._csr``).  Under LT each
expanded pair draws one uniform if its node has in-edges.  Under IC each
pair draws one uniform per in-edge, except the pairs of nodes that
``TriggeringParams._skip`` flags: nodes of in-degree at least
``graph._SKIP_DEGREE`` whose in-edges share one probability p, 0 < p < 1.
Those draw geometric gaps between live in-edges, so a weighted-cascade hub
of in-degree d costs about two uniforms, not d.  Within a step, the coin
pairs draw first, then the gap rounds, one uniform per pair still inside
its row per round, and after ``_SKIP_ROUNDS`` rounds one coin per in-edge
left in those rows.  The draws come straight from the generator, level by
level, so a set's draws are interleaved with those of the other sets in its
batch.  A visited bitmap per batch and a cap on the pairs and in-edges
expanded per step bound its memory.  The same kernel also samples the
hybrid RR sets of the virtual-node reduction (``limax.immvsn``), whose
arms are drawn per batch, after the batch's coins and before the next
batch's: a virtual node has no in-edges, so its arms never extend the
reverse search.  The kernel yields each batch's members as (set ids,
nodes) in level order; ``RRCollection`` sorts them by the int64 key
``set * n + node``, and the hybrid collection deduplicates its packed arm
keys with one sort and a neighbour-inequality mask (``_distinct``), as
each BFS level does with its reached keys.  Its level loop (``_reach``)
and IC coin step (``_live_edges``, never gaps) also run the forward IC
cascades of ``limax.oracles``: forward IC reach is reverse reach on the
transposed graph, from several roots per run.  The LT picks in both
directions, the reverse kernel's scattered pairs and the forward cascades'
block of (node, run) picks, go through one exact guide-table search
(``graph._lt_picks``): a multiply and a gather find the pick's bucket in a
table built once per parameter object, then a fixed number of
branch-free steps reach the slot a binary search would find.  The arm
draws keep the binary search (``graph._slots``), where a guide table
gained nothing.  Either way every uniform stays where it was drawn.

Most level steps are small, so their fixed cost counts: a level that fits
one step takes its CSR rows whole and is the next frontier as it is, bits
come from an 8-entry table, and IC without skip flags gathers none.

A collection holds its RR sets in flat arrays that only grow (members,
offsets, roots), appended straight from the kernel's batches.  The set
widths, the coverage weights and the greedy's per-strategy entries are
whole-array reductions over the members, and the entries extend over new
sets only: one scatter puts each strategy's new entries after its old ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import IC, DirectedGraph, TriggeringParams, _indptr, _lt_picks
from .rng import child
from .strategy import _check_fit, as_steps

__all__ = [
    "RRSet",
    "RRCollection",
    "EmptyCollectionError",
    "generate_collection",
    "g_hat",
]


class EmptyCollectionError(ValueError):
    """Spread estimate requested from a collection with no RR sets."""


@dataclass
class RRSet:
    root: int
    members: np.ndarray  # sorted node ids, always contains root
    width: int           # total in-degree over members (generation-cost proxy)


# fixed memory caps of the batched kernel (internal, not options)
_MARK_BYTES = 1 << 23  # visited bitmap per batch: one bit per (node, set)
_EDGE_CHUNK = 1 << 17  # pairs, and their in-edges, expanded per vectorized step
_SKIP_ROUNDS = 16      # geometric-gap rounds per step before the coins take over

_NONE = np.empty(0, np.int64)
_BIT = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)  # key k: bit _BIT[k & 7] of byte k >> 3


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the int64 array ``keys``: one sort and
    a neighbour-inequality mask; ``keys`` is sorted in place.  ``np.unique``
    on a plain int64 array takes a hash-table path that is 35-40x slower
    than this sort."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _mark(marks: np.ndarray, keys: np.ndarray) -> None:
    """Set the bits of ``keys`` in the bitmap ``marks``."""
    np.bitwise_or.at(marks, keys >> 3, _BIT[keys & 7])


def _edge_chunks(lo: np.ndarray, hi: np.ndarray, local: np.ndarray):
    """The CSR positions ``lo[i]:hi[i]`` of every row i, in row order, then
    position order, at most ``_EDGE_CHUNK`` per step: ``(pos, pair)``, where
    position ``pos[k]`` lies in row i and ``pair[k]`` is ``local[i]``."""
    deg = hi - lo
    ends = deg.cumsum()
    shift = hi - ends  # row i's positions are shift[i] + its step offsets
    total = int(ends[-1]) if len(ends) else 0
    for c0 in range(0, total, _EDGE_CHUNK):
        c1 = min(c0 + _EDGE_CHUNK, total)
        if c1 - c0 == total:  # one step: every row whole, no boundary search
            a, z, take = 0, len(deg), deg
        else:
            a = ends.searchsorted(c0, side="right")
            z = ends.searchsorted(c1) + 1
            take = np.minimum(ends[a:z], c1) - np.maximum(ends[a:z] - deg[a:z], c0)
        pos = shift[a:z].repeat(take)
        pos += np.arange(c0, c1)
        yield pos, local[a:z].repeat(take)


def _live_edges(csr, lo: np.ndarray, hi: np.ndarray, local: np.ndarray,
                sets: int, rng: np.random.Generator):
    """Keys ``end * sets + set`` of the live edges at the positions
    ``lo[k]:hi[k]`` of the IC graph ``csr = (indptr, ends, probs)``, for
    set ``local[k]``, one array per step of :func:`_edge_chunks`: each
    edge draws one uniform and is live below its probability."""
    _, ends, probs = csr
    for pos, pair in _edge_chunks(lo, hi, local):
        live = (rng.random(len(pos)) < probs[pos]).nonzero()[0]
        keys = ends[pos[live]]
        keys *= sets
        yield np.add(keys, pair[live], out=keys)


def _skip_edges(csr, shared: np.ndarray, nodes: np.ndarray, local: np.ndarray,
                sets: int, rng: np.random.Generator):
    """Keys ``source * sets + set`` of the live in-edges of the pairs
    (``nodes``, ``local``), whose nodes' in-edges all share the probability
    ``shared[node]``, 0 < p < 1.

    Instead of one coin per in-edge, each round draws one uniform per pair
    still inside its in-edge row and turns it into a Geometric(p) gap,
    ``floor(log(1 - u) / log(1 - p)) + 1``, to the pair's next live
    in-edge; a pair leaves once its gap passes the end of its row.  After
    ``_SKIP_ROUNDS`` rounds, the pairs still inside draw one coin per
    in-edge left in their row (see :func:`_live_edges`, whose probability
    of each such in-edge is p exactly), which bounds the rounds when
    p * in-degree is large.  Either way each in-edge is live independently
    with probability p, as under the coins.  Yields one array per round,
    then per coin step.
    """
    indptr, src, _ = csr
    pos = indptr[nodes] - 1  # the pair's last live in-edge, or one before its row
    end = indptr[1:][nodes]
    rate = np.log1p(-shared[nodes])
    pair = local
    for _ in range(_SKIP_ROUNDS):
        # a gap past the row's end is clipped to it before the integer cast
        gap = np.minimum(np.log1p(-rng.random(len(pair))) / rate, end - pos)
        pos = pos + 1 + gap.astype(np.int64)
        live = pos < end
        pair, pos, end, rate = pair[live], pos[live], end[live], rate[live]
        yield src[pos] * sets + pair
        if not len(pair):
            return
    yield from _live_edges(csr, pos + 1, end, pair, sets, rng)


def _live_in_edges(params: TriggeringParams, nodes: np.ndarray, local: np.ndarray,
                   sets: int, rng: np.random.Generator):
    """Keys ``source * sets + set`` of the live in-edges of the pairs
    (``nodes``, ``local``).  IC draws one uniform per in-edge (see
    :func:`_live_edges`), except that the pairs of nodes flagged in
    ``params._skip`` draw geometric gaps between live in-edges (see
    :func:`_skip_edges`) after all other pairs have drawn their coins.  LT
    draws one uniform per pair whose node has in-edges and takes its slot
    among the node's running weight sums (see :func:`limax.graph._lt_picks`),
    or no in-edge past the last one."""
    csr = params._csr
    lo = csr[0][nodes]
    hi = csr[0][1:][nodes]
    if params.kind == IC:
        flag, shared = params._skip
        skip = flag[nodes]
        if not skip.any():
            yield from _live_edges(csr, lo, hi, local, sets, rng)
            return
        coin = ~skip
        if coin.any():
            yield from _live_edges(csr, lo[coin], hi[coin], local[coin], sets, rng)
        yield from _skip_edges(csr, shared, nodes[skip], local[skip], sets, rng)
        return
    has = np.flatnonzero(hi > lo)  # pairs without in-edges draw nothing
    nodes = nodes[has]
    pick = _lt_picks(params, nodes, rng.random(len(has)))
    hit = pick != nodes
    yield pick[hit] * sets + local[has[hit]]


def _reach(marks: np.ndarray, frontier: np.ndarray, expand):
    """Breadth-first search over keys, one level per vectorized step.

    Starts from the sorted, distinct keys ``frontier`` and yields the keys
    it reaches, each once, in arrays whose concatenation lists them level
    by level: first ``frontier``, then one sorted array per step.
    ``expand(keys)`` yields candidate keys for up to ``_EDGE_CHUNK`` keys of
    a level, one step at a time; a candidate is kept once, if its bit in
    the bitmap ``marks`` is clear, and its bit is then set.  A level's
    arrays, in step order, are the next frontier, and ``expand`` sees every
    yielded key once.  The caller clears ``marks`` afterwards.
    """
    _mark(marks, frontier)
    yield frontier
    while len(frontier):
        fresh = []
        for s0 in range(0, len(frontier), _EDGE_CHUNK):
            for cand in expand(frontier[s0:s0 + _EDGE_CHUNK]):
                # a key reached twice in one level is kept once
                cand = _distinct(cand[(marks[cand >> 3] & _BIT[cand & 7]) == 0])
                _mark(marks, cand)
                fresh.append(cand)
                yield cand
        frontier = fresh[0] if len(fresh) == 1 else np.concatenate([_NONE, *fresh])


def _reverse_reach(graph: DirectedGraph, params: TriggeringParams,
                   roots: np.ndarray, rng: np.random.Generator):
    """Reverse BFS from many roots at once, one level per vectorized step.

    Set i is rooted at ``roots[i]``.  Roots go in batches whose visited
    bitmap fits ``_MARK_BYTES``, so a node is expanded at most once per
    set.  Level by level (see :func:`_reach`), a batch expands the
    (node, set) pairs reached in the level before, ``_EDGE_CHUNK`` pairs
    and in-edges at a time (see :func:`_live_in_edges`).  Pairs are keyed
    ``node * sets + set`` within a batch of ``sets`` roots, so a sorted
    level lists each node's pairs together and the in-edge gathers stay
    local.

    Yields ``(sets, nodes)`` per batch: the set id and node of each of its
    members, once each, level by level.  A batch's draws all come before
    the next batch's, so a caller may draw more per batch (the hybrid arms
    of ``limax.immvsn``) between them.
    """
    n = graph.n
    count = len(roots)
    per_batch = max(1, min(count, 8 * _MARK_BYTES // max(n, 1)))
    marks = np.zeros(per_batch * n // 8 + 1, dtype=np.uint8)
    csr = params._csr
    coins = params.kind == IC and not params._skip[0].any()  # then no level gathers flags
    for b0 in range(0, count, per_batch):
        size = min(per_batch, count - b0)

        def expand(keys):
            nodes, local = np.divmod(keys, size)
            if coins:
                return _live_edges(csr, csr[0][nodes], csr[0][1:][nodes], local, size, rng)
            return _live_in_edges(params, nodes, local, size, rng)

        frontier = np.sort(roots[b0:b0 + size] * size + np.arange(size))
        keys = np.concatenate(list(_reach(marks, frontier, expand)))
        marks[keys >> 3] = 0
        nodes = keys // size  # floor division by a scalar beats np.divmod here
        keys -= nodes * size
        keys += b0
        yield keys, nodes


def _flushed(name: str) -> property:
    """A read-only attribute that first takes in the sets buffered by ``add``."""
    return property(lambda self: (self._flush(), getattr(self, name))[1])


class RRCollection:
    """A growing sequence of RR sets in flat, append-only, read-only arrays:
    set i has root ``roots[i]`` and sorted members
    ``members[offsets[i]:offsets[i + 1]]``.  :meth:`extend` appends the
    kernel's batches; :meth:`add` buffers a set's root and members until
    the next read.  ``widths`` and ``sets`` (:class:`RRSet` views) are
    computed from these on each read, never by the solvers.
    """

    members = _flushed("_members")
    offsets = _flushed("_offsets")
    roots = _flushed("_roots")

    def __init__(self, graph: DirectedGraph, params: TriggeringParams, model):
        if model is not None:  # a bare set store needs none
            _check_fit(graph.n, model, model.lattice)
        self.graph = graph
        self.params = params
        self.model = model
        self.n = graph.n
        self._members = self._roots = _NONE
        self._offsets = np.zeros(1, dtype=np.int64)
        self._pending: list[RRSet] = []
        self._entries, self._entries_count = None, 0

    @property
    def theta(self) -> int:
        return len(self._offsets) - 1 + len(self._pending)

    @property
    def widths(self) -> np.ndarray:
        """Each set's width: the in-degree summed over its members."""
        deg = self.graph.in_degrees()[self.members]
        return np.add.reduceat(deg, self._offsets[:-1]) if self.theta else _NONE

    @property
    def sets(self) -> tuple[RRSet, ...]:
        bounds = self.offsets.tolist()
        return tuple(RRSet(r, self._members[a:b], w) for r, a, b, w in
                     zip(self._roots.tolist(), bounds, bounds[1:], self.widths.tolist()))

    def add(self, rr: RRSet) -> None:
        self._pending.append(rr)

    def _flush(self) -> None:
        if self._pending:
            sets, self._pending = self._pending, []
            self._append([s.members for s in sets], np.array([len(s.members) for s in sets]),
                         [s.root for s in sets])

    def _append(self, members: list, sizes: np.ndarray, roots) -> None:
        """Append sets by member arrays, sizes and roots."""
        self._members = np.concatenate([self._members, *members])
        self._offsets = np.concatenate((self._offsets, self._offsets[-1] + np.cumsum(sizes)))
        self._roots = np.concatenate((self._roots, roots))
        for a in (self._members, self._offsets, self._roots):
            a.flags.writeable = False

    def _sample(self, roots: np.ndarray, gen: np.random.Generator) -> None:
        """Append the RR sets rooted at ``roots``, in order, after any
        buffered ones; a ``ValueError`` names the first root outside [0, n)."""
        bad = np.flatnonzero((roots < 0) | (roots >= self.n))
        if len(bad):
            raise ValueError(f"root {roots[bad[0]]} outside [0, {self.n})")
        self._flush()
        n, parts = self.n, []
        for sets, nodes in _reverse_reach(self.graph, self.params, roots, gen):
            keys = np.sort(sets * n + nodes)
            sets = keys // n
            nodes = keys - sets * n
            starts = np.flatnonzero(np.diff(sets, prepend=-1))  # every set holds its root
            parts.append((nodes, np.diff(starts, append=len(nodes))))
        members, sizes = zip(*parts)
        self._append(members, np.concatenate(sizes), roots)

    def extend(self, count: int, rng: np.random.Generator) -> None:
        """Generate ``count`` more RR sets rooted at uniform random nodes:
        the roots come from ``rng``, every other draw from its child."""
        if count > 0:
            roots = rng.integers(0, self.n, size=count)
            self._sample(roots, child(rng))

    def strategy_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every strategy's (RR set, table row) pairs, read off the members.

        There is one entry per (i, v, j) with v in R_i and j in S_v: ``rr``
        holds i and ``rows`` the row of ``model._flat_tables`` that tabulates
        q[v, j], as ``model.rows`` expands the members.  Strategy j owns
        ``bounds[j]:bounds[j + 1]``, ordered by i then v.  Needs an
        independent activation model.  A call builds the entries of the
        sets added since the last one only, and scatters them to their
        destinations in the merged arrays.
        """
        offsets, done = self.offsets, self._entries_count
        if self._entries is None or done < len(offsets) - 1:
            model, d = self.model, self.model.lattice.d
            sizes = np.diff(offsets[done:])
            pair, rows = model.rows(self._members[offsets[done]:])
            rr = np.repeat(np.arange(done, done + len(sizes)), sizes)[pair]
            strat = model._flat_strats[rows]
            # the narrowest key dtype: numpy sorts uint8/uint16 keys stably by radix
            order = np.argsort(strat.astype(np.min_scalar_type(d)), kind="stable")
            bounds = _indptr(np.bincount(strat, minlength=d))
            old_rr, old_rows, old = self._entries or (_NONE, _NONE, np.zeros(d + 1, np.int64))
            # strategy j's new entry k (in sorted order) goes to k + old[j + 1],
            # after its old ones; the old entries keep their order in the rest
            new_at = np.repeat(old[1:], np.diff(bounds)) + np.arange(len(order))
            keep = np.ones(len(old_rr) + len(order), dtype=bool)
            keep[new_at] = False

            def merge(was, add):
                out = np.empty(len(keep), np.int64)
                out[keep], out[new_at] = was, add
                return out

            self._entries = (merge(old_rr, rr[order]), merge(old_rows, rows[order]),
                             old + bounds)
            self._entries_count = len(offsets) - 1
        return self._entries

    def coverage_weights(self, h_all: np.ndarray) -> np.ndarray:
        """Per-RR-set partial coverage 1 - prod_{v in R} (1 - h_v)."""
        return 1.0 - np.multiply.reduceat((1.0 - h_all)[self.members], self._offsets[:-1])


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

