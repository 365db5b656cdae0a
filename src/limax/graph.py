"""Directed social graphs and triggering-model parameters.

A graph is stored as immutable per-node adjacency (both directions).  Edge
parameters live in a separate :class:`TriggeringParams` so one topology can
carry several parameterizations (learned probabilities, weighted cascade,
uniform).  Two diffusion families are supported:

* ``IC`` (independent cascade): every in-edge ``(u, v)`` fires independently
  with probability ``p(u, v)``.
* ``LT`` (linear threshold): each node picks at most one in-neighbor, ``u``
  with probability ``w(u, v)``, nobody with the residual ``1 - sum(w)``.

Both are instances of the triggering model: ``sample_triggering_set`` draws
the random in-neighbor subset that can activate a node.
"""

from __future__ import annotations

import io
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DirectedGraph",
    "TriggeringParams",
    "EdgeListError",
    "load_edge_list",
    "from_edges",
    "assign_weighted_cascade",
    "uniform_ic",
    "params_from_edge_values",
    "linear_threshold_params",
    "sample_triggering_set",
    "gen_erdos_renyi",
    "write_edge_list",
]

IC = "IC"
LT = "LT"


class EdgeListError(ValueError):
    """Malformed edge-list input (carries the 1-based line number)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class DirectedGraph:
    """Immutable directed multigraph with dense node ids in [0, n).

    ``in_neighbors[v]`` lists edge sources, ``out_neighbors[u]`` lists edge
    targets; the two views describe the same edge multiset.  ``edge_values``
    holds per-edge numbers parsed from the input file (aligned with
    ``in_neighbors``), or None when the input had bare edges.  ``labels``
    maps compacted ids back to the original ids for reporting.
    """

    n: int
    in_neighbors: list[np.ndarray]
    out_neighbors: list[np.ndarray]
    edge_values: list[np.ndarray] | None = None
    labels: np.ndarray | None = None
    _in_py: list[list[int]] = field(default_factory=list, repr=False)
    _out_py: list[list[int]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        for arr in self.in_neighbors:
            arr.flags.writeable = False
        for arr in self.out_neighbors:
            arr.flags.writeable = False
        # plain-list mirrors: scalar BFS loops are much faster on lists
        self._in_py = [list(map(int, a)) for a in self.in_neighbors]
        self._out_py = [list(map(int, a)) for a in self.out_neighbors]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.in_neighbors)

    def in_degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.in_neighbors], dtype=np.int64)

    def out_degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.out_neighbors], dtype=np.int64)

    def edges(self) -> Iterable[tuple[int, int]]:
        for v, srcs in enumerate(self.in_neighbors):
            for u in srcs:
                yield int(u), v


@dataclass
class TriggeringParams:
    """Per-edge diffusion parameters aligned with ``graph.in_neighbors``.

    For IC, ``in_values[v][t]`` is the firing probability of the t-th
    in-edge of v; for LT it is the edge weight, with per-node weight sums
    at most 1.
    """

    kind: str
    in_values: list[np.ndarray]
    _in_py: list[list[float]] = field(default_factory=list, repr=False)
    _out_py: list[list[float]] = field(default_factory=list, repr=False)
    _lt_cum: list[list[float]] = field(default_factory=list, repr=False)

    @classmethod
    def build(cls, graph: DirectedGraph, kind: str, in_values: Sequence[np.ndarray]) -> "TriggeringParams":
        if kind not in (IC, LT):
            raise ValueError(f"unknown triggering kind {kind!r}")
        vals = []
        for v in range(graph.n):
            a = np.asarray(in_values[v], dtype=np.float64)
            if a.shape != graph.in_neighbors[v].shape:
                raise ValueError(f"parameter row {v} does not match in-degree")
            if np.any(a < 0.0) or np.any(a > 1.0):
                raise ValueError(f"edge parameter out of [0, 1] at node {v}")
            if kind == LT and a.sum() > 1.0 + 1e-12:
                raise ValueError(f"LT weights into node {v} sum to {a.sum():.6f} > 1")
            a.flags.writeable = False
            vals.append(a)
        params = cls(kind=kind, in_values=vals)
        params._finalize(graph)
        return params

    def _finalize(self, graph: DirectedGraph) -> None:
        self._in_py = [a.tolist() for a in self.in_values]
        # out-aligned view for forward simulation: sorting both edge views by
        # (source, target), stably, lines the k-th parallel copy of an edge
        # in one view up with the k-th copy in the other
        ids = np.arange(graph.n)
        in_src = np.concatenate((np.empty(0, np.int64), *graph.in_neighbors))
        in_dst = np.repeat(ids, graph.in_degrees())
        out_deg = graph.out_degrees()
        out_src = np.repeat(ids, out_deg)
        out_dst = np.concatenate((np.empty(0, np.int64), *graph.out_neighbors))
        vals = np.concatenate((np.empty(0), *self.in_values))
        out_vals = np.empty(len(vals))
        out_vals[np.lexsort((out_dst, out_src))] = vals[np.lexsort((in_dst, in_src))]
        flat = out_vals.tolist()
        ends = np.cumsum(out_deg).tolist()
        self._out_py = [flat[e - d:e] for e, d in zip(ends, out_deg.tolist())]
        if self.kind == LT:
            self._lt_cum = [np.cumsum(a).tolist() for a in self.in_values]


def _compact(edges: list[tuple[int, int]], values: list[float] | None,
             declared_n: int | None) -> DirectedGraph:
    if declared_n is not None:
        n = declared_n
        labels = None
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListError(f"node id {max(u, v)} out of declared range [0, {n})")
    else:
        ids = sorted({x for e in edges for x in e})
        remap = {orig: i for i, orig in enumerate(ids)}
        n = len(ids)
        labels = np.array(ids, dtype=np.int64)
        edges = [(remap[u], remap[v]) for u, v in edges]

    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    out_nbrs: list[list[int]] = [[] for _ in range(n)]
    in_vals: list[list[float]] | None = [[] for _ in range(n)] if values is not None else None
    dropped = 0
    for idx, (u, v) in enumerate(edges):
        if u == v:
            dropped += 1
            continue
        in_nbrs[v].append(u)
        out_nbrs[u].append(v)
        if in_vals is not None:
            in_vals[v].append(values[idx])
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s)", stacklevel=3)
    return DirectedGraph(
        n=n,
        in_neighbors=[np.array(a, dtype=np.int64) for a in in_nbrs],
        out_neighbors=[np.array(a, dtype=np.int64) for a in out_nbrs],
        edge_values=[np.array(a, dtype=np.float64) for a in in_vals] if in_vals is not None else None,
        labels=labels,
    )


def from_edges(n: int, edges: Iterable[tuple], ) -> DirectedGraph:
    """Build a graph from (u, v) or (u, v, p) tuples over ids in [0, n)."""
    plain: list[tuple[int, int]] = []
    values: list[float] = []
    have_values = None
    for e in edges:
        if len(e) == 3:
            u, v, p = e
            values.append(float(p))
            got = True
        else:
            u, v = e
            got = False
        if have_values is None:
            have_values = got
        elif have_values != got:
            raise ValueError("mix of weighted and bare edges")
        plain.append((int(u), int(v)))
    return _compact(plain, values if have_values else None, declared_n=n)


def load_edge_list(source, header: bool | str = "auto") -> DirectedGraph:
    """Parse a whitespace-separated edge list ``u v [p]``.

    ``source`` is a path, text, bytes, or a readable stream.  Lines starting
    with ``#`` are skipped.  An optional first line ``n m`` declares node and
    edge counts; with ``header="auto"`` a leading 2-integer line is taken as
    a header when its counts are consistent with the rest of the file.
    Without a header, node ids are compacted to [0, n) in sorted order and
    the original ids are kept in ``graph.labels``.
    """
    if isinstance(source, bytes):
        lines = source.decode("utf-8").splitlines()
    elif isinstance(source, str):
        if "\n" in source:
            lines = source.splitlines()
        else:
            # a single line is a path unless it parses as inline data
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except OSError:
                if len(source.split()) not in (2, 3):
                    raise
                lines = [source]
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        lines = data.splitlines()
    else:
        raise TypeError("unsupported edge-list source")

    records: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        records.append((lineno, s.split()))

    if not records:
        raise EdgeListError("empty edge list")

    declared: tuple[int, int] | None = None
    start = 0
    first_line, first = records[0]
    if header is True:
        if len(first) != 2:
            raise EdgeListError("expected header line 'n m'", first_line)
        declared = _parse_header(first, first_line)
        start = 1
    elif header == "auto" and len(first) == 2:
        try:
            cand = _parse_header(first, first_line)
        except EdgeListError:
            cand = None
        if cand is not None and cand[0] >= 1:
            n_h, m_h = cand
            body = records[1:]
            # commit to the header on a shape match; id range is then
            # enforced, not used to fall back to a headerless reading
            ok = len(body) == m_h
            for _, fields in body:
                if not ok:
                    break
                if len(fields) < 2 or not (fields[0].lstrip("-").isdigit()
                                           and fields[1].lstrip("-").isdigit()):
                    ok = False
            if ok:
                declared = cand
                start = 1

    edges: list[tuple[int, int]] = []
    values: list[float] = []
    have_values: bool | None = None
    for lineno, fields in records[start:]:
        if len(fields) not in (2, 3):
            raise EdgeListError(f"expected 'u v [p]', got {len(fields)} fields", lineno)
        try:
            u = int(fields[0])
            v = int(fields[1])
        except ValueError:
            raise EdgeListError(f"non-integer node id in {fields[:2]}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListError("negative node id", lineno)
        got = len(fields) == 3
        if have_values is None:
            have_values = got
        elif have_values != got:
            raise EdgeListError("mix of weighted and bare edge records", lineno)
        if got:
            try:
                p = float(fields[2])
            except ValueError:
                raise EdgeListError(f"non-numeric edge value {fields[2]!r}", lineno) from None
            if not (0.0 <= p <= 1.0):
                raise EdgeListError(f"edge value {p} outside [0, 1]", lineno)
            values.append(p)
        edges.append((u, v))

    if declared is not None and len(edges) != declared[1]:
        raise EdgeListError(
            f"header declares {declared[1]} edges but file has {len(edges)}")
    try:
        return _compact(edges, values if have_values else None,
                        declared_n=declared[0] if declared else None)
    except EdgeListError:
        raise
    except ValueError as exc:
        raise EdgeListError(str(exc)) from None


def _parse_header(fields: list[str], lineno: int) -> tuple[int, int]:
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListError("non-integer header fields", lineno) from None
    if n < 0 or m < 0:
        raise EdgeListError("negative header counts", lineno)
    return n, m


def assign_weighted_cascade(graph: DirectedGraph) -> TriggeringParams:
    """IC parameters with p(u, v) = 1 / in-degree(v) for every edge."""
    vals = []
    for v in range(graph.n):
        deg = len(graph.in_neighbors[v])
        vals.append(np.full(deg, 1.0 / deg) if deg else np.empty(0))
    return TriggeringParams.build(graph, IC, vals)


def uniform_ic(graph: DirectedGraph, p: float) -> TriggeringParams:
    """IC parameters with a single shared probability on all edges."""
    return TriggeringParams.build(
        graph, IC, [np.full(len(a), float(p)) for a in graph.in_neighbors])


def params_from_edge_values(graph: DirectedGraph, kind: str = IC) -> TriggeringParams:
    """Adopt the per-edge values parsed from the input file."""
    if graph.edge_values is None:
        raise ValueError("edge list had no per-edge values")
    return TriggeringParams.build(graph, kind, graph.edge_values)


def linear_threshold_params(graph: DirectedGraph, in_values: Sequence[np.ndarray]) -> TriggeringParams:
    return TriggeringParams.build(graph, LT, in_values)


def sample_triggering_set(graph: DirectedGraph, params: TriggeringParams,
                          v: int, rng) -> set[int]:
    """Draw the triggering set of node v.

    ``rng`` is a numpy Generator or a :class:`limax.rng.RandomBuffer`.
    """
    u = rng.u if hasattr(rng, "u") else rng.random
    srcs = graph._in_py[v]
    if not srcs:
        return set()
    if params.kind == IC:
        probs = params._in_py[v]
        return {srcs[t] for t in range(len(srcs)) if u() < probs[t]}
    t = bisect_right(params._lt_cum[v], u())
    return {srcs[t]} if t < len(srcs) else set()


def gen_erdos_renyi(n: int, m: int, rng) -> DirectedGraph:
    """Directed G(n, m): m distinct non-loop edges, uniform without replacement."""
    if m > n * (n - 1):
        raise ValueError("too many edges requested")
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < m:
        batch = rng.integers(0, n, size=(2 * (m - len(edges)) + 16, 2))
        for u, v in batch:
            if u == v:
                continue
            e = (int(u), int(v))
            if e in seen:
                continue
            seen.add(e)
            edges.append(e)
            if len(edges) == m:
                break
    return from_edges(n, edges)


def write_edge_list(path: str, graph: DirectedGraph) -> None:
    """Write ``n m`` header plus one ``u v [p]`` record per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for v in range(graph.n):
            vals = graph.edge_values[v] if graph.edge_values is not None else None
            for t, u in enumerate(graph.in_neighbors[v]):
                if vals is not None:
                    fh.write(f"{int(u)} {v} {vals[t]!r}\n")
                else:
                    fh.write(f"{int(u)} {v}\n")
