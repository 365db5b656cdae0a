"""Scalar reference for ``limax.graph.load_edge_list``.

A line-by-line parser with the loader's rules, written for clarity: the
tests compare the whole-array loader against it.  It returns the graph as
per-node Python lists, and raises ``EdgeListError`` with the loader's text
and line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from limax.graph import EdgeListError


@dataclass
class ReferenceGraph:
    n: int
    in_neighbors: list[list[int]]
    out_neighbors: list[list[int]]
    edge_values: list[list[float]] | None
    labels: list[int] | None
    self_loops: int


def reference_load(text: str, header: bool | str = "auto") -> ReferenceGraph:
    records: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        if max(u, v) >= 2 ** 63:
            raise EdgeListError(f"node id beyond int64 in {fields[:2]}", lineno)
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
    return _compact(edges, values if have_values else None,
                    declared[0] if declared else None)


def _parse_header(fields: list[str], lineno: int) -> tuple[int, int]:
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListError("non-integer header fields", lineno) from None
    if n < 0 or m < 0:
        raise EdgeListError("negative header counts", lineno)
    return n, m


def _compact(edges, values, declared_n) -> ReferenceGraph:
    if declared_n is not None:
        n, labels = declared_n, None
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListError(f"node id {max(u, v)} out of declared range [0, {n})")
    else:
        labels = sorted({x for e in edges for x in e})
        remap = {orig: i for i, orig in enumerate(labels)}
        n = len(labels)
        edges = [(remap[u], remap[v]) for u, v in edges]
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    out_nbrs: list[list[int]] = [[] for _ in range(n)]
    in_vals = [[] for _ in range(n)] if values is not None else None
    loops = 0
    for idx, (u, v) in enumerate(edges):
        if u == v:
            loops += 1
            continue
        in_nbrs[v].append(u)
        out_nbrs[u].append(v)
        if in_vals is not None:
            in_vals[v].append(values[idx])
    return ReferenceGraph(n, in_nbrs, out_nbrs, in_vals, labels, loops)
