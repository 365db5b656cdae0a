"""Directed social graphs and triggering-model parameters.

A graph has one input format and one stored form: it is built from edge
arrays (sources, targets, optional per-edge values) and read through its
immutable CSR arrays, one per direction.  Edge parameters live in a
separate :class:`TriggeringParams`, built from one value per edge in the
graph's in-edge CSR order, so one topology can carry several
parameterizations (learned probabilities, weighted cascade, uniform).  Two
diffusion families are supported:

* ``IC`` (independent cascade): every in-edge ``(u, v)`` fires independently
  with probability ``p(u, v)``.
* ``LT`` (linear threshold): each node picks at most one in-neighbor, ``u``
  with probability ``w(u, v)``, nobody with the residual ``1 - sum(w)``.

Both are instances of the triggering model: the random in-neighbor subset
that can activate a node is drawn, for many (node, RR set) pairs at once,
by ``limax.rrset._live_in_edges``.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

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
    "gen_erdos_renyi",
    "write_edge_list",
]

IC = "IC"
LT = "LT"

# in-degree from which an IC node whose in-edges share one probability
# finds its live in-edges by geometric gaps; lower gates were slower on
# weighted-cascade graphs of small in-degree (internal, not an option)
_SKIP_DEGREE = 32
# forward steps an LT pick takes from its guide-table slot before the rest
# of the search goes to _slots (internal, not an option)
_GUIDE_STEPS = 4


class EdgeListError(ValueError):
    """Malformed edge-list input (carries the 1-based line number)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _slots(a: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           x: np.ndarray) -> np.ndarray:
    """``lo + bisect_right(a[lo:hi], x)`` for every row at once (the
    arguments broadcast): a branch-free binary search in which every row
    takes the power-of-two steps of the widest row, and a probe past its
    row's end counts as above ``x``."""
    pos = np.broadcast_to(lo, np.broadcast(lo, hi, x).shape).astype(np.int64)
    step = 1 << (int((hi - lo).max(initial=1)).bit_length() - 1)
    while step:
        probe = pos + (step - 1)
        pos += ((probe < hi) & (a.take(probe, mode="clip") <= x)) * step
        step >>= 1
    return pos


def _indptr(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)))


def _int_pairs(a: np.ndarray, b: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Two equal-length id arrays as int64.  A ``ValueError`` names the
    first pair holding an id that is not an integer, which the cast would
    truncate; an empty list, float64 to numpy, holds none."""
    with np.errstate(invalid="ignore"):
        ia, ib = a.astype(np.int64), b.astype(np.int64)
    bad = np.flatnonzero((ia != a) | (ib != b))
    if len(bad):
        k = int(bad[0])
        x, y = a[k:k + 1].tolist() + b[k:k + 1].tolist()
        raise ValueError(f"{what} {k} ({x!r}, {y!r}) has a non-integer id")
    return ia, ib


class DirectedGraph:
    """Immutable directed multigraph with dense node ids in [0, n).

    The edges are stored once per direction as read-only CSR arrays.
    ``in_csr = (indptr, src, values)``: node v's in-edges are
    ``indptr[v]:indptr[v + 1]``, ``src`` holds their sources, and ``values``
    the per-edge numbers parsed from the input file, or None when the input
    had bare edges.  ``out_csr = (indptr, dst, edge)`` lists the out-edges
    by source the same way, and ``edge`` holds each out-edge's position in
    ``in_csr``: the k-th parallel copy of (u, v) in one direction is the
    k-th copy in the other.  ``labels`` maps compacted ids back to the
    original ids for reporting.
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray,
                 values: np.ndarray | None = None, labels: np.ndarray | None = None):
        """Build from the edges (src[e], dst[e]), with ``values[e]``
        (optional) one number per edge; each node's CSR rows keep edge
        order.  A ``ValueError`` names the first bad edge."""
        src, dst = np.asarray(src), np.asarray(dst)
        m = len(src)
        if len(dst) != m:
            k, side = (len(dst), "target") if m > len(dst) else (m, "source")
            raise ValueError(f"{m} edge sources for {len(dst)} targets: edge {k} has no {side}")
        src, dst = _int_pairs(src, dst, "edge")
        bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
        if len(bad):
            e = int(bad[0])
            raise ValueError(f"edge {e} ({src[e]}, {dst[e]}) has a node id outside [0, {n})")
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if len(values) != m:
                raise ValueError(f"{len(values)} edge values for {m} edges")
        # the narrowest key dtype: numpy sorts uint8/uint16 keys stably by radix
        key = np.min_scalar_type(max(n - 1, 0))
        in_order = np.argsort(dst.astype(key), kind="stable")
        out_order = np.argsort(src.astype(key), kind="stable")
        pos = np.empty(m, dtype=np.int64)
        pos[in_order] = np.arange(m)
        self.n = n
        self.in_csr = (_indptr(np.bincount(dst, minlength=n)), src[in_order],
                       None if values is None else values[in_order])
        self.out_csr = (_indptr(np.bincount(src, minlength=n)), dst[out_order], pos[out_order])
        for arr in (*self.in_csr, *self.out_csr):
            if arr is not None:
                arr.flags.writeable = False
        self.labels = labels

    @property
    def m(self) -> int:
        return int(self.in_csr[0][-1])

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_csr[0])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_csr[0])


@dataclass(eq=False)
class TriggeringParams:
    """Per-edge diffusion parameters aligned with ``graph.in_csr``.

    ``values`` holds one read-only number per in-edge, in ``in_csr`` order:
    under IC the firing probability, under LT the edge weight, with
    per-node weight sums at most 1; node v's values are
    ``values[indptr[v]:indptr[v + 1]]``.  Two CSR views hold the edges for
    the batched kernels.  ``_csr = (indptr, src, values)`` lists the
    in-edges as ``graph.in_csr`` does, with ``values`` itself.
    ``_out_csr = (indptr, dst, values)`` lists the out-edges as
    ``graph.out_csr`` does, each with its own probability or weight.  Under
    IC, ``_skip = (flag, p)`` marks the nodes of in-degree at least
    ``_SKIP_DEGREE`` whose in-edges all share one probability p with
    0 < p < 1, and holds each node's p (meaningful where flagged).  Under
    LT, ``_guide``, the guide table of the LT picks (see :func:`_lt_picks`),
    is built on first use and kept: only it holds the running weight sums.
    """

    kind: str
    values: np.ndarray = field(repr=False)
    _csr: tuple[np.ndarray, np.ndarray, np.ndarray] = field(default=(), repr=False)
    _out_csr: tuple[np.ndarray, np.ndarray, np.ndarray] = field(default=(), repr=False)
    _skip: tuple[np.ndarray, np.ndarray] = field(default=(), repr=False)

    @classmethod
    def build(cls, graph: DirectedGraph, kind: str, values: np.ndarray) -> "TriggeringParams":
        """Parameters from one value per edge, in ``graph.in_csr`` order;
        the values are copied, not kept."""
        if kind not in (IC, LT):
            raise ValueError(f"unknown triggering kind {kind!r}")
        values = np.array(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"parameter values of shape {values.shape}, not one per edge")
        if len(values) != graph.m:
            raise ValueError(f"{len(values)} parameter values for {graph.m} edges")
        indptr, src, _ = graph.in_csr
        out_ptr, dst, edge = graph.out_csr
        deg = np.diff(indptr)
        rows = np.flatnonzero(deg)
        # one pass over all edges; a failing check names its first node
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if len(bad):
            v = int(np.searchsorted(indptr[1:], bad[0], side="right"))
            raise ValueError(f"edge parameter out of [0, 1] at node {v}")
        values.flags.writeable = False
        if kind == IC:
            p = np.zeros(graph.n)
            p[rows] = np.minimum.reduceat(values, indptr[rows])
            shared = np.zeros(graph.n, dtype=bool)
            shared[rows] = p[rows] == np.maximum.reduceat(values, indptr[rows])
            skip = (shared & (deg >= _SKIP_DEGREE) & (p > 0.0) & (p < 1.0), p)
        else:
            sums = np.add.reduceat(values, indptr[rows])
            over = np.flatnonzero(sums > 1.0 + 1e-12)
            if len(over):
                v = int(rows[over[0]])
                raise ValueError(f"LT weights into node {v} sum to {sums[over[0]]:.6f} > 1")
            skip = ()
        return cls(kind=kind, values=values, _csr=(indptr, src, values),
                   _out_csr=(out_ptr, dst, values[edge]), _skip=skip)

    @cached_property
    def _guide(self) -> "_Guide":
        """The LT guide table (see :class:`_Guide`), built on first use."""
        if self.kind != LT:
            raise ValueError("guide table of IC parameters")
        indptr, src, values = self._csr
        cum = _running_sums(values, indptr)
        n = len(indptr) - 1
        deg = np.diff(indptr)
        ptr = indptr + np.arange(n + 1)
        slot = np.arange(len(cum)) + np.repeat(np.arange(n), deg)  # each in-edge's padded slot
        pad_cum = np.full(ptr[-1], np.inf)
        pad_cum[slot] = cum
        pad_src = np.arange(n).repeat(deg + 1)
        pad_src[slot] = src
        lo, d = ptr[:-1].repeat(deg), deg.repeat(deg)
        b = slot - lo
        # "cum < t" as "cum <= the double below t"
        below = np.nextafter(b / d * (1.0 - 2.0**-50), -np.inf)
        above = np.nextafter(np.minimum((b + 1) / d * (1.0 + 2.0**-50), 1.0), -np.inf)
        guide = np.zeros(ptr[-1], np.int64)
        guide[slot] = _slots(pad_cum, lo, lo + d, below)
        steps = int((_slots(pad_cum, lo, lo + d, above) - guide[slot]).max(initial=0))
        return _Guide(ptr, deg.astype(np.float64), pad_cum, pad_src, guide, steps)


class _Guide(NamedTuple):
    """An exact guide table for LT picks (Chen and Asau 1974; Devroye 1986,
    III.2.4) over the in-edge rows, each padded with one slot past its end.
    Node v's row is ``ptr[v]:ptr[v + 1]``: its d in-edges' running weight
    sums ``cum`` and sources ``src``, then a last slot with sum inf and
    source v itself, so that a pick past the last sum is "none" and points
    at v.  A pick x in [0, 1) of v falls in bucket ``b = floor(x * d)``,
    below d as x * d rounds below d, and then x >= b / d (1 - 2^-53) and
    x < (b + 1) / d.  ``guide[ptr[v] + b]`` is ``ptr[v]`` plus the number
    of sums below b / d (1 - 2^-50), a slot no later than x's.  No sum at
    or below x reaches (b + 1) / d (1 + 2^-50), nor 1, so ``steps``, the
    most slots between these two counts over every bucket, bounds the
    forward steps from a bucket's slot to the pick.  Both thresholds keep
    their side of x under the rounding of their products."""

    ptr: np.ndarray
    deg: np.ndarray  # in-degrees, as floats
    cum: np.ndarray
    src: np.ndarray
    guide: np.ndarray
    steps: int


def _lt_picks(params: TriggeringParams, nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The in-neighbour that each node of ``nodes`` (all of in-degree at
    least 1) picks with the uniform x in [0, 1) under LT, or the node
    itself for none (the arguments broadcast): the first in-edge whose
    running weight sum exceeds x, as ``bisect_right`` finds it.  One
    multiply and one gather take x to its bucket's slot in the guide table
    (see :class:`_Guide`), then every pick takes the table's fixed number
    of branch-free forward steps; past ``_GUIDE_STEPS`` of them the search
    ends in :func:`_slots`."""
    g = params._guide
    pos = (x * g.deg[nodes]).astype(np.int64)
    pos += g.ptr[nodes]
    pos = g.guide.take(pos)
    for _ in range(min(g.steps, _GUIDE_STEPS)):
        pos += g.cum.take(pos) <= x
    if g.steps > _GUIDE_STEPS:  # the picks short of their slot end in a binary search
        left = g.cum.take(pos) <= x
        end = np.broadcast_to(g.ptr[nodes + 1], pos.shape)[left]
        pos[left] = _slots(g.cum, pos[left], end, np.broadcast_to(x, pos.shape)[left])
    return g.src.take(pos)


def _running_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each node's running sums of its values, added in row order as
    ``np.cumsum`` of the row does, for all nodes of one degree at a time."""
    out = values.copy()
    deg = np.diff(indptr)
    for d in np.unique(deg[deg > 1]).tolist():
        idx = indptr[:-1][deg == d][:, None] + np.arange(d)
        out[idx] = np.cumsum(values[idx], axis=1)
    return out


def _compact(src: np.ndarray, dst: np.ndarray, values: np.ndarray | None,
             declared_n: int | None) -> DirectedGraph:
    if declared_n is not None:
        n = declared_n
        labels = None
    else:
        labels, ids = np.unique(np.concatenate((src, dst)), return_inverse=True)
        n = len(labels)
        src, dst = ids[:len(src)], ids[len(src):]
    keep = src != dst
    dropped = len(keep) - int(np.count_nonzero(keep))
    if dropped:  # keep a self-loop with an id outside [0, n) for the constructor to reject
        keep |= (src < 0) | (src >= n)
        src, dst = src[keep], dst[keep]
        values = None if values is None else values[keep]
    try:
        graph = DirectedGraph(n, src, dst, values, labels)
    except ValueError:  # int64 ids of equal length fail only outside [0, n)
        e = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))[0]
        raise EdgeListError(
            f"node id {max(src[e], dst[e])} out of declared range [0, {n})") from None
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s)", stacklevel=3)
    return graph


def from_edges(n: int, edges: Iterable[tuple]) -> DirectedGraph:
    """Build a graph from (u, v) or (u, v, p) tuples over ids in [0, n)."""
    edges = list(edges)
    weighted = {len(e) == 3 for e in edges}
    if len(weighted) > 1:
        raise ValueError("mix of weighted and bare edges")
    columns = list(zip(*edges))
    if weighted == {True}:
        us, vs, ps = columns
        values = np.fromiter(map(float, ps), np.float64, len(ps))
    else:
        us, vs = columns or ((), ())
        values = None
    src, dst = _int_pairs(np.array(us), np.array(vs), "edge")
    return _compact(src, dst, values, declared_n=n)


# the code points at which str.split() splits (its whitespace) and those at
# which str.splitlines() breaks lines; tests/test_loader.py checks both
# against every code point
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
           "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
# per code point: 0 inside a token, 1 whitespace, 2 line break; code
# points past the table are clamped to its last entry, a token character
_CLASS = np.zeros(ord(max(_SPACES)) + 2, np.uint8)
_CLASS[[ord(c) for c in _SPACES]] = 1
_CLASS[[ord(c) for c in _BREAKS]] = 2
# node ids of at most this many ASCII digits are converted as arrays
_FAST_DIGITS = 18


def _read_text(source) -> str:
    """The source's text: a string holding "\\n" is the text itself, any
    other string a path."""
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        if "\n" in source:
            return source
        with open(source, "rb") as fh:
            return fh.read().decode("utf-8")
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    raise TypeError("unsupported edge-list source")


class _Records:
    """The edge-list records of one text, found in whole-array passes.

    Each character is classed as ``str.split()`` and ``str.splitlines()``
    see it, by one table lookup of its code point.  Tokens are the runs of
    non-whitespace, and a token opens a line when a line break comes
    between it and the token before.  A record is the tokens of one line
    whose first token does not start with ``#``: ``first[r]`` is its first
    token and ``width[r]`` its token count.
    """

    def __init__(self, text: str):
        self.text = text
        if text.isascii():
            codes = np.frombuffer(text.encode("ascii"), np.uint8)
            cls = np.take(_CLASS, codes)
        else:
            codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
            cls = np.take(_CLASS, np.minimum(codes, len(_CLASS) - 1))
        self.codes = codes
        word = np.concatenate(([False], cls == 0, [False]))
        flips = np.flatnonzero(word[1:] != word[:-1])
        self.starts, self.ends = flips[0::2], flips[1::2]
        # line breaks and token starts, in text order
        brk = cls == 2
        events = np.flatnonzero(brk | (word[1:-1] & ~word[:-2]))
        is_break = brk[events]
        opens = np.concatenate(([True], is_break))[:-1][~is_break]
        first = np.flatnonzero(opens)
        width = np.diff(first, append=len(opens))
        kept = codes[self.starts[first]] != ord("#")
        self.first, self.width = first[kept], width[kept]

    def line(self, r: int) -> int:
        """The 1-based line of record r, as ``str.splitlines()`` counts."""
        return len(self.text[:self.starts[self.first[r]] + 1].splitlines())

    def strings(self, tokens: np.ndarray) -> list[str]:
        """The text of each token, in the order given."""
        text = self.text
        return [text[a:b] for a, b in zip(self.starts[tokens].tolist(),
                                           self.ends[tokens].tolist())]

    def pair(self, r: int) -> list[str]:
        """The first two tokens of record r."""
        return self.strings(self.first[r] + np.arange(2))

    def ints(self, tokens: np.ndarray):
        """``int(token)`` of each token as int64, with masks of the tokens
        it rejects, of those beyond int64 (both hold 0), and of those that
        are digits after their leading minus signs.

        Tokens of an optional ``-`` and 1 to ``_FAST_DIGITS`` ASCII digits
        are converted by digit accumulation over all of them at once; the
        rest go through ``int()`` one at a time.
        """
        starts, ends = self.starts[tokens], self.ends[tokens]
        neg = self.codes[starts] == ord("-")
        lead = starts + neg
        size = ends - lead
        plain = (size >= 1) & (size <= _FAST_DIGITS)
        acc = np.zeros(len(tokens), np.int64)
        for k in range(int(size[plain].max(initial=0))):
            live = size > k
            digit = self.codes[np.minimum(lead + k, ends - 1)] - ord("0")
            plain &= ~live | (digit < 10)
            acc = np.where(live, acc * 10 + digit, acc)
        values = np.where(neg, -acc, acc)
        bad = np.zeros(len(tokens), bool)
        over = np.zeros(len(tokens), bool)
        digits = plain.copy()
        others = np.flatnonzero(~plain)
        for i, token in zip(others.tolist(), self.strings(tokens[others])):
            digits[i] = token.lstrip("-").isdigit()
            try:
                x = int(token)
            except ValueError:
                values[i], bad[i] = 0, True
                continue
            if x >= 2 ** 63:
                x, over[i] = 0, True
            values[i] = max(x, -2 ** 63)  # any negative id is rejected
        return values, bad, over, digits


def load_edge_list(source, header: bool | str = "auto") -> DirectedGraph:
    """Parse a whitespace-separated edge list ``u v [p]``.

    ``source`` is a path, text, bytes, or a readable stream: a string is
    text when it holds a ``\\n`` and a path otherwise, so one line of text
    needs its ``\\n``.  Lines starting with ``#`` are skipped.  An optional
    first line ``n m`` declares node and edge counts; with ``header="auto"``
    a leading 2-integer line is taken as a header when its counts are
    consistent with the rest of the file.  Without a header, node ids are
    compacted to [0, n) in sorted order and the original ids are kept in
    ``graph.labels``.

    The whole text is tokenized at once.  Tokens are separated by the
    characters ``str.split()`` treats as whitespace, lines by those at which
    ``str.splitlines()`` breaks (``\\n``, ``\\r``, ``\\r\\n``, ``\\x0b``,
    ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``),
    so ``\\x1f``, ``\\xa0`` or ``\\u3000`` separate tokens within a line.
    Node ids of plain ASCII digits are converted as whole arrays, other
    tokens by ``int()``, and edge values by ``float()``.  A failing check
    reports the first bad record, with its line number.
    """
    rec = _Records(_read_text(source))
    count = len(rec.first)
    if not count:
        raise EdgeListError("empty edge list")
    first, width = rec.first, rec.width
    # row 0 of each: every record's first token, row 1 its second (a
    # 1-token record repeats its first)
    ids, bad_id, over, digits = (a.reshape(2, count) for a in
                                 rec.ints(np.concatenate((first, first + (width > 1)))))

    declared: tuple[int, int] | None = None
    if header is True:
        if width[0] != 2:
            raise EdgeListError("expected header line 'n m'", rec.line(0))
        declared = _parse_header(rec.pair(0), rec.line(0))
    elif header == "auto" and width[0] == 2:
        try:
            cand = _parse_header(rec.pair(0), rec.line(0))
        except EdgeListError:
            cand = None
        # commit to the header on a shape match; id range is then
        # enforced, not used to fall back to a headerless reading
        if (cand is not None and cand[0] >= 1 and count - 1 == cand[1]
                and width[1:].min(initial=2) >= 2 and digits[:, 1:].all()):
            declared = cand
    start = 0 if declared is None else 1
    src, dst = ids[:, start:]
    values = _check_records(rec, start, (src < 0) | (dst < 0),
                            bad_id[:, start:].any(axis=0), over[:, start:].any(axis=0))
    if declared is not None and len(src) != declared[1]:
        raise EdgeListError(
            f"header declares {declared[1]} edges but file has {len(src)}")
    try:
        return _compact(src, dst, values, declared_n=declared[0] if declared else None)
    except EdgeListError:
        raise
    except ValueError as exc:
        raise EdgeListError(str(exc)) from None


def _check_records(rec: _Records, start: int, neg: np.ndarray, bad_id: np.ndarray,
                   over: np.ndarray) -> np.ndarray | None:
    """The edge values (or None) of the records from ``start`` on, given
    the masks of those whose node ids are negative, rejected by ``int()``
    or beyond int64.

    Records up to the first one of another width than the first record's
    make the edges; that record, if any, is the first error unless one
    comes before it.
    """
    width = rec.width[start:]
    if not len(width):
        return None
    good = (width == 2) | (width == 3)
    odd = ~good | (width != width[0])
    stop = int(np.argmax(odd)) if odd.any() else len(width)
    # the odd record's ids are checked before its width mismatch
    checked = stop + int(stop < len(width) and good[stop])
    checks = [(bad_id[:checked], lambda r: f"non-integer node id in {rec.pair(start + r)}"),
              (neg[:checked], lambda r: "negative node id"),
              (over[:checked], lambda r: f"node id beyond int64 in {rec.pair(start + r)}")]
    values = None
    if width[0] == 3:
        tokens = rec.strings(rec.first[start:start + stop] + 2)
        values, bad_p = _floats(tokens)
        checks += [(bad_p, lambda r: f"non-numeric edge value {tokens[r]!r}"),
                   (~((values >= 0.0) & (values <= 1.0)),
                    lambda r: f"edge value {float(values[r])} outside [0, 1]")]
    # the first bad record, and its first failing check in record order
    firsts = [(int(np.argmax(mask)), i) for i, (mask, _) in enumerate(checks) if mask.any()]
    if firsts:
        row, i = min(firsts)
        raise EdgeListError(checks[i][1](row), rec.line(start + row))
    if stop < len(width):
        message = (f"expected 'u v [p]', got {width[stop]} fields" if not good[stop]
                   else "mix of weighted and bare edge records")
        raise EdgeListError(message, rec.line(start + stop))
    return values


def _floats(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float(token)`` for every token, plus a mask of the tokens it
    rejects (their entries are 0, which passes the range checks)."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens)), np.zeros(len(tokens), bool)
    except ValueError:
        pass

    def attempt(token):
        try:
            return float(token), False
        except ValueError:
            return 0.0, True

    got = [attempt(t) for t in tokens]
    return (np.array([x for x, _ in got], dtype=np.float64),
            np.array([b for _, b in got], dtype=bool))


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
    deg = graph.in_degrees()
    return TriggeringParams.build(graph, IC, np.repeat(1.0 / np.maximum(deg, 1), deg))


def uniform_ic(graph: DirectedGraph, p: float) -> TriggeringParams:
    """IC parameters with a single shared probability on all edges."""
    return TriggeringParams.build(graph, IC, np.full(graph.m, float(p)))


def params_from_edge_values(graph: DirectedGraph, kind: str = IC) -> TriggeringParams:
    """Adopt the per-edge values parsed from the input file."""
    if graph.in_csr[2] is None:
        raise ValueError("edge list had no per-edge values")
    return TriggeringParams.build(graph, kind, graph.in_csr[2])


def gen_erdos_renyi(n: int, m: int, rng) -> DirectedGraph:
    """Directed G(n, m): m distinct non-loop edges, uniform without replacement.

    Batches of (u, v) pairs are drawn until m edges are found; each batch
    contributes its non-loop pairs not seen before, first copies in draw
    order.
    """
    if m > n * (n - 1):
        raise ValueError("too many edges requested")
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        batch = rng.integers(0, n, size=(2 * (m - len(keys)) + 16, 2))
        new = (batch[:, 0] * n + batch[:, 1])[batch[:, 0] != batch[:, 1]]
        _, first = np.unique(new, return_index=True)
        new = new[np.sort(first)]
        new = new[~np.isin(new, keys)]
        keys = np.concatenate((keys, new[:m - len(keys)]))
    return DirectedGraph(n, keys // n, keys % n)


def write_edge_list(path: str, graph: DirectedGraph) -> None:
    """Write ``n m`` header plus one ``u v [p]`` record per edge, by target,
    with each value as its shortest round-trip ``repr``."""
    indptr, src, values = graph.in_csr
    columns = [src.tolist(), np.repeat(np.arange(graph.n), np.diff(indptr)).tolist()]
    if values is not None:
        columns.append(values.tolist())
    line = "{} {} {!r}\n" if values is not None else "{} {}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        fh.writelines(map(line.format, *columns))
