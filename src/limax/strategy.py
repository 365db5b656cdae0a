"""Lattice strategy mixes and activation models.

A mix assigns each of d strategies a nonnegative amount on a grid of step
size delta.  Amounts are stored as integer step counts throughout (never as
accumulated floats), so greedy runs are exactly reproducible and curve
lookups are O(1) table reads.

Activation comes in two flavors, both read through one method:
``h_all(x)`` returns h_v(x) for every node v at once, and no code reads a
model any other way.

* ``IndependentActivation`` -- every strategy j in a node's set S_v tries to
  seed v independently, succeeding with probability ``q[v,j](x_j)``, hence
  ``h_v(x) = 1 - prod_{j in S_v} (1 - q[v,j](x_j))``.  The model is given
  and stored as flat rows, one per (node v, strategy j in S_v) curve, each
  tabulating q[v,j] at the lattice points 0..K.
* ``BlackBoxActivation`` -- an opaque vectorized callable that maps the
  value vector ``steps * delta`` to all n probabilities; the caller asserts
  monotonicity and diminishing returns, which are not efficiently checkable
  in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import _indptr, _int_pairs

__all__ = [
    "LatticeConfig",
    "StrategyMix",
    "IndependentActivation",
    "BlackBoxActivation",
    "CurveDomainError",
    "CurveViolation",
    "quadratic_table",
    "multi_event_table",
    "clamped_table",
    "validate_model",
    "make_personalized",
    "make_segmented_event",
]


class CurveDomainError(ValueError):
    """Curve evaluated outside its tabulated lattice domain."""


def _whole(value, what: str) -> int:
    """``value`` as an int; a ``ValueError`` names it if ``int`` would truncate it."""
    i = int(value)
    if i != value:
        raise ValueError(f"{what} ({value!r}) is not an integer")
    return i


@dataclass(frozen=True)
class LatticeConfig:
    """Strategy count d, granularity delta, and total budget in steps K."""

    d: int
    delta: float
    budget_steps: int

    def __post_init__(self):
        object.__setattr__(self, "d", _whole(self.d, "d"))
        object.__setattr__(self, "budget_steps", _whole(self.budget_steps, "budget_steps"))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.budget_steps < 0:
            raise ValueError("budget_steps must be >= 0")


class StrategyMix:
    """A d-vector of integer step counts; coordinate j spends steps[j]*delta."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        arr = np.asarray(steps, dtype=np.int64).copy()
        if arr.ndim != 1:
            raise ValueError("steps must be a 1-d vector")
        if np.any(arr < 0):
            raise ValueError("steps must be nonnegative")
        arr.flags.writeable = False
        self.steps = arr

    @classmethod
    def zeros(cls, d: int) -> "StrategyMix":
        return cls(np.zeros(d, dtype=np.int64))

    @property
    def d(self) -> int:
        return len(self.steps)

    @property
    def total_steps(self) -> int:
        return int(self.steps.sum())

    def __eq__(self, other):
        return isinstance(other, StrategyMix) and np.array_equal(self.steps, other.steps)

    def __hash__(self):
        return hash(self.steps.tobytes())

    def __repr__(self):
        return f"StrategyMix({self.steps.tolist()})"


def as_steps(x, d: int | None = None) -> np.ndarray:
    """Normalize a mix argument (StrategyMix or sequence) to an int step array."""
    arr = x.steps if isinstance(x, StrategyMix) else np.asarray(x, dtype=np.int64)
    if d is not None and len(arr) != d:
        raise ValueError(f"expected {d} coordinates, got {len(arr)}")
    return arr


def _check_fit(n: int, model, lattice: LatticeConfig) -> None:
    """A request on ``lattice`` over n nodes must match the model's own."""
    if lattice != model.lattice:
        raise ValueError(f"lattice {lattice} differs from the model's {model.lattice}")
    if model.n != n:
        raise ValueError(f"model over {model.n} nodes for a graph of {n}")


def _check_steps(steps: np.ndarray, lattice: LatticeConfig) -> None:
    if steps.min(initial=0) < 0 or steps.max(initial=0) > lattice.budget_steps:
        raise CurveDomainError("step count outside [0, K]")


# --- curve tables ----------------------------------------------------------

def quadratic_table(lattice: LatticeConfig) -> np.ndarray:
    """Discount-response curve 2x - x^2, clamped at its saturation point x=1."""
    x = np.minimum(np.arange(lattice.budget_steps + 1) * lattice.delta, 1.0)
    return 2.0 * x - x * x


def multi_event_table(r, lattice: LatticeConfig) -> np.ndarray:
    """Repeated-event curve 1 - (1-r)^x at x = 0, delta, ..., K*delta.

    For an array of rates, one curve per rate (one row each).
    """
    r = np.asarray(r, dtype=np.float64)
    if not np.all((0.0 <= r) & (r <= 1.0)):
        raise ValueError("r must lie in [0, 1]")
    x = np.arange(lattice.budget_steps + 1) * lattice.delta
    return 1.0 - np.power((1.0 - r)[..., None], x)


def clamped_table(table: np.ndarray, cap: int) -> np.ndarray:
    """Freeze a curve beyond a per-strategy cap; marginals past the cap are 0."""
    out = np.asarray(table, dtype=np.float64).copy()
    out[cap + 1:] = out[cap]
    return out


# --- models ----------------------------------------------------------------

class IndependentActivation:
    """Independent per-strategy activation with tabulated q curves.

    The model is one row per (node, strategy) curve: row r tabulates
    q[_flat_nodes[r], _flat_strats[r]] at the lattice points 0..K in
    ``_flat_tables[r]``.  The stored rows are read-only and sorted by node,
    then strategy, so node v's rows are ``_indptr[v]:_indptr[v + 1]`` and
    its strategies S_v are sorted; :meth:`rows` expands nodes into rows.
    """

    def __init__(self, n: int, lattice: LatticeConfig,
                 nodes: np.ndarray, strategies: np.ndarray, tables: np.ndarray):
        """Build from the rows (nodes[r], strategies[r], tables[r]), in any
        order; ``tables`` has shape (rows, K + 1).  A ``ValueError`` names
        the first bad row, or the first node with a strategy out of range
        or repeated."""
        width = lattice.budget_steps + 1
        nodes, strats = np.asarray(nodes), np.asarray(strategies)
        tabs = np.asarray(tables, dtype=np.float64)
        if tabs.ndim != 2:
            raise ValueError(f"tables of shape {tabs.shape} are not one row per curve")
        sizes = (len(nodes), len(strats), len(tabs))
        if len(set(sizes)) > 1:
            raise ValueError("{} nodes, {} strategies and {} table rows: "
                             "row {} is incomplete".format(*sizes, min(sizes)))
        if tabs.shape[1] != width:
            raise ValueError(f"table row 0 has {tabs.shape[1]} values, not K + 1 = {width}")
        nodes, strats = _int_pairs(nodes, strats, "row")
        bad = np.flatnonzero((nodes < 0) | (nodes >= n))
        if len(bad):
            r = int(bad[0])
            raise ValueError(f"row {r} ({nodes[r]}, {strats[r]}) has a node id outside [0, {n})")
        # the first bad node names the error; out of range is checked first
        order = np.lexsort((strats, nodes))
        nodes, strats, tabs = nodes[order], strats[order], tabs[order]
        out = (strats < 0) | (strats >= lattice.d)
        dup = np.zeros(len(strats), dtype=bool)
        dup[1:] = (nodes[1:] == nodes[:-1]) & (strats[1:] == strats[:-1])
        if out.any() or dup.any():
            first_out = nodes[out].min(initial=n)
            v = int(min(first_out, nodes[dup].min(initial=n)))
            kind = "strategy index out of range" if v == first_out else "duplicate strategy"
            raise ValueError(f"{kind} at node {v}")
        for arr in (nodes, strats, tabs):
            arr.flags.writeable = False
        self.n = n
        self.lattice = lattice
        self._indptr = _indptr(np.bincount(nodes, minlength=n))
        self._flat_nodes = nodes
        self._flat_strats = strats
        self._flat_tables = tabs

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The table rows of every entry of ``nodes``, in entry order, then
        row order; ``pair[k]`` is the index into ``nodes`` of the entry that
        owns ``rows[k]``.  Entries may repeat or own no rows; only the
        entries that own rows are expanded."""
        count = np.diff(self._indptr)[nodes]
        own = np.flatnonzero(count > 0)  # faster than nonzero() on the int counts
        start, count = self._indptr[nodes[own]], count[own]
        if len(own) == count.sum():  # one row per owner, as in the built-in scenarios
            return own, start
        pair = np.repeat(own, count)
        # an owner's k-th row is its node's first row plus k
        return pair, np.arange(len(pair)) + np.repeat(start - (np.cumsum(count) - count), count)

    def h_all(self, x) -> np.ndarray:
        """h_v(x) for every node at once."""
        steps = as_steps(x, self.lattice.d)
        _check_steps(steps, self.lattice)
        acc = np.ones(self.n)
        if len(self._flat_nodes):
            col = np.take_along_axis(
                self._flat_tables, steps[self._flat_strats][:, None], axis=1).ravel()
            np.multiply.at(acc, self._flat_nodes, 1.0 - col)
        return 1.0 - acc


class BlackBoxActivation:
    """Opaque strategy activation: ``fn`` maps the value vector
    ``steps * delta`` to the n probabilities h_v(x), one call per
    :meth:`h_all`.  Each h_v is assumed monotone and DR-submodular on the
    lattice (not verified)."""

    def __init__(self, n: int, lattice: LatticeConfig,
                 fn: Callable[[np.ndarray], np.ndarray]):
        self.n = n
        self.lattice = lattice
        self.fn = fn

    def h_all(self, x) -> np.ndarray:
        """``fn`` at x, clipped to 1; a ``ValueError`` names the first node
        whose value lies outside [0, 1 + 1e-12]."""
        steps = as_steps(x, self.lattice.d)
        _check_steps(steps, self.lattice)
        val = np.asarray(self.fn(steps * self.lattice.delta), dtype=np.float64)
        if val.shape != (self.n,):
            raise ValueError(f"fn returned shape {val.shape}, not ({self.n},)")
        bad = np.flatnonzero(~((val >= 0.0) & (val <= 1.0 + 1e-12)))
        if len(bad):
            v = int(bad[0])
            raise ValueError(f"h({v}, .) = {float(val[v])} outside [0, 1]")
        return np.minimum(val, 1.0)


@dataclass(frozen=True)
class CurveViolation:
    node: int
    strategy: int
    kind: str  # 'origin' | 'range' | 'decreasing' | 'non-concave'
    detail: str


_CURVE_TOL = 1e-12  # validate_model's slack on every check


def validate_model(model, lattice: LatticeConfig) -> list[CurveViolation]:
    """Check every tabulated curve, on the model's own lattice only, for
    q(0)=0, monotonicity, range and discrete concavity, each within
    ``_CURVE_TOL``.  Black-box models are not checkable and report clean.

    All rows of ``model._flat_tables`` are checked at once; the report lists
    the violations by node, then strategy, then check, in the order above
    the ``kind`` field gives.
    """
    _check_fit(model.n, model, lattice)
    if not isinstance(model, IndependentActivation):
        return []
    tab = model._flat_tables
    diffs = np.diff(tab, axis=1)
    origin = np.abs(tab[:, 0]) > _CURVE_TOL
    out_of_range = np.any((tab < -_CURVE_TOL) | (tab > 1.0 + _CURVE_TOL), axis=1)
    drops = diffs < -_CURVE_TOL
    grows = diffs[:, 1:] > diffs[:, :-1] + _CURVE_TOL
    out: list[CurveViolation] = []
    for r in np.flatnonzero(origin | out_of_range | drops.any(axis=1)
                            | grows.any(axis=1)).tolist():
        v, j = int(model._flat_nodes[r]), int(model._flat_strats[r])
        if origin[r]:
            out.append(CurveViolation(v, j, "origin", f"q(0) = {tab[r, 0]!r}"))
        if out_of_range[r]:
            out.append(CurveViolation(v, j, "range", "values outside [0, 1]"))
        if drops[r].any():
            i = int(np.argmax(drops[r]))
            out.append(CurveViolation(v, j, "decreasing", f"q drops at step {i + 1}"))
        if grows[r].any():
            i = int(np.argmax(grows[r]))
            out.append(CurveViolation(
                v, j, "non-concave", f"marginal grows from step {i + 1} to {i + 2}"))
    return out


# --- built-in scenario families ---------------------------------------------

def make_personalized(n: int, lattice: LatticeConfig) -> IndependentActivation:
    """One private strategy per node with the quadratic discount curve.

    Requires d == n; strategy v targets exactly node v.
    """
    if lattice.d != n:
        raise ValueError("personalized scenario needs d == n")
    return IndependentActivation(n, lattice, np.arange(n), np.arange(n),
                                 np.tile(quadratic_table(lattice), (n, 1)))


def make_segmented_event(degrees: np.ndarray, lattice: LatticeConfig,
                         top: int, r_max: float, rng) -> IndependentActivation:
    """Event marketing over the ``top`` best-connected nodes.

    Each selected node v gets one event type i_v drawn uniformly from [d]
    and a per-event success rate r drawn uniformly from [0, r_max]; its
    curve is 1 - (1-r)^x.  All other nodes cannot be seeded.
    """
    n = len(degrees)
    top = min(top, n)
    order = np.lexsort((np.arange(n), -np.asarray(degrees)))
    chosen = np.sort(order[:top])
    # one event type and rate per chosen node, drawn in node order
    types, rates = np.empty(len(chosen), dtype=np.int64), np.empty(len(chosen))
    for t in range(len(chosen)):
        types[t], rates[t] = rng.integers(0, lattice.d), rng.uniform(0.0, r_max)
    return IndependentActivation(n, lattice, chosen, types, multi_event_table(rates, lattice))
