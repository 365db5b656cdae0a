"""Lattice strategy mixes and per-node activation models.

A mix assigns each of d strategies a nonnegative amount on a grid of step
size delta.  Amounts are stored as integer step counts throughout (never as
accumulated floats), so greedy runs are exactly reproducible and curve
lookups are O(1) table reads.

Activation comes in two flavors:

* ``IndependentActivation`` -- every strategy j in a node's set S_v tries to
  seed v independently, succeeding with probability ``q[v,j](x_j)``, hence
  ``h_v(x) = 1 - prod_{j in S_v} (1 - q[v,j](x_j))``.  Curves are tabulated
  at the lattice points 0..K.
* ``BlackBoxActivation`` -- an opaque callable ``h(v, x)``; the caller
  asserts monotonicity and diminishing returns, which are not efficiently
  checkable in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LatticeConfig",
    "StrategyMix",
    "IndependentActivation",
    "BlackBoxActivation",
    "CurveDomainError",
    "StrategyNotApplicableError",
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


class StrategyNotApplicableError(LookupError):
    """q requested for a strategy outside the node's strategy set."""


@dataclass(frozen=True)
class LatticeConfig:
    """Strategy count d, granularity delta, and total budget in steps K."""

    d: int
    delta: float
    budget_steps: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.budget_steps < 0:
            raise ValueError("budget_steps must be >= 0")

    @property
    def budget(self) -> float:
        return self.budget_steps * self.delta


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

    def values(self, delta: float) -> np.ndarray:
        return self.steps * float(delta)

    def bump(self, j: int) -> "StrategyMix":
        s = self.steps.copy()
        s[j] += 1
        return StrategyMix(s)

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


# --- curve tables ----------------------------------------------------------

def quadratic_table(lattice: LatticeConfig) -> np.ndarray:
    """Discount-response curve 2x - x^2, clamped at its saturation point x=1."""
    x = np.minimum(np.arange(lattice.budget_steps + 1) * lattice.delta, 1.0)
    return 2.0 * x - x * x


def multi_event_table(r: float, lattice: LatticeConfig) -> np.ndarray:
    """Repeated-event curve 1 - (1-r)^x at x = 0, delta, ..., K*delta."""
    if not (0.0 <= r <= 1.0):
        raise ValueError("r must lie in [0, 1]")
    x = np.arange(lattice.budget_steps + 1) * lattice.delta
    return 1.0 - np.power(1.0 - r, x)


def clamped_table(table: np.ndarray, cap_steps: int) -> np.ndarray:
    """Freeze a curve beyond a per-strategy cap; marginals past the cap are 0."""
    out = np.asarray(table, dtype=np.float64).copy()
    out[cap_steps + 1:] = out[cap_steps]
    return out


# --- models ----------------------------------------------------------------

class IndependentActivation:
    """Independent per-strategy activation with tabulated q curves.

    ``strategies[v]`` is the sorted array S_v of strategy indices that can
    reach node v, and ``tables[v][t]`` is the length-(K+1) lattice table of
    q[v, strategies[v][t]].
    """

    kind = "independent"

    def __init__(self, n: int, lattice: LatticeConfig,
                 strategies: Sequence[np.ndarray], tables: Sequence[np.ndarray]):
        if len(strategies) != n or len(tables) != n:
            raise ValueError("need one strategy set and table block per node")
        self.n = n
        self.lattice = lattice
        self.strategies: list[np.ndarray] = []
        self.tables: list[np.ndarray] = []
        width = lattice.budget_steps + 1
        for v in range(n):
            s = np.asarray(strategies[v], dtype=np.int64)
            t = np.asarray(tables[v], dtype=np.float64).reshape(len(s), width)
            if len(s) and (s.min() < 0 or s.max() >= lattice.d):
                raise ValueError(f"strategy index out of range at node {v}")
            if len(np.unique(s)) != len(s):
                raise ValueError(f"duplicate strategy at node {v}")
            order = np.argsort(s)
            s, t = s[order], t[order]
            s.flags.writeable = False
            t.flags.writeable = False
            self.strategies.append(s)
            self.tables.append(t)
        # flat row-major view for vectorized h over all nodes
        rows = sum(len(s) for s in self.strategies)
        self._flat_nodes = np.empty(rows, dtype=np.int64)
        self._flat_strats = np.empty(rows, dtype=np.int64)
        self._flat_tables = np.empty((rows, width), dtype=np.float64)
        pos = 0
        for v in range(n):
            k = len(self.strategies[v])
            self._flat_nodes[pos:pos + k] = v
            self._flat_strats[pos:pos + k] = self.strategies[v]
            self._flat_tables[pos:pos + k] = self.tables[v]
            pos += k

    def _check_steps(self, steps: np.ndarray) -> None:
        if steps.min(initial=0) < 0 or steps.max(initial=0) > self.lattice.budget_steps:
            raise CurveDomainError("step count outside [0, K]")

    def q_steps(self, v: int, j: int, steps: int) -> float:
        if steps < 0 or steps > self.lattice.budget_steps:
            raise CurveDomainError(f"step count {steps} outside [0, {self.lattice.budget_steps}]")
        t = np.searchsorted(self.strategies[v], j)
        if t >= len(self.strategies[v]) or self.strategies[v][t] != j:
            raise StrategyNotApplicableError(f"strategy {j} does not apply to node {v}")
        return float(self.tables[v][t, steps])

    def h(self, v: int, x) -> float:
        steps = as_steps(x, self.lattice.d)
        self._check_steps(steps)
        acc = 1.0
        tab = self.tables[v]
        for t, j in enumerate(self.strategies[v]):
            acc *= 1.0 - tab[t, steps[j]]
        return 1.0 - acc

    def h_all(self, x) -> np.ndarray:
        """h_v(x) for every node at once."""
        steps = as_steps(x, self.lattice.d)
        self._check_steps(steps)
        acc = np.ones(self.n)
        if len(self._flat_nodes):
            col = np.take_along_axis(
                self._flat_tables, steps[self._flat_strats][:, None], axis=1).ravel()
            np.multiply.at(acc, self._flat_nodes, 1.0 - col)
        return 1.0 - acc


class BlackBoxActivation:
    """Opaque strategy activation h(v, x-values); assumed monotone with
    diminishing returns (not verified)."""

    kind = "blackbox"

    def __init__(self, n: int, lattice: LatticeConfig,
                 fn: Callable[[int, np.ndarray], float]):
        self.n = n
        self.lattice = lattice
        self.fn = fn

    def h(self, v: int, x) -> float:
        steps = as_steps(x, self.lattice.d)
        if steps.min(initial=0) < 0 or steps.max(initial=0) > self.lattice.budget_steps:
            raise CurveDomainError("step count outside [0, K]")
        val = float(self.fn(v, steps * self.lattice.delta))
        if not (0.0 <= val <= 1.0 + 1e-12):
            raise ValueError(f"h({v}, .) = {val} outside [0, 1]")
        return min(val, 1.0)

    def h_all(self, x) -> np.ndarray:
        return np.array([self.h(v, x) for v in range(self.n)])


@dataclass(frozen=True)
class CurveViolation:
    node: int
    strategy: int
    kind: str  # 'origin' | 'range' | 'decreasing' | 'non-concave'
    detail: str


def validate_model(model, lattice: LatticeConfig,
                   tol: float = 1e-12) -> list[CurveViolation]:
    """Check every tabulated curve for q(0)=0, monotonicity, range, and
    discrete concavity up to the budget.  Black-box models are not checkable
    and yield an empty report."""
    if not isinstance(model, IndependentActivation):
        return []
    out: list[CurveViolation] = []
    upto = lattice.budget_steps
    for v in range(model.n):
        for t, j in enumerate(model.strategies[v]):
            tab = model.tables[v][t, :upto + 1]
            if abs(tab[0]) > tol:
                out.append(CurveViolation(v, int(j), "origin", f"q(0) = {tab[0]!r}"))
            if np.any(tab < -tol) or np.any(tab > 1.0 + tol):
                out.append(CurveViolation(v, int(j), "range", "values outside [0, 1]"))
            diffs = np.diff(tab)
            if np.any(diffs < -tol):
                i = int(np.argmax(diffs < -tol))
                out.append(CurveViolation(
                    v, int(j), "decreasing", f"q drops at step {i + 1}"))
            if len(diffs) > 1 and np.any(diffs[1:] > diffs[:-1] + tol):
                i = int(np.argmax(diffs[1:] > diffs[:-1] + tol))
                out.append(CurveViolation(
                    v, int(j), "non-concave",
                    f"marginal grows from step {i + 1} to {i + 2}"))
    return out


# --- built-in scenario families ---------------------------------------------

def make_personalized(n: int, lattice: LatticeConfig) -> IndependentActivation:
    """One private strategy per node with the quadratic discount curve.

    Requires d == n; strategy v targets exactly node v.
    """
    if lattice.d != n:
        raise ValueError("personalized scenario needs d == n")
    table = quadratic_table(lattice)
    return IndependentActivation(
        n, lattice,
        strategies=[np.array([v]) for v in range(n)],
        tables=[table[None, :] for _ in range(n)],
    )


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
    chosen = set(order[:top].tolist())
    strategies, tables = [], []
    empty_s = np.empty(0, dtype=np.int64)
    empty_t = np.empty((0, lattice.budget_steps + 1))
    for v in range(n):
        if v in chosen:
            i_v = int(rng.integers(0, lattice.d))
            r = float(rng.uniform(0.0, r_max))
            strategies.append(np.array([i_v]))
            tables.append(multi_event_table(r, lattice)[None, :])
        else:
            strategies.append(empty_s)
            tables.append(empty_t)
    return IndependentActivation(n, lattice, strategies, tables)
