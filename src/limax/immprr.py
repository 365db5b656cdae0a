"""Lattice influence maximization on partial-coverage RR sets.

The driver has two phases.  A sampling phase grows an RR-set collection
until its size passes a data-dependent threshold: it guesses decreasing
lower bounds y = n/2, n/4, ... for the optimum, runs the lattice greedy on
the sets generated so far, and accepts the first guess whose greedy
estimate clears (1 + eps') * y.  The final collection size is
lambda_star(ell) / LB.  The selection phase then runs the lattice greedy
once more on the full collection, or reuses the last stage's selection if
the collection did not grow after it.  The stage loop (``_imm_stages``)
serves both solvers: ``limax.immvsn`` runs it on hybrid RR sets with its
virtual max-coverage greedy as the stage estimate.

The greedy adds one delta-step per round to the coordinate with the largest
estimated spread gain.  Under independent strategy activation the gain of
coordinate j only touches RR sets containing a node influenced by j.  The
collection's strategy entries, the (rr_id, table row of q[v,j]) pairs
derived from its member arrays, fall into segments, one per (strategy, RR
set); each caches the product of its ratios (1 - q(x_j + 1)) / (1 - q(x_j))
and the loss 1 - product.  j's gain sums s_i * loss over j's segments, where
s_i = prod_{v in R_i} prod_{j in S_v} (1 - q[v,j](x_j)) is shared per set.
Every stage greedy starts at x = 0, where curves with q(0) = 0 give s_i = 1
exactly, so the greedy then skips the product over the members.

The greedy is lazy (Minoux 1978; CELF, Leskovec et al. 2007): a heap keeps
each coordinate's last computed gain as a bound, and a round recomputes
gains off its top until a fresh one stays there.  The bounds hold whenever
every curve is nondecreasing and in [0, 1]: each factor 1 - q(t) is then
nonnegative and nonincreasing, so s only shrinks, and with it the gain of
every coordinate but the one just advanced.  That one was on top of the
heap and stays there, so the next round refreshes it first; its own gain
may grow if its curve is not concave.  A model whose curves drop or leave
[0, 1], allowed only with ``force=True``, has every bound recomputed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .budgets import PartitionedBudget, TotalBudget, feasible_increments, total_steps
from .graph import DirectedGraph, TriggeringParams
from .rrset import RRCollection, g_hat
from .strategy import (IndependentActivation, LatticeConfig, StrategyMix,
                       validate_model)

__all__ = [
    "ImmParams",
    "UnsupportedModelError",
    "InvalidModelError",
    "compute_m",
    "lambda_star",
    "compute_gamma",
    "effective_ell",
    "make_imm_params",
    "lgreedy",
    "GreedyState",
    "lgreedy_delta",
    "SamplingStats",
    "sampling",
    "ImmResult",
    "run_immprr",
    "immprr",
]

_ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


class UnsupportedModelError(TypeError):
    """The delta-based greedy needs an independent-activation model."""


class InvalidModelError(ValueError):
    """Activation curves failed validation and force was not set."""


@dataclass(frozen=True)
class ImmParams:
    """Accuracy/confidence knobs plus the derived sampling constants.

    ``m_bound`` replaces the log of the number of candidate solutions: with
    K budget steps over d strategies there are at most d^K greedy outputs
    and at most K^d feasible vectors, so min(K ln d, d ln K) bounds both.
    ``gamma`` inflates the confidence target so that a union bound over all
    reachable collection sizes still leaves failure probability 1/n^ell.
    """

    epsilon: float
    ell: float
    m_bound: float
    gamma: float


def compute_m(d: int, budget_steps: int) -> float:
    """min(K ln d, d ln K), with the d=1 degenerate branch dropped and a floor of 1."""
    if budget_steps < 1:
        raise ValueError("budget must be at least one step")
    cands = []
    if d > 1:
        cands.append(budget_steps * math.log(d))
    cands.append(d * math.log(budget_steps))
    return max(1.0, min(cands))


def lambda_star(n: int, epsilon: float, ell: float, m_bound: float) -> float:
    alpha = math.sqrt(ell * math.log(n) + math.log(2.0))
    beta = math.sqrt(_ONE_MINUS_INV_E * (m_bound + alpha * alpha))
    return 2.0 * n * (_ONE_MINUS_INV_E * alpha + beta) ** 2 / (epsilon * epsilon)


def compute_gamma(n: int, ell: float, epsilon: float, m_bound: float,
                  tol: float = 1e-6) -> float:
    """Smallest gamma with ceil(lambda_star(ell+gamma)) <= n^gamma.

    Bisection to ``tol``; the returned value satisfies the inequality and
    the value tol below it does not.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    ln_n = math.log(n)

    def ok(g: float) -> bool:
        lam = lambda_star(n, epsilon, ell + g, m_bound)
        return math.log(math.ceil(lam)) <= g * ln_n

    if ok(0.0):
        return 0.0
    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("gamma search diverged")
    lo = 0.0 if hi == 1.0 else hi / 2.0
    # invariant: ok(hi) holds, ok(lo) does not
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def effective_ell(n: int, ell: float, gamma: float) -> float:
    return ell + gamma + math.log(2.0) / math.log(n)


def make_imm_params(n: int, lattice: LatticeConfig, budget_steps: int,
                    epsilon: float, ell: float) -> ImmParams:
    if epsilon <= 0 or ell <= 0:
        raise ValueError("epsilon and ell must be positive")
    m_bound = compute_m(lattice.d, budget_steps)
    gamma = compute_gamma(n, ell, epsilon, m_bound)
    return ImmParams(epsilon=epsilon, ell=ell, m_bound=m_bound, gamma=gamma)


# --- lattice greedy ----------------------------------------------------------

def _validate_domain(lattice: LatticeConfig, constraint) -> None:
    """Every reachable coordinate value must stay inside the table domain."""
    if isinstance(constraint, TotalBudget):
        reach = constraint.steps
    elif isinstance(constraint, PartitionedBudget):
        reach = max(constraint.caps, default=0)
        if constraint.d != lattice.d:
            raise ValueError("constraint covers a different strategy count")
    else:
        raise TypeError(f"unknown constraint type {type(constraint).__name__}")
    if reach > lattice.budget_steps:
        raise ValueError(
            f"constraint allows {reach} steps on one coordinate but curves "
            f"are tabulated up to {lattice.budget_steps}")


def lgreedy(objective, lattice: LatticeConfig, constraint) -> StrategyMix:
    """Generic hill climb: spend one step per round on the best coordinate.

    ``objective`` maps an int step vector to a number and must be monotone
    with diminishing returns for the approximation guarantee to hold.  Ties
    go to the lowest index; zero-gain rounds still spend budget.  Returns
    early only when no coordinate can grow (exhausted group budgets).
    """
    _validate_domain(lattice, constraint)
    x = np.zeros(lattice.d, dtype=np.int64)
    for _ in range(total_steps(constraint)):
        feas = feasible_increments(x, constraint)
        if len(feas) == 0:
            break
        best_j = -1
        best_val = -math.inf
        for j in feas:
            x[j] += 1
            val = float(objective(x))
            x[j] -= 1
            if val > best_val:
                best_val = val
                best_j = int(j)
        x[best_j] += 1
    return StrategyMix(x)


class GreedyState:
    """Incremental state of the delta-based greedy over one collection.

    Holds the current step vector, the shared per-set products s_i and a
    segment index over the collection's strategy entries.  A segment is the
    run of one strategy's entries in one RR set: ``seg_rr``, ``seg_strat``
    and its first entry in ``seg_start``; strategy j owns the segments
    ``seg_bounds[j]:seg_bounds[j + 1]``.  Each segment caches its ratio
    product ``prod`` = prod (1 - q(x_j + 1)) / (1 - q(x_j)) over its
    entries, which depends on x_j alone, and the loss ``1 - prod`` that the
    gains weigh s by: :meth:`advance` on j folds j's products into s on
    j's sets and recomputes j's products and losses.  The state starts at
    x = 0; where every h_v(0) is zero, as under curves with q(0) = 0, s is
    all ones without a pass over the members.
    """

    def __init__(self, collection: RRCollection, model: IndependentActivation,
                 lattice: LatticeConfig, constraint):
        if getattr(model, "kind", None) != "independent":
            raise UnsupportedModelError(
                "delta greedy requires independent strategy activation")
        self.collection = collection
        self.model = model
        self.lattice = lattice
        self.constraint = constraint
        self.x = np.zeros(lattice.d, dtype=np.int64)
        self._scale = collection.n / collection.theta if collection.theta else 0.0
        rr, self._rows, bounds = collection.strategy_entries()
        # each (strategy, RR set) run's first entry, and the end
        first = np.ones(len(rr) + 1, dtype=bool)
        np.not_equal(rr[1:], rr[:-1], out=first[1:-1])
        first[bounds] = True
        self.seg_start = np.flatnonzero(first)
        self.seg_rr = rr[self.seg_start[:-1]]
        seg_bounds = np.searchsorted(self.seg_start, bounds)
        self.seg_strat = np.repeat(np.arange(lattice.d), np.diff(seg_bounds))
        self.seg_bounds = seg_bounds.tolist()  # read per refresh: plain ints
        # ratio[row, t] = (1 - q(t + 1)) / (1 - q(t)), or 1 at t = top or q(t) = 1
        top = lattice.budget_steps
        den = 1.0 - model._flat_tables[:, :top]
        self._ratio = np.ones((len(den), top + 1))
        np.divide(1.0 - model._flat_tables[:, 1:top + 1], den,
                  out=self._ratio[:, :top], where=den > 0.0)
        self.s = self.recompute_s()
        self.prod = self._products(0, len(self.seg_rr), 0)
        self._loss = 1.0 - self.prod

    def recompute_s(self) -> np.ndarray:
        """From-scratch s_i values at the current step vector: all ones,
        the same bits as the product, when every h_v is zero."""
        h = self.model.h_all(self.x)
        if not h.any():
            return np.ones(self.collection.theta)
        return 1.0 - self.collection.coverage_weights(h)

    def _products(self, a: int, b: int, steps) -> np.ndarray:
        """Ratio products of segments ``a:b`` with their entries at ``steps``."""
        e0, e1 = self.seg_start[a], self.seg_start[b]
        ratio = self._ratio[self._rows[e0:e1], steps]
        starts = self.seg_start[a:b]
        return np.multiply.reduceat(ratio, starts - e0 if e0 else starts)  # e0 = 0 at set-up

    def marginal(self, j: int) -> float:
        """Estimated spread gain of one more step on coordinate j, summed in
        segment order as :meth:`gains` sums it, so the two agree bitwise."""
        a, b = self.seg_bounds[j], self.seg_bounds[j + 1]
        if a == b:
            return 0.0
        seg_gain = self.s[self.seg_rr[a:b]]
        seg_gain *= self._loss[a:b]
        return self._scale * float(np.add.accumulate(seg_gain)[-1])

    def gains(self) -> np.ndarray:
        """Every coordinate's marginal gain: one ``bincount`` over the
        segments, of one segment-sized temporary."""
        w = self.s[self.seg_rr]
        w *= self._loss
        return self._scale * np.bincount(self.seg_strat, w, minlength=self.lattice.d)

    def advance(self, j: int) -> None:
        """Spend one step on coordinate j and fold the change into s."""
        a, b = self.seg_bounds[j], self.seg_bounds[j + 1]
        self.s[self.seg_rr[a:b]] *= self.prod[a:b]
        self.x[j] += 1
        self.prod[a:b] = self._products(a, b, self.x[j])
        np.subtract(1.0, self.prod[a:b], out=self._loss[a:b])


def lgreedy_delta(collection: RRCollection, model, lattice: LatticeConfig,
                  constraint) -> StrategyMix:
    """Delta-based lattice greedy; output matches lgreedy on the estimate
    (same tie rule: the lowest feasible coordinate among the best gains)."""
    _validate_domain(lattice, constraint)
    state = GreedyState(collection, model, lattice, constraint)
    # curves that only fail concavity keep the bounds (see the module docstring)
    lazy = {v.kind for v in validate_model(model, lattice)}.isdisjoint({"decreasing", "range"})
    fresh = np.zeros(lattice.d, dtype=np.int64)  # round of each bound's last refresh
    for r in range(total_steps(constraint)):
        if r == 0 or not lazy:
            heap = list(zip((-state.gains()).tolist(), range(lattice.d)))
            heapq.heapify(heap)
            fresh[:] = r
        feas = feasible_increments(state.x, constraint)
        if len(feas) == 0:
            break
        is_open = np.bincount(feas, minlength=lattice.d) > 0
        while True:
            j = heap[0][1]
            if not is_open[j]:  # its group has closed: dropped for good
                heapq.heappop(heap)
            elif fresh[j] < r:
                heapq.heapreplace(heap, (-state.marginal(j), j))
                fresh[j] = r
            else:
                break
        state.advance(j)
    return StrategyMix(state.x)


# --- sampling phase ----------------------------------------------------------

@dataclass
class SamplingStats:
    theta: int
    lower_bound: float
    gamma: float
    ell_eff: float
    stages_run: int
    hit_stage: int | None


def _stage_greedy(collection: RRCollection, model, lattice, constraint) -> StrategyMix:
    if getattr(model, "kind", None) == "independent":
        return lgreedy_delta(collection, model, lattice, constraint)
    return lgreedy(lambda steps: g_hat(collection, model, steps), lattice, constraint)


def _imm_stages(collection, stage_select, imm: ImmParams, rng):
    """The IMM sampling phase shared by both solvers.

    Stage i grows ``collection`` to theta_i = lambda' * 2^i / n sets and
    stops as soon as ``stage_select(collection)``, which returns the stage
    greedy's spread estimate and its selection, certifies the lower bound
    y = n / 2^i; RR sets from failed stages stay in the collection.  The
    collection then grows to lambda_star / LB sets.

    Returns the stats and the last stage's selection if the collection did
    not grow after it (the final greedy would repeat it), else None.
    """
    n = collection.n
    if n < 2:
        raise ValueError("need at least two nodes")
    ell_eff = effective_ell(n, imm.ell, imm.gamma)
    eps_p = math.sqrt(2.0) * imm.epsilon
    ln_n = math.log(n)
    stages = int(math.floor(math.log2(n)))
    lam_prime = ((2.0 + 2.0 / 3.0 * eps_p)
                 * (imm.m_bound + ell_eff * ln_n + math.log(math.log2(n)))
                 * n / (eps_p * eps_p))
    lb = 1.0
    hit = None
    stage = 0
    for i in range(1, stages + 1):
        stage = i
        y = n / 2.0 ** i
        target = math.floor(lam_prime / y) + 1
        collection.extend(target - collection.theta, rng)
        est, pick = stage_select(collection)
        if est >= (1.0 + eps_p) * y:
            lb = est / (1.0 + eps_p)
            hit = i
            break
    picked_at = collection.theta
    theta_star = lambda_star(n, imm.epsilon, ell_eff, imm.m_bound) / lb
    collection.extend(math.floor(theta_star) + 1 - collection.theta, rng)
    stats = SamplingStats(theta=collection.theta, lower_bound=lb, gamma=imm.gamma,
                          ell_eff=ell_eff, stages_run=stage, hit_stage=hit)
    return stats, pick if collection.theta == picked_at else None


def _sampling(graph: DirectedGraph, params: TriggeringParams, model,
              lattice: LatticeConfig, constraint, imm: ImmParams, rng):
    """:func:`sampling`, plus the reusable last stage mix (or None)."""
    collection = RRCollection(graph, params, model)

    def stage_select(c):
        mix = _stage_greedy(c, model, lattice, constraint)
        return g_hat(c, model, mix), mix

    stats, mix = _imm_stages(collection, stage_select, imm, rng)
    return collection, stats, mix


def sampling(graph: DirectedGraph, params: TriggeringParams, model,
             lattice: LatticeConfig, constraint, imm: ImmParams,
             rng) -> tuple[RRCollection, SamplingStats]:
    """Generate enough RR sets for the approximation guarantee, certifying
    each stage with the lattice greedy's partial-coverage estimate."""
    collection, stats, _ = _sampling(graph, params, model, lattice, constraint, imm, rng)
    return collection, stats


@dataclass
class ImmResult:
    mix: StrategyMix
    collection: RRCollection | None
    stats: SamplingStats | None


def _check_model(model, lattice, force: bool) -> None:
    if force:
        return
    violations = validate_model(model, lattice)
    if violations:
        raise InvalidModelError(
            f"{len(violations)} curve violation(s); first: {violations[0]}")


def run_immprr(graph: DirectedGraph, params: TriggeringParams, model,
               lattice: LatticeConfig, constraint, imm: ImmParams, rng,
               force: bool = False) -> ImmResult:
    if lattice != model.lattice:
        raise ValueError(f"lattice {lattice} differs from the model's {model.lattice}")
    if model.n != graph.n:
        raise ValueError(f"model over {model.n} nodes for a graph of {graph.n}")
    _check_model(model, lattice, force)
    if total_steps(constraint) == 0:
        return ImmResult(StrategyMix.zeros(lattice.d), None, None)
    collection, stats, mix = _sampling(graph, params, model, lattice, constraint, imm, rng)
    if mix is None:
        mix = _stage_greedy(collection, model, lattice, constraint)
    return ImmResult(mix, collection, stats)


def immprr(graph: DirectedGraph, params: TriggeringParams, model,
           lattice: LatticeConfig, constraint, imm: ImmParams, rng,
           force: bool = False) -> StrategyMix:
    """End-to-end driver; see :func:`run_immprr` for the result with stats."""
    return run_immprr(graph, params, model, lattice, constraint, imm, rng,
                      force=force).mix
