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

A stage greedy only asks whether its estimate reaches need = (1 + eps') * y.
It returns None at the first round whose fresh top t has est + k * t below
need less a slack, where est sums the gains picked and k counts the steps
left: with s = 1 at the start the gains sum to the final estimate, and under
concave curves no later gain exceeds t.  The rule is on when the solve's one
validate_model report is empty and ``force`` is not set.  The slack, n *
((theta + R + m) * 2^-50 + (4R + 1) * (K + 1)^2 * 1e-12 * e) for R budget
steps, m members and e strategy entries per set, covers rounding (a few
2^-53 of n per set, step and member) and validate_model's 1e-12 tolerance:
a curve that passes lies within (K + 1)^2 * 1e-12 of a faultless one, which
moves an estimate by n * e times that and a gain by four times that.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .budgets import as_partition, feasible_increments, total_steps
from .graph import DirectedGraph, TriggeringParams
from .rrset import RRCollection, g_hat
from .strategy import (IndependentActivation, LatticeConfig, StrategyMix,
                       validate_model)

if TYPE_CHECKING:
    from .immvsn import HybridCollection

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
    reach = int(as_partition(constraint, lattice.d)[1].max(initial=0))
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
        if not isinstance(model, IndependentActivation):
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


def _greedy_flags(report, force: bool = False) -> tuple[bool, bool]:
    """A curve report as the greedy's (lazy, stop) flags: whether stale heap
    bounds hold and whether a stage greedy may stop early."""
    # curves that only fail concavity keep the bounds (see the module docstring)
    lazy = {v.kind for v in report}.isdisjoint({"decreasing", "range"})
    return lazy, not (report or force)


def lgreedy_delta(collection: RRCollection, model, lattice: LatticeConfig,
                  constraint, _stage=None) -> StrategyMix | None:
    """Delta-based lattice greedy; output matches lgreedy on the estimate
    (same tie rule: the lowest feasible coordinate among the best gains).
    Zero-gain rounds still spend their step, on the lowest open coordinate,
    so the whole budget is spent, as in ``immvsn``'s virtual-node greedy.
    The solvers pass ``_stage`` = (lazy, need); see the module docstring."""
    _validate_domain(lattice, constraint)
    state = GreedyState(collection, model, lattice, constraint)
    lazy, need = _stage or (_greedy_flags(validate_model(model, lattice))[0], -math.inf)
    fresh = np.zeros(lattice.d, dtype=np.int64)  # round of each bound's last refresh
    group_of, left = as_partition(constraint, lattice.d)  # left: steps each group may still spend
    is_open = left[group_of] > 0
    rounds, est = int(left.sum()), 0.0
    if need > -math.inf:  # less the slack of the module docstring
        theta, k = collection.theta, lattice.budget_steps
        need -= collection.n * ((theta + rounds + len(collection.members) / theta) * 2.0**-50
                                + (4 * rounds + 1) * (k + 1)**2 * 1e-12 * len(state._rows) / theta)
    # every round spends one step of an open group, so one stays open until the last
    for r in range(rounds):
        if r == 0 or not lazy:
            heap = list(zip((-state.gains()).tolist(), range(lattice.d)))
            heapq.heapify(heap)
            fresh[:] = r
        while True:
            j = heap[0][1]
            if not is_open[j]:  # its group has closed: dropped for good
                heapq.heappop(heap)
            elif fresh[j] < r:
                heapq.heapreplace(heap, (-state.marginal(j), j))
                fresh[j] = r
            else:
                break
        if est + (rounds - r) * -heap[0][0] < need:
            return None
        est -= heap[0][0]
        state.advance(j)
        g = group_of[j]
        left[g] -= 1
        if left[g] == 0:
            is_open[group_of == g] = False
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


def _stage_greedy(collection: RRCollection, model, lattice, constraint, stage):
    if isinstance(model, IndependentActivation):
        return lgreedy_delta(collection, model, lattice, constraint, stage)
    return lgreedy(lambda steps: g_hat(collection, model, steps), lattice, constraint)


def _imm_stages(collection, stage_select, imm: ImmParams, rng):
    """The IMM sampling phase shared by both solvers.

    Stage i grows ``collection`` to theta_i = lambda' * 2^i / n sets and
    stops as soon as ``stage_select(collection, need)``, which returns the
    stage greedy's spread estimate and its selection (or -inf and None once
    it cannot), reaches need = (1 + eps') * y for y = n / 2^i.  RR sets from
    failed stages stay in the collection.  The collection then grows to
    lambda_star / LB sets.

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
        need = (1.0 + eps_p) * y
        est, pick = stage_select(collection, need)
        if est >= need:
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
              lattice: LatticeConfig, constraint, imm: ImmParams, rng, flags):
    """:func:`sampling` under greedy ``flags``, plus the reusable last stage mix (or None)."""
    collection = RRCollection(graph, params, model)
    lazy, stop = flags

    def stage_select(c, need):
        mix = _stage_greedy(c, model, lattice, constraint, (lazy, need if stop else -math.inf))
        return (-math.inf, None) if mix is None else (g_hat(c, model, mix), mix)

    stats, mix = _imm_stages(collection, stage_select, imm, rng)
    return collection, stats, mix


def sampling(graph: DirectedGraph, params: TriggeringParams, model,
             lattice: LatticeConfig, constraint, imm: ImmParams,
             rng) -> tuple[RRCollection, SamplingStats]:
    """Generate enough RR sets for the approximation guarantee, certifying
    each stage with the lattice greedy's partial-coverage estimate."""
    flags = _greedy_flags(validate_model(model, lattice))
    collection, stats, _ = _sampling(graph, params, model, lattice, constraint, imm, rng, flags)
    return collection, stats


@dataclass
class ImmResult:
    """A solver's mix and the (hybrid) RR sets and stats behind it, None at a zero budget."""

    mix: StrategyMix
    collection: RRCollection | HybridCollection | None
    stats: SamplingStats | None


def _check_model(model, lattice, force: bool) -> tuple[bool, bool]:
    """The solve's one curve report, as the greedy flags of :func:`_greedy_flags`."""
    violations = validate_model(model, lattice)
    if violations and not force:
        raise InvalidModelError(
            f"{len(violations)} curve violation(s); first: {violations[0]}")
    return _greedy_flags(violations, force)


def run_immprr(graph: DirectedGraph, params: TriggeringParams, model,
               lattice: LatticeConfig, constraint, imm: ImmParams, rng,
               force: bool = False) -> ImmResult:
    if lattice != model.lattice:
        raise ValueError(f"lattice {lattice} differs from the model's {model.lattice}")
    if model.n != graph.n:
        raise ValueError(f"model over {model.n} nodes for a graph of {graph.n}")
    flags = _check_model(model, lattice, force)
    _validate_domain(lattice, constraint)
    if total_steps(constraint) == 0:
        return ImmResult(StrategyMix.zeros(lattice.d), None, None)
    collection, stats, mix = _sampling(graph, params, model, lattice, constraint, imm, rng, flags)
    if mix is None:
        mix = _stage_greedy(collection, model, lattice, constraint, (flags[0], -math.inf))
    return ImmResult(mix, collection, stats)
