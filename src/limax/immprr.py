"""Lattice influence maximization on partial-coverage RR sets.

The driver has two phases.  A sampling phase grows an RR-set collection
until its size passes a data-dependent threshold: it guesses decreasing
lower bounds y = n/2, n/4, ... for the optimum, runs the lattice greedy on
the sets generated so far, and accepts the first guess whose greedy
estimate clears (1 + eps') * y.  The final collection size is
lambda_star(ell) / LB.  The selection phase then runs the lattice greedy
once more on the full collection.  The stage loop (``_imm_stages``) serves
both solvers: ``limax.immvsn`` runs it on hybrid RR sets with its virtual
max-coverage greedy as the stage estimate.

The greedy adds one delta-step per round to the coordinate with the largest
estimated spread gain.  Under independent strategy activation the gain of
coordinate j only touches RR sets containing a node influenced by j, so
each round walks d per-strategy lists of (rr_id, node) pairs, reusing a
shared per-set product s_i = prod_{v in R_i} prod_{j in S_v} (1 - q[v,j](x_j))
instead of re-evaluating the estimate from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import PartitionedBudget, TotalBudget, feasible_increments, total_steps
from .graph import DirectedGraph, TriggeringParams
from .rng import RandomBuffer
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

    Holds the current step vector, the shared per-set products s_i, and for
    every strategy a frozen view of its (rr_id, node) list: entry rows into
    a per-strategy q-table block, plus segment boundaries grouping entries
    of the same RR set.
    """

    def __init__(self, collection: RRCollection, model: IndependentActivation,
                 lattice: LatticeConfig, constraint, x=None):
        if getattr(model, "kind", None) != "independent":
            raise UnsupportedModelError(
                "delta greedy requires independent strategy activation")
        self.collection = collection
        self.model = model
        self.lattice = lattice
        self.constraint = constraint
        self.x = np.zeros(lattice.d, dtype=np.int64) if x is None else \
            np.array(x.steps if isinstance(x, StrategyMix) else x, dtype=np.int64)
        self._scale = collection.n / collection.theta if collection.theta else 0.0
        self._per_strategy: list[tuple | None] = []
        for j, slot in enumerate(collection.strategy_lists):
            if slot is None:
                self._per_strategy.append(None)
                continue
            ilist, vlist = slot
            rr = np.array(ilist, dtype=np.int64)
            rows = np.empty(len(vlist), dtype=np.int64)
            row_of: dict[int, int] = {}
            tabs: list[np.ndarray] = []
            for t, v in enumerate(vlist):
                r = row_of.get(v)
                if r is None:
                    ti = int(np.searchsorted(model.strategies[v], j))
                    r = row_of[v] = len(tabs)
                    tabs.append(model.tables[v][ti])
                rows[t] = r
            qtab = np.vstack(tabs)
            seg_starts = np.concatenate(
                ([0], np.flatnonzero(rr[1:] != rr[:-1]) + 1)).astype(np.int64)
            seg_rr = rr[seg_starts]
            self._per_strategy.append((rows, seg_starts, seg_rr, qtab))
        self.s = self.recompute_s()

    def recompute_s(self) -> np.ndarray:
        """From-scratch s_i values at the current step vector."""
        return 1.0 - self.collection.coverage_weights(self.model.h_all(self.x))

    def _segment_ratios(self, j: int):
        slot = self._per_strategy[j]
        rows, seg_starts, seg_rr, qtab = slot
        xj = int(self.x[j])
        col_old = qtab[:, xj][rows]
        col_new = qtab[:, xj + 1][rows]
        den = 1.0 - col_old
        ratio = np.divide(1.0 - col_new, den,
                          out=np.ones_like(den), where=den > 0.0)
        return seg_rr, np.multiply.reduceat(ratio, seg_starts)

    def marginal(self, j: int) -> float:
        """Estimated spread gain of one more step on coordinate j."""
        if self.x[j] + 1 > self.lattice.budget_steps:
            return 0.0
        if self._per_strategy[j] is None:
            return 0.0
        seg_rr, prod = self._segment_ratios(j)
        return self._scale * float(self.s[seg_rr] @ (1.0 - prod))

    def advance(self, j: int) -> None:
        """Spend one step on coordinate j and fold the change into s."""
        if self._per_strategy[j] is not None and self.x[j] + 1 <= self.lattice.budget_steps:
            seg_rr, prod = self._segment_ratios(j)
            self.s[seg_rr] *= prod
        self.x[j] += 1


def lgreedy_delta(collection: RRCollection, model, lattice: LatticeConfig,
                  constraint) -> StrategyMix:
    """Delta-based lattice greedy; output matches lgreedy on the estimate
    exactly (same tie rule), in time linear in the per-strategy lists."""
    _validate_domain(lattice, constraint)
    state = GreedyState(collection, model, lattice, constraint)
    for _ in range(total_steps(constraint)):
        feas = feasible_increments(state.x, constraint)
        if len(feas) == 0:
            break
        best_j = -1
        best_val = -math.inf
        for j in feas:
            val = state.marginal(int(j))
            if val > best_val:
                best_val = val
                best_j = int(j)
        state.advance(best_j)
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


def _imm_stages(collection, stage_estimate, imm: ImmParams, rng) -> SamplingStats:
    """The IMM sampling phase shared by both solvers.

    Stage i grows ``collection`` to theta_i = lambda' * 2^i / n sets and
    stops as soon as ``stage_estimate(collection)``, the spread estimate of
    the stage greedy, certifies the lower bound y = n / 2^i; RR sets from
    failed stages stay in the collection.  The collection then grows to
    lambda_star / LB sets.
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
    buf = RandomBuffer(rng)
    lb = 1.0
    hit = None
    stage = 0
    for i in range(1, stages + 1):
        stage = i
        y = n / 2.0 ** i
        target = math.floor(lam_prime / y) + 1
        collection.extend(target - collection.theta, buf)
        est = stage_estimate(collection)
        if est >= (1.0 + eps_p) * y:
            lb = est / (1.0 + eps_p)
            hit = i
            break
    theta_star = lambda_star(n, imm.epsilon, ell_eff, imm.m_bound) / lb
    collection.extend(math.floor(theta_star) + 1 - collection.theta, buf)
    return SamplingStats(theta=collection.theta, lower_bound=lb, gamma=imm.gamma,
                         ell_eff=ell_eff, stages_run=stage, hit_stage=hit)


def sampling(graph: DirectedGraph, params: TriggeringParams, model,
             lattice: LatticeConfig, constraint, imm: ImmParams,
             rng) -> tuple[RRCollection, SamplingStats]:
    """Generate enough RR sets for the approximation guarantee, certifying
    each stage with the lattice greedy's partial-coverage estimate."""
    collection = RRCollection(graph, params, model)
    stats = _imm_stages(
        collection,
        lambda c: g_hat(c, model, _stage_greedy(c, model, lattice, constraint)),
        imm, rng)
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
    _check_model(model, lattice, force)
    if total_steps(constraint) == 0:
        return ImmResult(StrategyMix.zeros(lattice.d), None, None)
    collection, stats = sampling(graph, params, model, lattice, constraint, imm, rng)
    mix = _stage_greedy(collection, model, lattice, constraint)
    return ImmResult(mix, collection, stats)


def immprr(graph: DirectedGraph, params: TriggeringParams, model,
           lattice: LatticeConfig, constraint, imm: ImmParams, rng,
           force: bool = False) -> StrategyMix:
    """End-to-end driver; see :func:`run_immprr` for the result with stats."""
    return run_immprr(graph, params, model, lattice, constraint, imm, rng,
                      force=force).mix
