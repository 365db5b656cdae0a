import math
import time

import numpy as np
import pytest

from conftest import random_instance

from limax.budgets import PartitionedBudget, TotalBudget, is_feasible
from limax.graph import from_edges, uniform_ic
from limax.immprr import (GreedyState, ImmParams, InvalidModelError,
                          UnsupportedModelError, compute_gamma, compute_m,
                          effective_ell, immprr, lambda_star, lgreedy,
                          lgreedy_delta, make_imm_params, sampling)
from limax.rng import stream
from limax.rrset import RRCollection, RRSet, g_hat, generate_collection
from limax.strategy import (BlackBoxActivation, IndependentActivation,
                            LatticeConfig, StrategyMix)


# --- parameter formulas --------------------------------------------------------

def test_compute_m_branches():
    # d = 1 must use the d*ln(K) branch, never ln(d) = 0
    assert compute_m(1, 100) == pytest.approx(math.log(100))
    # both branches degenerate -> floored at 1
    assert compute_m(1, 1) == 1.0
    assert compute_m(3, 1) == 1.0
    # generic: min of the two bounds
    assert compute_m(10, 4) == pytest.approx(min(4 * math.log(10), 10 * math.log(4)))


def test_lambda_star_frozen_value():
    # high-precision re-evaluation of the closed form (40-digit mpmath)
    assert lambda_star(100, 0.5, 1.0, 10.0) == pytest.approx(
        16669.505824233230468, rel=1e-12)


def test_lambda_star_structure():
    base = lambda_star(1000, 0.4, 1.0, 5.0)
    assert lambda_star(1000, 0.4, 2.0, 5.0) > base       # monotone in ell
    assert lambda_star(1000, 0.4, 1.0, 9.0) > base       # monotone in M
    assert lambda_star(1000, 0.2, 1.0, 5.0) == pytest.approx(4 * base)  # eps halved


def test_lambda_star_exceeds_alpha_only_bound():
    one_e = 1.0 - 1.0 / math.e
    for n, ell, eps, M in [(50, 1.0, 0.5, 3.0), (10**4, 2.0, 0.1, 40.0)]:
        floor = 2 * n * one_e**2 * (ell * math.log(n) + math.log(2)) / eps**2
        assert lambda_star(n, eps, ell, M) > floor


@pytest.mark.parametrize("n,ell,eps,M", [(1000, 1.0, 0.5, 10.0),
                                         (50, 2.0, 0.3, 3.0)])
def test_compute_gamma_minimality(n, ell, eps, M):
    gamma = compute_gamma(n, ell, eps, M)
    assert math.ceil(lambda_star(n, eps, ell + gamma, M)) <= n ** gamma * (1 + 1e-12)
    below = gamma - 1e-6
    assert math.ceil(lambda_star(n, eps, ell + below, M)) > n ** below


def test_gamma_shrinks_with_n():
    g_small = compute_gamma(10**3, 1.0, 0.5, 10.0)
    g_large = compute_gamma(10**6, 1.0, 0.5, 10.0)
    assert g_large < g_small


# --- generic lattice greedy -----------------------------------------------------

def test_lgreedy_zero_budget():
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=0)
    mix = lgreedy(lambda s: float(s.sum()), lat, TotalBudget(0))
    assert mix == StrategyMix.zeros(3)


def test_lgreedy_linear_objective_dominant_coordinate():
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=4)
    mix = lgreedy(lambda s: float(s[0]), lat, TotalBudget(4))
    assert mix.steps.tolist() == [4, 0]


def test_lgreedy_follows_enumerated_path():
    # six tabulated lattice values; the greedy path is worked out by hand:
    # step 1 compares 3.0 vs 2.9 -> coordinate 0; step 2 compares 3.5 vs 4.4
    vals = {(0, 0): 0.0, (1, 0): 3.0, (0, 1): 2.9,
            (2, 0): 3.5, (1, 1): 4.4, (0, 2): 4.0}
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    mix = lgreedy(lambda s: vals[tuple(s.tolist())], lat, TotalBudget(2))
    assert mix.steps.tolist() == [1, 1]


def test_lgreedy_tie_goes_to_lowest_index():
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=2)
    mix = lgreedy(lambda s: 0.0, lat, TotalBudget(2))
    assert mix.steps.tolist() == [2, 0, 0]


# --- delta greedy ----------------------------------------------------------------

def _single_set_instance(q_step):
    g = from_edges(2, [(0, 1)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    row = np.array([0.0, q_step, q_step])
    model = IndependentActivation(
        2, lat, [np.array([0]), np.empty(0, dtype=np.int64)],
        [row[None, :], np.empty((0, 3))])
    coll = RRCollection(g, uniform_ic(g, 0.0), model)
    coll.add(RRSet(root=0, members=np.array([0]), width=1))
    return g, lat, model, coll


def test_marginal_gain_empty_list_is_zero():
    g, lat, model, coll = _single_set_instance(0.5)
    state = GreedyState(coll, model, lat, TotalBudget(2))
    assert state.marginal(1) == 0.0


def test_marginal_gain_single_set_value():
    # q goes 0 -> 0.5 on the only member: gain (n/theta) * 0.5 = 1.0
    g, lat, model, coll = _single_set_instance(0.5)
    state = GreedyState(coll, model, lat, TotalBudget(2))
    assert state.marginal(0) == pytest.approx(2 * 0.5)


@pytest.mark.parametrize("seed", range(6))
def test_marginal_matches_naive_difference(seed):
    gen = np.random.default_rng(500 + seed)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=3)
    coll = generate_collection(inst.graph, inst.params, inst.model, 150,
                               stream(20, seed))
    constraint = TotalBudget(inst.lattice.budget_steps)
    state = GreedyState(coll, inst.model, inst.lattice, constraint)
    for _ in range(inst.lattice.budget_steps):
        base = g_hat(coll, inst.model, state.x)
        gains = []
        for j in range(inst.lattice.d):
            naive = g_hat(coll, inst.model,
                          state.x + np.eye(inst.lattice.d, dtype=np.int64)[j]) - base
            delta = state.marginal(j)
            assert abs(naive - delta) <= 1e-9
            gains.append(delta)
        j_star = int(np.argmax(gains))
        state.advance(j_star)
        # stored shared products stay consistent with recomputation
        assert np.max(np.abs(state.s - state.recompute_s()), initial=0.0) <= 1e-9


def test_lgreedy_delta_empty_collection_spends_on_first_coordinate():
    g, lat, model, _ = _single_set_instance(0.5)
    coll = RRCollection(g, uniform_ic(g, 0.0), model)  # no sets at all
    mix = lgreedy_delta(coll, model, lat, TotalBudget(2))
    # every round is a zero-gain tie, which goes to coordinate 0
    assert mix.steps.tolist() == [2, 0]


def test_lgreedy_delta_rejects_blackbox():
    g = from_edges(2, [(0, 1)])
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=1)
    model = BlackBoxActivation(2, lat, lambda v, xv: 0.0)
    coll = generate_collection(g, uniform_ic(g, 0.5), model, 5, stream(21, 0))
    with pytest.raises(UnsupportedModelError):
        lgreedy_delta(coll, model, lat, TotalBudget(1))


def test_delta_equals_plain_greedy_handcrafted():
    # 3 RR sets, d = 2, K = 2, asymmetric hand-built tables
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = IndependentActivation(
        3, lat,
        [np.array([0]), np.array([0, 1]), np.array([1])],
        [np.array([[0.0, 0.3, 0.45]]),
         np.array([[0.0, 0.2, 0.3], [0.0, 0.5, 0.6]]),
         np.array([[0.0, 0.4, 0.55]])])
    coll = RRCollection(g, uniform_ic(g, 0.0), model)
    coll.add(RRSet(root=0, members=np.array([0, 1]), width=1))
    coll.add(RRSet(root=2, members=np.array([1, 2]), width=2))
    coll.add(RRSet(root=1, members=np.array([1]), width=1))
    constraint = TotalBudget(2)
    fast = lgreedy_delta(coll, model, lat, constraint)
    plain = lgreedy(lambda s: g_hat(coll, model, s), lat, constraint)
    assert fast == plain


@pytest.mark.parametrize("seed", range(10))
def test_delta_equals_plain_greedy_randomized(seed):
    gen = np.random.default_rng(700 + seed)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=4)
    coll = generate_collection(inst.graph, inst.params, inst.model, 120,
                               stream(22, seed))
    constraint = TotalBudget(inst.lattice.budget_steps)
    fast = lgreedy_delta(coll, inst.model, inst.lattice, constraint)
    plain = lgreedy(lambda s: g_hat(coll, inst.model, s), inst.lattice, constraint)
    assert fast == plain


def test_budget_monotonicity_of_estimate(rng):
    inst = random_instance(rng, n_max=8, m_max=10, d_max=3, steps_max=4,
                           extra_steps=1)
    coll = generate_collection(inst.graph, inst.params, inst.model, 150,
                               stream(23, 0))
    K = inst.lattice.budget_steps - 1
    low = lgreedy_delta(coll, inst.model, inst.lattice, TotalBudget(K))
    high = lgreedy_delta(coll, inst.model, inst.lattice, TotalBudget(K + 1))
    assert g_hat(coll, inst.model, high) >= g_hat(coll, inst.model, low) - 1e-12


def test_partitioned_greedy_respects_groups(rng):
    inst = random_instance(rng, n_max=8, m_max=10, d_max=3, steps_max=4)
    # pad to 4 strategies so we can form two groups of two
    lat = LatticeConfig(d=4, delta=1.0, budget_steps=inst.lattice.budget_steps)
    model = IndependentActivation(
        inst.graph.n, lat, inst.model.strategies,
        inst.model.tables)
    coll = generate_collection(inst.graph, inst.params, model, 100, stream(24, 0))
    constraint = PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[2, 1])
    mix = lgreedy_delta(coll, model, lat, constraint)
    assert is_feasible(mix, constraint)
    assert mix.total_steps == 3  # budget is exhausted, zero gains included


def test_delta_greedy_runtime_scales_roughly_linearly(rng):
    inst = random_instance(rng, n_max=8, m_max=10, d_max=3, steps_max=3)
    constraint = TotalBudget(inst.lattice.budget_steps)
    small = generate_collection(inst.graph, inst.params, inst.model, 400, stream(25, 0))
    big = generate_collection(inst.graph, inst.params, inst.model, 4000, stream(25, 1))
    t0 = time.perf_counter()
    lgreedy_delta(small, inst.model, inst.lattice, constraint)
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    lgreedy_delta(big, inst.model, inst.lattice, constraint)
    t_big = time.perf_counter() - t0
    # 10x the sets should cost roughly 10x, certainly not quadratically
    assert t_big <= 30 * t_small + 0.05


# --- sampling phase --------------------------------------------------------------

def _instance_for_sampling(seed=0):
    gen = np.random.default_rng(900 + seed)
    return random_instance(gen, n_max=8, m_max=10, d_max=2, steps_max=2)


def test_sampling_first_stage_floor():
    inst = _instance_for_sampling()
    n = inst.graph.n
    imm = make_imm_params(n, inst.lattice, inst.lattice.budget_steps, 0.4, 1.0)
    coll, stats = sampling(inst.graph, inst.params, inst.model, inst.lattice,
                           TotalBudget(inst.lattice.budget_steps), imm, stream(26, 0))
    ell_eff = effective_ell(n, imm.ell, imm.gamma)
    eps_p = math.sqrt(2) * imm.epsilon
    lam_prime = ((2 + 2 / 3 * eps_p)
                 * (imm.m_bound + ell_eff * math.log(n) + math.log(math.log2(n)))
                 * n / eps_p**2)
    assert coll.theta >= math.floor(lam_prime / (n / 2)) + 1
    assert stats.theta == coll.theta


def test_sampling_deterministic():
    inst = _instance_for_sampling(1)
    imm = make_imm_params(inst.graph.n, inst.lattice, inst.lattice.budget_steps,
                          0.4, 1.0)
    c1, s1 = sampling(inst.graph, inst.params, inst.model, inst.lattice,
                      TotalBudget(inst.lattice.budget_steps), imm, stream(27, 5))
    c2, s2 = sampling(inst.graph, inst.params, inst.model, inst.lattice,
                      TotalBudget(inst.lattice.budget_steps), imm, stream(27, 5))
    assert c1.theta == c2.theta
    assert s1.lower_bound == s2.lower_bound
    assert all(np.array_equal(a.members, b.members)
               for a, b in zip(c1.sets, c2.sets))


def test_sampling_complete_graph_certainty():
    # complete digraph with p=1: every RR set is V, the first guess verifies,
    # and the lower bound lands within (1+eps') of n
    n = 8
    g = from_edges(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    params = uniform_ic(g, 1.0)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    row = np.array([0.0, 0.9, 0.99])
    model = IndependentActivation(
        n, lat, [np.array([v % 2]) for v in range(n)],
        [row[None, :] for _ in range(n)])
    imm = make_imm_params(n, lat, 2, 0.1, 1.0)
    coll, stats = sampling(g, params, model, lat, TotalBudget(2), imm, stream(28, 0))
    assert stats.hit_stage == 1
    assert stats.lower_bound >= 0.8 * n
    lam = lambda_star(n, imm.epsilon, stats.ell_eff, imm.m_bound)
    assert coll.theta <= math.floor(lam / stats.lower_bound) + 1


# --- driver ----------------------------------------------------------------------

def test_immprr_zero_budget():
    inst = _instance_for_sampling(2)
    imm = ImmParams(epsilon=0.3, ell=1.0, m_bound=1.0, gamma=1.0)
    mix = immprr(inst.graph, inst.params, inst.model, inst.lattice,
                 TotalBudget(0), imm, stream(29, 0))
    assert mix == StrategyMix.zeros(inst.lattice.d)


def test_immprr_blackbox_path():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    params = uniform_ic(g, 0.7)
    lat = LatticeConfig(d=2, delta=0.5, budget_steps=2)
    model = BlackBoxActivation(
        4, lat, lambda v, xv: min(1.0, (0.6 if v < 2 else 0.2) * xv[v % 2]))
    imm = make_imm_params(4, lat, 2, 0.4, 1.0)
    mix = immprr(g, params, model, lat, TotalBudget(2), imm, stream(30, 0))
    assert mix.total_steps == 2


def test_immprr_rejects_invalid_model_unless_forced():
    g = from_edges(3, [(0, 1), (1, 2)])
    params = uniform_ic(g, 0.5)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    bad = IndependentActivation(
        3, lat,
        [np.array([0]), np.array([1]), np.empty(0, dtype=np.int64)],
        [np.array([[0.0, 0.1, 0.9]]),  # convex: violates diminishing returns
         np.array([[0.0, 0.5, 0.6]]),
         np.empty((0, 3))])
    imm = make_imm_params(3, lat, 2, 0.4, 1.0)
    with pytest.raises(InvalidModelError):
        immprr(g, params, bad, lat, TotalBudget(2), imm, stream(31, 0))
    mix = immprr(g, params, bad, lat, TotalBudget(2), imm, stream(31, 0), force=True)
    assert mix.total_steps == 2
