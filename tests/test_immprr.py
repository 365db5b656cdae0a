import importlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_around, random_instance, stage_budget, stage_reuse_instance

from limax.budgets import (PartitionedBudget, TotalBudget, feasible_increments,
                           is_feasible, total_steps)
from limax.graph import assign_weighted_cascade, from_edges, gen_erdos_renyi, uniform_ic
from limax.immprr import (GreedyState, ImmParams, InvalidModelError,
                          UnsupportedModelError, compute_gamma, compute_m,
                          effective_ell, lambda_star, lgreedy,
                          lgreedy_delta, make_imm_params, run_immprr, sampling)
from limax.rng import stream
from limax.rrset import RRCollection, RRSet, g_hat, generate_collection
from limax.strategy import (BlackBoxActivation, IndependentActivation,
                            LatticeConfig, StrategyMix, make_segmented_event,
                            validate_model)


# --- parameter formulas --------------------------------------------------------

def test_compute_m_branches():
    # d = 1 must use the d*ln(K) branch, never ln(d) = 0
    assert compute_m(1, 100) == pytest.approx(math.log(100))
    # both branches degenerate -> floored at 1
    assert compute_m(1, 1) == 1.0
    assert compute_m(3, 1) == 1.0
    # K = 0 leaves one feasible mix: floored at 1 as well
    assert compute_m(1, 0) == compute_m(5, 0) == 1.0
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
    model = IndependentActivation(2, lat, [0], [0], row[None, :])
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
    model = BlackBoxActivation(2, lat, lambda xv: np.zeros(2))
    coll = generate_collection(g, uniform_ic(g, 0.5), model, 5, stream(21, 0))
    with pytest.raises(UnsupportedModelError):
        lgreedy_delta(coll, model, lat, TotalBudget(1))


def test_delta_equals_plain_greedy_handcrafted():
    # 3 RR sets, d = 2, K = 2, asymmetric hand-built tables
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = IndependentActivation(
        3, lat, [0, 1, 1, 2], [0, 0, 1, 1],
        [[0.0, 0.3, 0.45], [0.0, 0.2, 0.3], [0.0, 0.5, 0.6], [0.0, 0.4, 0.55]])
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
    model = IndependentActivation(inst.graph.n, lat, inst.model._flat_nodes,
                                  inst.model._flat_strats, inst.model._flat_tables)
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


# --- whole-array gains against marginals -------------------------------------------

def _greedy_rounds(coll, model, lat, constraint):
    """Run the delta greedy round by round, checking in every round that the
    whole-array gain vector equals the per-coordinate marginals bitwise: the
    lazy heap compares a refreshed marginal against bounds from either."""
    state = GreedyState(coll, model, lat, constraint)
    for _ in range(total_steps(constraint)):
        feas = feasible_increments(state.x, constraint)
        if len(feas) == 0:
            break
        gains = state.gains()
        scratch = np.array([state.marginal(j) for j in range(lat.d)])
        assert gains.tobytes() == scratch.tobytes()
        masked = np.full(lat.d, -np.inf)
        masked[feas] = gains[feas]
        state.advance(int(np.argmax(masked)))
    return StrategyMix(state.x)


@pytest.mark.parametrize("seed", range(8))
def test_cached_gains_match_marginals_total_budget(seed):
    gen = np.random.default_rng(1300 + seed)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=4)
    coll = generate_collection(inst.graph, inst.params, inst.model, 120,
                               stream(32, seed))
    constraint = TotalBudget(inst.lattice.budget_steps)
    mix = _greedy_rounds(coll, inst.model, inst.lattice, constraint)
    assert mix == lgreedy_delta(coll, inst.model, inst.lattice, constraint)
    assert mix == lgreedy(lambda s: g_hat(coll, inst.model, s), inst.lattice, constraint)


@pytest.mark.parametrize("seed", range(8))
def test_cached_gains_match_marginals_partitioned_budget(seed):
    gen = np.random.default_rng(1400 + seed)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=4)
    K = inst.lattice.budget_steps
    # strategies past the instance's d reach nobody: their gains stay zero
    lat = LatticeConfig(d=5, delta=1.0, budget_steps=K)
    model = IndependentActivation(inst.graph.n, lat, inst.model._flat_nodes,
                                  inst.model._flat_strats, inst.model._flat_tables)
    coll = generate_collection(inst.graph, inst.params, model, 120, stream(33, seed))
    caps = gen.integers(0, K + 1, size=2).tolist()
    constraint = PartitionedBudget(groups=[(0, 3), (1, 2, 4)], caps=caps)
    mix = _greedy_rounds(coll, model, lat, constraint)
    assert is_feasible(mix, constraint)
    assert mix == lgreedy_delta(coll, model, lat, constraint)
    assert mix == lgreedy(lambda s: g_hat(coll, model, s), lat, constraint)


def test_zero_gain_rounds_empty_collection():
    g, lat, model, _ = _single_set_instance(0.5)
    coll = RRCollection(g, uniform_ic(g, 0.0), model)
    state = GreedyState(coll, model, lat, TotalBudget(2))
    assert state.gains().tolist() == [0.0, 0.0]
    assert _greedy_rounds(coll, model, lat, TotalBudget(2)).steps.tolist() == [2, 0]


def test_zero_gain_rounds_all_zero_model():
    gen = np.random.default_rng(1500)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=3)
    zero = IndependentActivation(inst.graph.n, inst.lattice, inst.model._flat_nodes,
                                 inst.model._flat_strats, np.zeros_like(inst.model._flat_tables))
    coll = generate_collection(inst.graph, inst.params, zero, 60, stream(34, 0))
    constraint = TotalBudget(inst.lattice.budget_steps)
    state = GreedyState(coll, zero, inst.lattice, constraint)
    # exact zeros, not rounding residue, so the lowest index wins every tie
    assert np.all(state.gains() == 0.0)
    mix = _greedy_rounds(coll, zero, inst.lattice, constraint)
    assert mix.steps[0] == inst.lattice.budget_steps
    assert mix == lgreedy(lambda s: g_hat(coll, zero, s), inst.lattice, constraint)


def test_coordinate_at_last_step_scores_exactly_zero():
    gen = np.random.default_rng(1600)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=3)
    coll = generate_collection(inst.graph, inst.params, inst.model, 80, stream(35, 0))
    K = inst.lattice.budget_steps
    state = GreedyState(coll, inst.model, inst.lattice, TotalBudget(K))
    j = int(np.argmax(state.gains()))
    assert state.gains()[j] > 0.0
    for _ in range(K):
        state.advance(j)
    assert state.x[j] == K
    assert state.gains()[j] == 0.0 and state.marginal(j) == 0.0
    scratch = np.array([state.marginal(i) for i in range(inst.lattice.d)])
    assert state.gains().tobytes() == scratch.tobytes()
    assert np.max(np.abs(state.s - state.recompute_s())) <= 1e-12


@pytest.mark.parametrize("q0", [0.0, 1e-13])
def test_initial_s_equals_coverage_product_bitwise(q0):
    """At x = 0, s is 1 - coverage bitwise: all ones when every h_v is zero,
    the full product when q(0) > 0 passes validation within its tolerance."""
    gen = np.random.default_rng(1650)
    inst = random_instance(gen, n_max=8, m_max=12, d_max=3, steps_max=3)
    tables = inst.model._flat_tables.copy()
    tables[:, 0] = q0
    model = IndependentActivation(inst.graph.n, inst.lattice, inst.model._flat_nodes,
                                  inst.model._flat_strats, tables)
    assert validate_model(model, inst.lattice) == []
    coll = generate_collection(inst.graph, inst.params, model, 200, stream(35, 1))
    state = GreedyState(coll, model, inst.lattice, TotalBudget(inst.lattice.budget_steps))
    s = 1.0 - coll.coverage_weights(model.h_all(np.zeros(inst.lattice.d, dtype=np.int64)))
    assert state.s.tobytes() == s.tobytes()
    assert (s < 1.0).any() == (q0 > 0.0)


def test_greedy_state_at_zero_allocates_less_than_the_members():
    """With the curves on 2 % of the nodes, the strategy entries are far
    fewer than the members, and building the greedy at x = 0 allocates no
    member-sized temporary."""
    n = 5000
    graph = gen_erdos_renyi(n, 5 * n, stream(36, 0))
    lat = LatticeConfig(d=4, delta=1.0, budget_steps=3)
    gen = np.random.default_rng(1660)
    nodes = gen.choice(n, size=n // 50, replace=False)
    model = IndependentActivation(n, lat, nodes, gen.integers(0, lat.d, size=len(nodes)),
                                  np.tile([0.0, 0.3, 0.5, 0.6], (len(nodes), 1)))
    coll = generate_collection(graph, assign_weighted_cascade(graph), model, 20_000,
                               stream(36, 1))
    assert len(coll.strategy_entries()[0]) * 10 < len(coll.members)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        GreedyState(coll, model, lat, TotalBudget(lat.budget_steps))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < coll.members.nbytes


# --- lazy greedy --------------------------------------------------------------------

def _check_picks(monkeypatch):
    """Make every ``GreedyState.advance`` first assert that its coordinate is
    the masked whole-array argmax of ``gains()``; returns the picks."""
    advance = GreedyState.advance
    picks = []

    def checked(state, j):
        feas = feasible_increments(state.x, state.constraint)
        masked = np.full(state.lattice.d, -np.inf)
        masked[feas] = state.gains()[feas]
        assert j == int(np.argmax(masked))
        picks.append(j)
        advance(state, j)

    monkeypatch.setattr(GreedyState, "advance", checked)
    return picks


@pytest.mark.parametrize("seed", range(6))
def test_lazy_pick_is_whole_array_argmax(monkeypatch, seed):
    gen = np.random.default_rng(1700 + seed)
    inst = random_instance(gen, n_max=12, m_max=30, d_max=6, steps_max=5)
    K = inst.lattice.budget_steps
    lat = LatticeConfig(d=8, delta=1.0, budget_steps=K)  # 6-7 reach nobody
    model = IndependentActivation(inst.graph.n, lat, inst.model._flat_nodes,
                                  inst.model._flat_strats, inst.model._flat_tables)
    coll = generate_collection(inst.graph, inst.params, model, 300, stream(36, seed))
    caps = gen.integers(0, K + 1, size=2).tolist()
    for constraint in (TotalBudget(K),
                       PartitionedBudget(groups=[(0, 3, 6), (1, 2, 4, 5, 7)], caps=caps)):
        picks = _check_picks(monkeypatch)
        mix = lgreedy_delta(coll, model, lat, constraint)
        assert len(picks) == total_steps(constraint)
        assert mix == lgreedy(lambda s: g_hat(coll, model, s), lat, constraint)


def test_lazy_zero_gain_ties_go_to_lowest_index(monkeypatch):
    gen = np.random.default_rng(1500)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=3)
    K = inst.lattice.budget_steps
    lat = LatticeConfig(d=5, delta=1.0, budget_steps=K)
    zero = IndependentActivation(inst.graph.n, lat, inst.model._flat_nodes,
                                 inst.model._flat_strats, np.zeros_like(inst.model._flat_tables))
    coll = generate_collection(inst.graph, inst.params, zero, 60, stream(34, 1))
    picks = _check_picks(monkeypatch)
    lgreedy_delta(coll, zero, lat, TotalBudget(K))
    assert picks == [0] * K
    picks.clear()
    lgreedy_delta(coll, zero, lat,
                  PartitionedBudget(groups=[(0, 3), (1, 2, 4)], caps=[1, K]))
    assert picks == [0] + [1] * K


def _redrawn(gen, model, table) -> IndependentActivation:
    """``model`` with new curves ``table(gen, rows, K)``, drawn node by node."""
    K = model.lattice.budget_steps
    tabs = [table(gen, rows, K) for rows in np.diff(model._indptr).tolist()]
    return IndependentActivation(model.n, model.lattice, model._flat_nodes,
                                 model._flat_strats, np.concatenate(tabs))


def _rough_table(gen, rows: int, steps: int) -> np.ndarray:
    """Random curves with q(0) = 0 that may drop and need not be concave."""
    tab = gen.uniform(0.0, 1.0, size=(rows, steps + 1))
    tab[:, 0] = 0.0
    return tab


# on these seeds a greedy that trusts its stale bounds picks differently
# from lgreedy: curves that drop let s grow back
@pytest.mark.parametrize("seed", [18, 125, 137, 237, 261])
def test_forced_invalid_model_refreshes_every_bound(monkeypatch, seed):
    gen = np.random.default_rng(4000 + seed)
    inst = random_instance(gen, n_max=8, m_max=12, d_max=4, steps_max=4)
    K = inst.lattice.budget_steps
    model = _redrawn(gen, inst.model, _rough_table)
    assert validate_model(model, inst.lattice)
    coll = generate_collection(inst.graph, inst.params, model, 120, stream(60, seed))
    picks = _check_picks(monkeypatch)
    mix = lgreedy_delta(coll, model, inst.lattice, TotalBudget(K))
    assert len(picks) == K
    assert mix == lgreedy(lambda s: g_hat(coll, model, s), inst.lattice, TotalBudget(K))


def _convex_table(gen, rows: int, steps: int) -> np.ndarray:
    """Random nondecreasing curves in [0, 1] with q(0) = 0 whose increments
    grow: convex, so not concave once there are two steps."""
    inc = np.sort(gen.uniform(0.0, 1.0, size=(rows, steps)), axis=1)
    tab = np.concatenate((np.zeros((rows, 1)), np.cumsum(inc, axis=1)), axis=1)
    return tab / tab[:, -1:] * gen.uniform(0.5, 1.0, size=(rows, 1))


# nondecreasing curves in [0, 1] only let s shrink, so the stale bounds hold
@pytest.mark.parametrize("seed", range(6))
def test_forced_convex_model_keeps_lazy_bounds(monkeypatch, seed):
    gen = np.random.default_rng(4100 + seed)
    inst = random_instance(gen, n_max=8, m_max=12, d_max=4, steps_max=3, extra_steps=1)
    K = inst.lattice.budget_steps
    model = _redrawn(gen, inst.model, _convex_table)
    kinds = {v.kind for v in validate_model(model, inst.lattice)}
    assert kinds == {"non-concave"}
    coll = generate_collection(inst.graph, inst.params, model, 120, stream(61, seed))
    picks = _check_picks(monkeypatch)
    gains = GreedyState.gains
    calls = []
    monkeypatch.setattr(GreedyState, "gains", lambda state: calls.append(1) or gains(state))
    mix = lgreedy_delta(coll, model, inst.lattice, TotalBudget(K))
    assert len(picks) == K
    assert len(calls) == 1 + K  # the first bounds, then one per pick check
    assert mix == lgreedy(lambda s: g_hat(coll, model, s), inst.lattice, TotalBudget(K))


# --- early stop of a stage greedy ---------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), partitioned=st.booleans())
def test_stage_greedy_stops_only_when_need_is_out_of_reach(seed, partitioned):
    """A greedy given a stage threshold returns None only if its full run
    misses it, and otherwise the full run's mix."""
    gen = np.random.default_rng(seed)
    inst = random_instance(gen, n_max=10, m_max=16, d_max=5, steps_max=4)
    constraint = stage_budget(gen, inst.lattice.d, inst.lattice.budget_steps, partitioned)
    coll = generate_collection(inst.graph, inst.params, inst.model, 80, stream(62, seed))
    full = lgreedy_delta(coll, inst.model, inst.lattice, constraint)
    est = g_hat(coll, inst.model, full)
    for need in needs_around(est, total_steps(constraint)):
        mix = lgreedy_delta(coll, inst.model, inst.lattice, constraint, (True, need))
        assert est < need if mix is None else mix == full
    assert mix is None  # the last threshold is out of reach


def test_stage_greedy_stops_after_few_rounds(monkeypatch):
    graph, params, model, lat, _ = stage_reuse_instance()
    coll = generate_collection(graph, params, model, 400, stream(63, 0))
    est = g_hat(coll, model, lgreedy_delta(coll, model, lat, TotalBudget(10)))
    picks = _check_picks(monkeypatch)
    assert lgreedy_delta(coll, model, lat, TotalBudget(10), (True, 1.5 * est)) is None
    assert 0 < len(picks) < 10


def test_one_curve_report_per_solve(monkeypatch):
    graph, params, model, lat, imm = stage_reuse_instance()
    module = importlib.import_module("limax.immprr")
    report, greedy = module.validate_model, module.lgreedy_delta
    calls, stages = [], []
    monkeypatch.setattr(module, "validate_model", lambda *a: calls.append(1) or report(*a))
    monkeypatch.setattr(module, "lgreedy_delta", lambda *a: stages.append(a[4]) or greedy(*a))
    for force in (False, True):
        calls.clear()
        stages.clear()
        run_immprr(graph, params, model, lat, TotalBudget(10), imm, stream(11, 0), force=force)
        assert len(calls) == 1 and len(stages) > 2
        # forced models never stop early; a failing stage of a checked one may
        assert any(need > -math.inf for _, need in stages) != force


# a forced non-concave model keeps its lazy bounds but never stops early
@pytest.mark.parametrize("seed", range(6))
def test_forced_convex_model_never_stops_early(monkeypatch, seed):
    gen = np.random.default_rng(4200 + seed)
    inst = random_instance(gen, n_max=8, m_max=12, d_max=4, steps_max=3, extra_steps=1)
    K = inst.lattice.budget_steps
    model = _redrawn(gen, inst.model, _convex_table)
    module = importlib.import_module("limax.immprr")
    greedy = module.lgreedy_delta
    stages, mixes = [], []

    def recorded(*args):
        stages.append(args[4])
        mixes.append(greedy(*args))
        return mixes[-1]

    monkeypatch.setattr(module, "lgreedy_delta", recorded)
    imm = make_imm_params(inst.graph.n, inst.lattice, K, 0.5, 1.0)
    run_immprr(inst.graph, inst.params, model, inst.lattice, TotalBudget(K), imm,
               stream(64, seed), force=True)
    assert stages and all(stage == (True, -math.inf) for stage in stages)
    assert all(mix.total_steps == K for mix in mixes)


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
    model = IndependentActivation(n, lat, np.arange(n), np.arange(n) % 2,
                                  np.tile([0.0, 0.9, 0.99], (n, 1)))
    imm = make_imm_params(n, lat, 2, 0.1, 1.0)
    coll, stats = sampling(g, params, model, lat, TotalBudget(2), imm, stream(28, 0))
    assert stats.hit_stage == 1
    assert stats.lower_bound >= 0.8 * n
    lam = lambda_star(n, imm.epsilon, stats.ell_eff, imm.m_bound)
    assert coll.theta <= math.floor(lam / stats.lower_bound) + 1


@pytest.mark.parametrize("seed,grows", [(3, False), (0, True)])
def test_final_greedy_reuses_last_stage_pick(monkeypatch, seed, grows):
    graph, params, model, lat, imm = stage_reuse_instance()
    calls = []
    module = importlib.import_module("limax.immprr")
    greedy = module.lgreedy_delta

    def counted(*args):
        calls.append(args[0].theta)
        return greedy(*args)

    monkeypatch.setattr(module, "lgreedy_delta", counted)
    res = run_immprr(graph, params, model, lat, TotalBudget(10), imm, stream(11, seed))
    stats = res.stats
    last = calls[stats.stages_run - 1]
    # lambda* / LB sets asked for more than the last stage's collection
    assert (math.floor(lambda_star(graph.n, imm.epsilon, stats.ell_eff, imm.m_bound)
                       / stats.lower_bound) + 1 > last) == grows
    # one greedy per stage, plus a final one only if the last stage's
    # collection grew
    assert (last < stats.theta) == grows
    assert len(calls) == stats.stages_run + grows
    assert res.mix == greedy(res.collection, model, lat, TotalBudget(10))


# --- driver ----------------------------------------------------------------------

def test_immprr_zero_budget():
    inst = _instance_for_sampling(2)
    imm = ImmParams(epsilon=0.3, ell=1.0, m_bound=1.0, gamma=1.0)
    mix = run_immprr(inst.graph, inst.params, inst.model, inst.lattice,
                     TotalBudget(0), imm, stream(29, 0)).mix
    assert mix == StrategyMix.zeros(inst.lattice.d)


def test_immprr_blackbox_path():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    params = uniform_ic(g, 0.7)
    lat = LatticeConfig(d=2, delta=0.5, budget_steps=2)
    model = BlackBoxActivation(
        4, lat, lambda xv: np.minimum(1.0, np.array([0.6, 0.6, 0.2, 0.2]) * xv[[0, 1, 0, 1]]))
    imm = make_imm_params(4, lat, 2, 0.4, 1.0)
    mix = run_immprr(g, params, model, lat, TotalBudget(2), imm, stream(30, 0)).mix
    assert mix.total_steps == 2


def test_immprr_blackbox_matches_independent_model():
    """A black box that wraps an independent model's ``h_all`` runs the
    general greedy over ``g_hat``, one ``fn`` call per estimate, and lands on
    the independent solve's theta and mix (n = 1000 ER, weighted cascade,
    segmented events, d = 10, K = 10)."""
    g = gen_erdos_renyi(1000, 5000, stream(49, 0))
    params = assign_weighted_cascade(g)
    lat = LatticeConfig(d=10, delta=1.0, budget_steps=10)
    model = make_segmented_event(g.in_degrees() + g.out_degrees(), lat, 100, 0.3,
                                 stream(49, 1))
    calls = [0]

    def fn(xv):
        calls[0] += 1
        return model.h_all(np.rint(xv / lat.delta).astype(np.int64))

    box = BlackBoxActivation(1000, lat, fn)
    imm = make_imm_params(1000, lat, 10, 0.5, 1.0)
    ref = run_immprr(g, params, model, lat, TotalBudget(10), imm, stream(49, 2))
    got = run_immprr(g, params, box, lat, TotalBudget(10), imm, stream(49, 2))
    assert (got.stats.theta, got.mix) == (ref.stats.theta, ref.mix)
    assert got.stats.lower_bound == ref.stats.lower_bound
    # each stage and the final greedy: at most d estimates per round, plus
    # one per stage for its certificate
    stages = got.stats.stages_run
    assert calls[0] <= (stages + 1) * 10 * lat.d + stages


def test_immprr_rejects_invalid_model_unless_forced():
    g = from_edges(3, [(0, 1), (1, 2)])
    params = uniform_ic(g, 0.5)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    bad = IndependentActivation(
        3, lat, [0, 1], [0, 1],
        [[0.0, 0.1, 0.9],  # convex: violates diminishing returns
         [0.0, 0.5, 0.6]])
    imm = make_imm_params(3, lat, 2, 0.4, 1.0)
    with pytest.raises(InvalidModelError):
        run_immprr(g, params, bad, lat, TotalBudget(2), imm, stream(31, 0))
    mix = run_immprr(g, params, bad, lat, TotalBudget(2), imm, stream(31, 0), force=True).mix
    assert mix.total_steps == 2


def test_sampling_rejects_invalid_model_as_run_immprr_does():
    # a 4-node chain with two convex rows: both entry points run one curve
    # check and raise the same error
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    params = uniform_ic(g, 0.5)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    bad = IndependentActivation(4, lat, [0, 2], [0, 1], [[0.0, 0.1, 0.9], [0.0, 0.1, 0.9]])
    imm = make_imm_params(4, lat, 2, 0.4, 1.0)
    messages = []
    for solve in (sampling, run_immprr):
        with pytest.raises(InvalidModelError, match=r"^2 curve violation\(s\); first: ") as err:
            solve(g, params, bad, lat, TotalBudget(2), imm, stream(31, 0))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_immprr_rejects_lattice_unequal_to_model_lattice():
    # a model tabulated for K = 2 under a K = 3 lattice (d = 2, 3-node chain)
    g = from_edges(3, [(0, 1), (1, 2)])
    params = uniform_ic(g, 0.5)
    narrow = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=3)
    rows = np.array([[0.0, 0.4, 0.6], [0.0, 0.5, 0.7]])
    model = IndependentActivation(3, narrow, np.repeat(np.arange(3), 2), [0, 1] * 3,
                                  np.tile(rows, (3, 1)))
    imm = make_imm_params(3, lat, 3, 0.5, 1.0)
    msg = (r"^lattice LatticeConfig\(d=2, delta=1.0, budget_steps=3\) differs from "
           r"the model's LatticeConfig\(d=2, delta=1.0, budget_steps=2\)$")
    for force in (False, True):
        with pytest.raises(ValueError, match=msg):
            run_immprr(g, params, model, lat, TotalBudget(3), imm, stream(47, 0), force=force)
