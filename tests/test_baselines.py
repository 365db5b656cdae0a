import numpy as np
import pytest

from limax.baselines import UnsupportedScenarioError, cd, hd, mclg, ud
from limax.budgets import TotalBudget, is_feasible
from limax.graph import from_edges, gen_erdos_renyi, uniform_ic
from limax.immprr import lgreedy_delta
from limax.oracles import exact_g, exact_opt
from limax.rng import stream
from limax.rrset import g_hat, generate_collection
from limax.strategy import (BlackBoxActivation, IndependentActivation,
                            LatticeConfig, StrategyMix, make_personalized)


def _personal_instance(n=8, m=14, seed=0, steps=10, delta=0.1):
    g = gen_erdos_renyi(n, m, stream(1000 + seed, 0))
    params = uniform_ic(g, 0.4)
    lat = LatticeConfig(d=n, delta=delta, budget_steps=steps)
    model = make_personalized(n, lat)
    return g, params, model, lat


def test_mclg_zero_budget():
    g, params, model, lat = _personal_instance()
    mix = mclg(g, params, model, lat, TotalBudget(0), sims=50, rng=stream(50, 0))
    assert mix == StrategyMix.zeros(lat.d)


def test_mclg_single_strategy_spends_everything():
    g = from_edges(3, [(0, 1), (1, 2)])
    params = uniform_ic(g, 0.6)
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    row = np.array([0.0, 0.4, 0.6])
    model = IndependentActivation(3, lat, [0], [0], row[None, :])
    mix = mclg(g, params, model, lat, TotalBudget(2), sims=200, rng=stream(50, 1))
    assert mix.steps.tolist() == [2]


def test_mclg_near_optimal_on_oracle_instance():
    # small instance where the exact optimum is enumerable
    g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)])
    params = uniform_ic(g, 0.5)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = IndependentActivation(6, lat, [0, 3, 2], [0, 1, 1],
                                  [[0.0, 0.5, 0.7], [0.0, 0.6, 0.8], [0.0, 0.3, 0.45]])
    _, opt = exact_opt(g, params, model, lat, TotalBudget(2))
    wins = 0
    runs = 100
    for t in range(runs):
        mix = mclg(g, params, model, lat, TotalBudget(2), sims=10_000,
                   rng=stream(51, t))
        if exact_g(g, params, model, mix) >= 0.9 * opt:
            wins += 1
    assert wins >= 90


def test_ud_rejects_non_personalized():
    g = from_edges(4, [(0, 1), (2, 3)])
    params = uniform_ic(g, 0.5)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = IndependentActivation(4, lat, [0], [0], [[0.0, 0.3, 0.4]])
    coll = generate_collection(g, params, model, 20, stream(52, 0))
    with pytest.raises(UnsupportedScenarioError):
        ud(model, lat, 1.0, coll)


@pytest.mark.parametrize("strategies, bad", [
    ([(0, 0), (1, 2), (3, 3)], 1),
    ([(0, 0), (1, 1), (2, 2), (2, 3), (3, 0)], 2),
    ([(0, 1), (1, 0), (2, 2), (3, 3)], 0),
])
def test_ud_names_first_node_not_owned_by_its_strategy(strategies, bad):
    # d == n, so the check reaches the flat (node, strategy) rows; two nodes are bad
    g = from_edges(4, [(0, 1), (2, 3)])
    params = uniform_ic(g, 0.5)
    lat = LatticeConfig(d=4, delta=1.0, budget_steps=2)
    nodes, strats = zip(*strategies)
    model = IndependentActivation(4, lat, nodes, strats,
                                  np.tile([0.0, 0.3, 0.4], (len(nodes), 1)))
    coll = generate_collection(g, params, model, 20, stream(52, 0))
    with pytest.raises(UnsupportedScenarioError, match=rf"^node {bad} is not owned by strategy {bad}$"):
        ud(model, lat, 1.0, coll)


def test_ud_rejects_model_over_fewer_nodes():
    # every node of a 3-node model owns its strategy, but the collection is
    # over a 4-node graph (sampled under the same rows on 4 nodes, since a
    # collection rejects a model of another size); under d = 4 the model
    # itself is short of a node
    g = from_edges(4, [(0, 1), (2, 3)])
    params = uniform_ic(g, 0.5)
    for d in (3, 4):
        lat = LatticeConfig(d=d, delta=1.0, budget_steps=2)
        model, wide = (IndependentActivation(n, lat, np.arange(3), np.arange(3),
                                             np.tile([0.0, 0.3, 0.4], (3, 1))) for n in (3, 4))
        coll = generate_collection(g, params, wide, 20, stream(52, 0))
        with pytest.raises(UnsupportedScenarioError):
            ud(model, lat, 1.0, coll)


def test_ud_two_valued_structure_and_support_bound():
    g, params, model, lat = _personal_instance(n=10, m=20, seed=1)
    coll = generate_collection(g, params, model, 400, stream(53, 0))
    k = 0.5
    mix = ud(model, lat, k, coll)
    nz = mix.steps[mix.steps > 0]
    assert len(set(nz.tolist())) <= 1          # x_i in {0, c}
    assert len(nz) <= int(k / 0.1)             # at most floor(k/0.1) nonzero
    assert mix.steps.sum() * lat.delta <= k + 1e-9


def test_ud_budget_saturating_selects_everyone():
    g, params, model, lat = _personal_instance(n=6, m=10, seed=2, steps=60)
    coll = generate_collection(g, params, model, 300, stream(54, 0))
    mix = ud(model, lat, 6.0, coll)
    assert np.all(mix.steps > 0)
    # some candidate saturates everyone; the best does at least as well
    saturated = StrategyMix(np.full(6, 10))
    assert g_hat(coll, model, mix) >= g_hat(coll, model, saturated) - 1e-9


def test_ud_below_rr_greedy_on_shared_collection():
    g, params, model, lat = _personal_instance(n=10, m=22, seed=3)
    coll = generate_collection(g, params, model, 500, stream(55, 0))
    k = 0.6
    constraint = TotalBudget(round(k / lat.delta))
    mix_ud = ud(model, lat, k, coll)
    mix_imm = lgreedy_delta(coll, model, lat, constraint)
    assert g_hat(coll, model, mix_ud) <= g_hat(coll, model, mix_imm) + 1e-9


def test_cd_improves_and_terminates():
    g, params, model, lat = _personal_instance(n=9, m=18, seed=4)
    coll = generate_collection(g, params, model, 400, stream(56, 0))
    k = 0.5
    start = ud(model, lat, k, coll)
    out = cd(model, lat, start, coll)
    assert g_hat(coll, model, out) >= g_hat(coll, model, start) - 1e-12
    assert out.steps.sum() == start.steps.sum()  # moves conserve budget
    assert is_feasible(out, TotalBudget(start.total_steps))


def test_cd_keeps_local_optimum_unchanged():
    g, params, model, lat = _personal_instance(n=6, m=12, seed=5)
    coll = generate_collection(g, params, model, 300, stream(57, 0))
    constraint = TotalBudget(4)
    best = lgreedy_delta(coll, model, lat, constraint)
    # run cd from the greedy point; if no single swap improves, it returns as-is
    out = cd(model, lat, best, coll)
    assert g_hat(coll, model, out) >= g_hat(coll, model, best) - 1e-12
    improved = g_hat(coll, model, out) > g_hat(coll, model, best) + 1e-12
    if not improved:
        assert out == best


def test_cd_moves_on_black_box_model():
    # the same h as an opaque model: cd has no strategy entries to prune with
    g, params, model, lat = _personal_instance()
    box = BlackBoxActivation(8, lat, lambda xv: model.h_all(np.rint(xv / lat.delta).astype(int)))
    coll = generate_collection(g, params, box, 400, stream(58, 0))
    start = StrategyMix([5, 0, 0, 0, 0, 0, 0, 0])
    out = cd(box, lat, start, coll)
    assert out != start
    assert g_hat(coll, box, out) > g_hat(coll, box, start)
    assert out.total_steps == start.total_steps


def test_hd_uniform_when_degrees_equal():
    # directed 6-cycle: all out-degrees 1
    g = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    lat = LatticeConfig(d=6, delta=0.5, budget_steps=12)
    mix = hd(g, lat, k=3.0, m_nodes=6)
    assert mix.steps.tolist() == [1] * 6


def test_hd_single_node_gets_capped_budget():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    lat = LatticeConfig(d=4, delta=0.5, budget_steps=2)
    mix = hd(g, lat, k=5.0, m_nodes=1)
    assert mix.steps.tolist() == [2, 0, 0, 0]  # node 0 has max degree, capped


def test_hd_budget_feasible_after_rounding():
    g = gen_erdos_renyi(12, 40, stream(58, 0))
    lat = LatticeConfig(d=12, delta=0.1, budget_steps=30)
    mix = hd(g, lat, k=3.0, m_nodes=5)
    assert mix.steps.sum() <= 30
    assert np.count_nonzero(mix.steps) <= 5


def test_baselines_feasible_against_caps():
    g, params, model, lat = _personal_instance(n=8, m=16, seed=6)
    coll = generate_collection(g, params, model, 200, stream(59, 0))
    for k in (0.3, 0.8):
        mix = ud(model, lat, k, coll)
        assert mix.steps.sum() * lat.delta <= k + 1e-9
        out = cd(model, lat, mix, coll)
        assert out.steps.sum() * lat.delta <= k + 1e-9
        assert np.all(out.steps <= lat.budget_steps)
