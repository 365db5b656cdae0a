import numpy as np
import pytest

from conftest import random_concave_table, sweep_monotone_dr

from limax.strategy import (BlackBoxActivation, CurveDomainError,
                            IndependentActivation, LatticeConfig,
                            StrategyMix, StrategyNotApplicableError,
                            clamped_table, make_personalized,
                            make_segmented_event, multi_event_table,
                            validate_model)


def _two_strategy_model(lat, q1, q2):
    """Single node reachable by strategies 0 and 1 with constant-after-0 tables."""
    t1 = np.concatenate(([0.0], np.full(lat.budget_steps, q1)))
    t2 = np.concatenate(([0.0], np.full(lat.budget_steps, q2)))
    return IndependentActivation(1, lat, [np.array([0, 1])], [np.vstack([t1, t2])])


def test_h_zero_mix_is_zero():
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = _two_strategy_model(lat, 0.5, 0.5)
    assert model.h(0, StrategyMix.zeros(2)) == 0.0


def test_h_independent_combination():
    # q = 0.5 from both strategies -> 1 - 0.5*0.5 = 0.75
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = _two_strategy_model(lat, 0.5, 0.5)
    assert model.h(0, StrategyMix([1, 1])) == pytest.approx(0.75)


def test_quadratic_discount_value():
    # 2x - x^2 at x = 0.5 -> 0.75
    lat = LatticeConfig(d=1, delta=0.5, budget_steps=2)
    model = make_personalized(1, lat)
    assert model.h(0, StrategyMix([1])) == pytest.approx(0.75)


def test_quadratic_clamps_at_one():
    # beyond x=1 the curve freezes at its boundary value 1
    lat = LatticeConfig(d=1, delta=0.5, budget_steps=4)
    model = make_personalized(1, lat)
    assert model.h(0, StrategyMix([2])) == pytest.approx(1.0)
    assert model.h(0, StrategyMix([4])) == pytest.approx(1.0)


def test_q_value_examples():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    table = multi_event_table(0.3, lat)
    model = IndependentActivation(1, lat, [np.array([0])], [table[None, :]])
    assert model.q_steps(0, 0, 0) == 0.0
    # 1 - 0.7^2 = 0.51
    assert model.q_steps(0, 0, 2) == pytest.approx(0.51)


def test_q_value_tabulated_lookup():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=3)
    tab = np.array([0.0, 0.4, 0.6, 0.7])
    model = IndependentActivation(1, lat, [np.array([0])], [tab[None, :]])
    assert model.q_steps(0, 0, 3) == 0.7


def test_q_value_not_applicable():
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=1)
    model = IndependentActivation(1, lat, [np.array([0])],
                                  [np.array([[0.0, 0.2]])])
    with pytest.raises(StrategyNotApplicableError):
        model.q_steps(0, 1, 1)


def test_domain_error_beyond_table():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [np.array([0])],
                                  [np.array([[0.0, 0.2, 0.3]])])
    with pytest.raises(CurveDomainError):
        model.q_steps(0, 0, 3)
    with pytest.raises(CurveDomainError):
        model.h(0, StrategyMix([3]))


def test_validate_model_clean_multi_event():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=5)
    model = IndependentActivation(1, lat, [np.array([0])],
                                  [multi_event_table(0.3, lat)[None, :]])
    assert validate_model(model, lat) == []


def test_validate_model_flags_non_concave():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [np.array([0])],
                                  [np.array([[0.0, 0.2, 0.5]])])
    kinds = {v.kind for v in validate_model(model, lat)}
    assert "non-concave" in kinds


def test_validate_model_flags_nonzero_origin():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [np.array([0])],
                                  [np.array([[0.1, 0.2, 0.3]])])
    kinds = {v.kind for v in validate_model(model, lat)}
    assert "origin" in kinds


def test_validate_model_flags_decreasing():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [np.array([0])],
                                  [np.array([[0.0, 0.4, 0.3]])])
    kinds = {v.kind for v in validate_model(model, lat)}
    assert "decreasing" in kinds


def test_clamped_table_marginals_vanish():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=4)
    tab = clamped_table(multi_event_table(0.4, lat), cap_steps=2)
    assert tab[3] == tab[2] and tab[4] == tab[2]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_h_monotone_and_dr_sweep(seed):
    gen = np.random.default_rng(seed)
    d = int(gen.integers(1, 4))
    bound = int(gen.integers(2, 6))
    lat = LatticeConfig(d=d, delta=1.0, budget_steps=bound + 2)
    count = int(gen.integers(1, d + 1))
    js = np.sort(gen.choice(d, size=count, replace=False))
    tables = np.vstack([random_concave_table(gen, lat.budget_steps) for _ in js])
    model = IndependentActivation(1, lat, [js], [tables])
    mono, dr = sweep_monotone_dr(lambda s: model.h(0, s), d, bound)
    assert mono == 0 and dr == 0


def test_h_all_matches_per_node(rng):
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=3)
    n = 6
    strategies, tables = [], []
    for v in range(n):
        cnt = int(rng.integers(0, 3))
        js = np.sort(rng.choice(3, size=cnt, replace=False)).astype(np.int64)
        strategies.append(js)
        tables.append(np.vstack([random_concave_table(rng, 3) for _ in js])
                      if cnt else np.empty((0, 4)))
    model = IndependentActivation(n, lat, strategies, tables)
    x = StrategyMix([1, 3, 0])
    vec = model.h_all(x)
    for v in range(n):
        assert vec[v] == pytest.approx(model.h(v, x), abs=1e-12)


def test_blackbox_model_roundtrip():
    lat = LatticeConfig(d=2, delta=0.5, budget_steps=2)
    model = BlackBoxActivation(2, lat, lambda v, xv: min(1.0, 0.3 * xv.sum() + 0.1 * v))
    assert model.h(1, StrategyMix([1, 1])) == pytest.approx(0.4)
    assert validate_model(model, lat) == []  # not checkable, reported clean


def test_segmented_event_scenario_bounds(rng):
    from limax.graph import gen_erdos_renyi
    g = gen_erdos_renyi(50, 200, rng)
    lat = LatticeConfig(d=5, delta=1.0, budget_steps=3)
    degrees = g.in_degrees() + g.out_degrees()
    model = make_segmented_event(degrees, lat, top=20, r_max=0.3, rng=rng)
    touched = [v for v in range(50) if len(model.strategies[v])]
    assert len(touched) == 20
    for v in touched:
        assert len(model.strategies[v]) == 1
        r = model.tables[v][0, 1]  # q at one step = r when delta = 1
        assert 0.0 <= r <= 0.3


def test_strategy_mix_basics():
    x = StrategyMix([1, 0, 2])
    assert x.total_steps == 3
    assert np.allclose(x.values(0.5), [0.5, 0.0, 1.0])
    assert x.bump(1) == StrategyMix([1, 1, 2])
    with pytest.raises(ValueError):
        StrategyMix([-1, 0])
