import numpy as np
import pytest

from conftest import (RICH_SEEDS, node_rows, random_concave_table, random_instance,
                      sweep_monotone_dr)

from limax.strategy import (BlackBoxActivation, CurveDomainError,
                            CurveViolation, IndependentActivation, LatticeConfig,
                            StrategyMix, StrategyNotApplicableError,
                            clamped_table, make_personalized,
                            make_segmented_event, multi_event_table,
                            validate_model)


def _two_strategy_model(lat, q1, q2):
    """Single node reachable by strategies 0 and 1 with constant-after-0 tables."""
    t1 = np.concatenate(([0.0], np.full(lat.budget_steps, q1)))
    t2 = np.concatenate(([0.0], np.full(lat.budget_steps, q2)))
    return IndependentActivation(1, lat, [0, 0], [0, 1], np.vstack([t1, t2]))


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
    model = IndependentActivation(1, lat, [0], [0], table[None, :])
    assert model.q_steps(0, 0, 0) == 0.0
    # 1 - 0.7^2 = 0.51
    assert model.q_steps(0, 0, 2) == pytest.approx(0.51)


def test_q_value_tabulated_lookup():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=3)
    tab = np.array([0.0, 0.4, 0.6, 0.7])
    model = IndependentActivation(1, lat, [0], [0], tab[None, :])
    assert model.q_steps(0, 0, 3) == 0.7


def test_q_value_not_applicable():
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=1)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.2]]))
    with pytest.raises(StrategyNotApplicableError):
        model.q_steps(0, 1, 1)


def test_domain_error_beyond_table():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.2, 0.3]]))
    with pytest.raises(CurveDomainError):
        model.q_steps(0, 0, 3)
    with pytest.raises(CurveDomainError):
        model.h(0, StrategyMix([3]))


def test_validate_model_clean_multi_event():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=5)
    model = IndependentActivation(1, lat, [0], [0], multi_event_table(0.3, lat)[None, :])
    assert validate_model(model, lat) == []


def test_validate_model_flags_non_concave():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.2, 0.5]]))
    kinds = {v.kind for v in validate_model(model, lat)}
    assert "non-concave" in kinds


def test_validate_model_flags_nonzero_origin():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.1, 0.2, 0.3]]))
    kinds = {v.kind for v in validate_model(model, lat)}
    assert "origin" in kinds


def test_validate_model_flags_decreasing():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.4, 0.3]]))
    kinds = {v.kind for v in validate_model(model, lat)}
    assert "decreasing" in kinds


def _validate_per_node(model, lattice, tol=1e-12):
    """The per-node loop that ``validate_model`` replaced, kept as its reference."""
    out = []
    upto = lattice.budget_steps
    for v in range(model.n):
        for j, tab in zip(*node_rows(model, v)):
            tab = tab[:upto + 1]
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


def _faulty_model(gen):
    """Random model with origin, range, decreasing and non-concave faults
    injected into some rows, several per row at times."""
    d = int(gen.integers(1, 5))
    lat = LatticeConfig(d=d, delta=1.0, budget_steps=int(gen.integers(0, 6)))
    K = lat.budget_steps
    n = int(gen.integers(1, 40))
    nodes, strategies, tables = [], [], []
    for v in range(n):
        js = gen.choice(d, size=int(gen.integers(0, d + 1)), replace=False)
        for j in js:
            row = random_concave_table(gen, K) if K else np.zeros(1)
            for fault in np.flatnonzero(gen.random(4) < 0.15):
                i = int(gen.integers(0, K + 1))
                if fault == 0:
                    row[0] = gen.choice([0.05, -0.05])
                elif fault == 1:
                    row[i] = gen.choice([1.5, -0.5])
                elif fault == 2 and K:
                    row[max(i, 1)] = row[max(i, 1) - 1] - 0.1
                elif fault == 3 and K >= 2:
                    row[K] = min(1.0, row[K - 1] + 2 * (row[K - 1] - row[K - 2]) + 0.1)
            nodes.append(v)
            strategies.append(j)
            tables.append(row)
    return IndependentActivation(n, lat, nodes, strategies, np.reshape(tables, (-1, K + 1))), lat


def test_validate_model_matches_per_node_loop():
    kinds = set()
    for seed in range(12):
        model, lat = _faulty_model(np.random.default_rng(900 + seed))
        got = validate_model(model, lat)
        assert got == _validate_per_node(model, lat)
        kinds |= {v.kind for v in got}
        assert validate_model(BlackBoxActivation(model.n, lat, lambda v, xv: 0.0), lat) == []
    assert kinds == {"origin", "range", "decreasing", "non-concave"}


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
    model = IndependentActivation(1, lat, np.zeros_like(js), js, tables)
    mono, dr = sweep_monotone_dr(lambda s: model.h(0, s), d, bound)
    assert mono == 0 and dr == 0


def test_h_all_matches_per_node(rng):
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=3)
    n = 6
    nodes, strategies, tables = [], [], []
    for v in range(n):
        cnt = int(rng.integers(0, 3))
        for j in np.sort(rng.choice(3, size=cnt, replace=False)):
            nodes.append(v)
            strategies.append(j)
            tables.append(random_concave_table(rng, 3))
    model = IndependentActivation(n, lat, nodes, strategies, np.reshape(tables, (-1, 4)))
    x = StrategyMix([1, 3, 0])
    vec = model.h_all(x)
    for v in range(n):
        assert vec[v] == pytest.approx(model.h(v, x), abs=1e-12)


@pytest.mark.parametrize("seed", RICH_SEEDS)
def test_rows_match_per_node_loop(seed):
    """``model.rows`` against a loop over each entry's ``_indptr`` slice, on
    unsorted and repeated entries, some of nodes that own no rows."""
    gen = np.random.default_rng(seed)
    model = random_instance(gen).model
    counts = np.diff(model._indptr)
    assert (counts == 0).any() and (counts > 1).any()
    for nodes in (np.arange(model.n), gen.integers(0, model.n, size=40),
                  np.flatnonzero(counts == 0), np.empty(0, np.int64)):
        pair, rows = model.rows(nodes)
        expect = [(k, r) for k, v in enumerate(nodes.tolist())
                  for r in range(model._indptr[v], model._indptr[v + 1])]
        assert list(zip(pair.tolist(), rows.tolist())) == expect


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
    touched = [v for v in range(50) if len(node_rows(model, v)[0])]
    assert len(touched) == 20
    for v in touched:
        js, tabs = node_rows(model, v)
        assert len(js) == 1
        r = tabs[0, 1]  # q at one step = r when delta = 1
        assert 0.0 <= r <= 0.3


def test_strategy_mix_basics():
    x = StrategyMix([1, 0, 2])
    assert x.total_steps == 3
    assert np.allclose(x.values(0.5), [0.5, 0.0, 1.0])
    assert x.bump(1) == StrategyMix([1, 1, 2])
    with pytest.raises(ValueError):
        StrategyMix([-1, 0])
