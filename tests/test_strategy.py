import numpy as np
import pytest

from conftest import (RICH_SEEDS, h_per_node, node_rows, random_concave_table,
                      random_instance, sweep_monotone_dr)

from limax.graph import from_edges, uniform_ic
from limax.rng import stream
from limax.rrset import g_hat, generate_collection
from limax.strategy import (BlackBoxActivation, CurveDomainError,
                            CurveViolation, IndependentActivation, LatticeConfig,
                            StrategyMix, clamped_table, make_personalized,
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
    assert model.h_all(StrategyMix.zeros(2))[0] == 0.0


def test_h_independent_combination():
    # q = 0.5 from both strategies -> 1 - 0.5*0.5 = 0.75
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = _two_strategy_model(lat, 0.5, 0.5)
    assert model.h_all(StrategyMix([1, 1]))[0] == pytest.approx(0.75)


def test_quadratic_discount_value():
    # 2x - x^2 at x = 0.5 -> 0.75
    lat = LatticeConfig(d=1, delta=0.5, budget_steps=2)
    model = make_personalized(1, lat)
    assert model.h_all(StrategyMix([1]))[0] == pytest.approx(0.75)


def test_quadratic_clamps_at_one():
    # beyond x=1 the curve freezes at its boundary value 1
    lat = LatticeConfig(d=1, delta=0.5, budget_steps=4)
    model = make_personalized(1, lat)
    assert model.h_all(StrategyMix([2]))[0] == pytest.approx(1.0)
    assert model.h_all(StrategyMix([4]))[0] == pytest.approx(1.0)


def test_q_value_examples():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    table = multi_event_table(0.3, lat)
    model = IndependentActivation(1, lat, [0], [0], table[None, :])
    assert model.h_all([0])[0] == 0.0
    # 1 - 0.7^2 = 0.51
    assert model.h_all([2])[0] == pytest.approx(0.51)


def test_q_value_tabulated_lookup():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=3)
    tab = np.array([0.0, 0.4, 0.6, 0.7])
    model = IndependentActivation(1, lat, [0], [0], tab[None, :])
    assert node_rows(model, 0)[1][0, 3] == 0.7
    assert model.h_all([3])[0] == pytest.approx(0.7)


def test_q_value_not_applicable():
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=1)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.2]]))
    # strategy 1 is outside S_0: spending on it leaves h_0 at 0
    assert node_rows(model, 0)[0].tolist() == [0]
    assert model.h_all([0, 1])[0] == 0.0


def test_domain_error_beyond_table():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.2, 0.3]]))
    box = BlackBoxActivation(1, lat, lambda xv: np.zeros(1))
    for m in (model, box):
        for steps in ([3], [-1]):
            with pytest.raises(CurveDomainError):
                m.h_all(np.array(steps))


def test_validate_model_clean_multi_event():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=5)
    model = IndependentActivation(1, lat, [0], [0], multi_event_table(0.3, lat)[None, :])
    assert validate_model(model, lat) == []


def test_validate_model_flags_non_concave():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.2, 0.5]]))
    kinds = {v.kind for v in validate_model(model, lat)}
    assert "non-concave" in kinds


def test_validate_model_checks_the_whole_curve_on_the_models_lattice():
    # non-concave only past step 2: a shorter lattice is refused, not
    # checked on its first columns, and the model's own reports the kink
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=3)
    model = IndependentActivation(1, lat, [0], [0], np.array([[0.0, 0.5, 0.6, 0.99]]))
    for other in (LatticeConfig(d=1, delta=1.0, budget_steps=2),
                  LatticeConfig(d=2, delta=1.0, budget_steps=3)):
        with pytest.raises(ValueError, match="differs from the model's"):
            validate_model(model, other)
    assert [v.kind for v in validate_model(model, lat)] == ["non-concave"]


def test_lattice_config_takes_whole_numbers_only():
    lat = LatticeConfig(d=30.0, delta=1.0, budget_steps=2.0)
    assert (lat.d, lat.budget_steps) == (30, 2) and type(lat.budget_steps) is int
    assert lat == LatticeConfig(d=30, delta=1.0, budget_steps=2)
    with pytest.raises(ValueError, match=r"^budget_steps \(2\.5\) is not an integer$"):
        LatticeConfig(d=3, delta=1.0, budget_steps=2.5)
    with pytest.raises(ValueError, match=r"^d \(1\.5\) is not an integer$"):
        LatticeConfig(d=1.5, delta=1.0, budget_steps=2)


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
        box = BlackBoxActivation(model.n, lat, lambda xv: np.zeros(model.n))
        assert validate_model(box, lat) == []
    assert kinds == {"origin", "range", "decreasing", "non-concave"}


def test_clamped_table_marginals_vanish():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=4)
    tab = clamped_table(multi_event_table(0.4, lat), cap=2)
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
    mono, dr = sweep_monotone_dr(lambda s: model.h_all(s)[0], d, bound)
    assert mono == 0 and dr == 0


def test_h_all_matches_per_node():
    """``h_all`` equals the per-node scalar product bit for bit, on 200
    random instances with nodes of zero to several strategies."""
    for seed in range(200):
        gen = np.random.default_rng(3100 + seed)
        inst = random_instance(gen, d_max=4, steps_max=4)
        x = gen.integers(0, inst.lattice.budget_steps + 1, size=inst.lattice.d)
        vec = inst.model.h_all(x)
        assert vec.tolist() == [h_per_node(inst.model, v, x) for v in range(inst.model.n)]


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


def _rows_expanding_every_entry(model, nodes):
    """The entry-by-entry expansion ``model.rows`` replaced: every entry,
    owner or not, goes through the repeat."""
    start = model._indptr[nodes]
    count = model._indptr[nodes + 1] - start
    pair = np.repeat(np.arange(len(nodes)), count)
    return pair, np.arange(len(pair)) + (start - (np.cumsum(count) - count))[pair]


@pytest.mark.parametrize("seed", range(8))
def test_rows_equal_full_expansion_bitwise(seed):
    """Owner-only ``model.rows`` returns the full expansion's arrays, values
    and dtypes, with and without several rows per owner."""
    gen = np.random.default_rng(2600 + seed)
    model = random_instance(gen, n_max=30, d_max=4).model
    lat = LatticeConfig(d=4, delta=1.0, budget_steps=3)
    one_row = make_segmented_event(gen.integers(0, 9, size=30), lat, 12, 0.3, gen)
    for m in (model, one_row):
        counts = np.diff(m._indptr)
        for nodes in (gen.integers(0, m.n, size=int(gen.integers(1, 200))),
                      np.repeat(np.flatnonzero(counts > 0), 3),
                      np.flatnonzero(counts == 0), np.arange(m.n)[::-1],
                      np.empty(0, np.int64)):
            got, expect = m.rows(nodes), _rows_expanding_every_entry(m, nodes)
            for a, b in zip(got, expect):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_blackbox_model_roundtrip():
    lat = LatticeConfig(d=2, delta=0.5, budget_steps=2)
    model = BlackBoxActivation(2, lat, lambda xv: np.minimum(1.0, 0.3 * xv.sum() + [0.0, 0.1]))
    assert model.h_all(StrategyMix([1, 1])) == pytest.approx([0.3, 0.4])
    assert validate_model(model, lat) == []  # not checkable, reported clean


def test_blackbox_g_hat_calls_fn_once():
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=2, delta=0.5, budget_steps=2)
    seen = []

    def fn(xv):
        seen.append(xv.tolist())
        return np.array([0.5, 0.25, 0.0]) * xv.sum()

    model = BlackBoxActivation(3, lat, fn)
    coll = generate_collection(g, uniform_ic(g, 0.5), model, 20, stream(3, 0))
    assert seen == []
    g_hat(coll, model, StrategyMix([1, 2]))
    assert seen == [[0.5, 1.0]]


def test_blackbox_h_all_rejects_bad_results():
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=2)
    for out in (np.zeros(2), np.zeros((3, 1)), 0.5, np.zeros(4)):
        with pytest.raises(ValueError, match=r"^fn returned shape .*, not \(3,\)$"):
            BlackBoxActivation(3, lat, lambda xv: out).h_all([1])
    for out, bad in (([0.2, 1.5, -0.1], 1), ([0.2, 0.3, -0.1], 2), ([np.nan, 0.0, 2.0], 0)):
        with pytest.raises(ValueError, match=rf"^h\({bad}, \.\) = .* outside \[0, 1\]$"):
            BlackBoxActivation(3, lat, lambda xv: np.array(out)).h_all([1])
    # values up to 1 + 1e-12 are rounding slack, clipped to 1
    model = BlackBoxActivation(3, lat, lambda xv: np.array([1.0 + 5e-13, 1.0, 0.0]))
    assert model.h_all([2]).tolist() == [1.0, 1.0, 0.0]


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
    with pytest.raises(ValueError):
        StrategyMix([-1, 0])
