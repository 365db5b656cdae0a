import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import RICH_SEEDS, random_instance, sweep_monotone_dr

from limax import oracles
from limax.budgets import PartitionedBudget, TotalBudget, is_feasible
from limax.graph import (IC, LT, TriggeringParams, assign_weighted_cascade,
                         from_edges, uniform_ic)
from limax.immvsn import (VirtualNodeId, build_augmented,
                          simulate_spread_virtual_seeds)
from limax.oracles import (_RUN_PAIRS, InstanceTooLargeError,
                           LiveEdgeEnumeration, enumerate_feasible_mixes,
                           exact_g, exact_g_subsets, exact_opt, exact_sigma,
                           simulate_spread_mix, simulate_spread_seeds)
from limax.rng import stream
from limax.strategy import (IndependentActivation, LatticeConfig,
                            StrategyMix)


def _model_with_h(n, lat, h_by_node):
    nodes = [v for v in range(n) if h_by_node.get(v, 0.0) > 0]
    tabs = [np.concatenate(([0.0], np.full(lat.budget_steps, h_by_node[v]))) for v in nodes]
    return IndependentActivation(n, lat, nodes, [v % lat.d for v in nodes],
                                 np.reshape(tabs, (-1, lat.budget_steps + 1)))


# --- Monte-Carlo spread -------------------------------------------------------

def test_spread_empty_seed_set():
    g = from_edges(3, [(0, 1)])
    est = simulate_spread_seeds(g, uniform_ic(g, 0.5), set(), 100, stream(0, 0))
    assert est.mean == 0.0


def test_spread_all_seeds():
    g = from_edges(4, [(0, 1), (2, 3)])
    est = simulate_spread_seeds(g, uniform_ic(g, 0.1), {0, 1, 2, 3}, 200, stream(0, 1))
    assert est.mean == 4.0 and est.se == 0.0


def test_spread_deterministic_chain():
    g = from_edges(3, [(0, 1), (1, 2)])
    est = simulate_spread_seeds(g, uniform_ic(g, 1.0), {0}, 500, stream(0, 2))
    assert est.mean == 3.0


def test_spread_chain_single_run():
    g = from_edges(3, [(0, 1), (1, 2)])
    est = simulate_spread_seeds(g, uniform_ic(g, 1.0), {0}, 1, stream(0, 3))
    assert est == (3.0, 0.0, 1)


@pytest.mark.parametrize("seeds", [[3], [-1], [0, 7]])
def test_spread_seed_outside_graph_rejected(seeds):
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^seed node outside \[0, 3\)$"):
        simulate_spread_seeds(g, uniform_ic(g, 0.5), seeds, 10, stream(0, 6))


def test_mix_zero_is_zero():
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=1)
    model = _model_with_h(3, lat, {0: 0.4})
    est = simulate_spread_mix(g, uniform_ic(g, 0.5), model,
                              StrategyMix.zeros(3), 300, stream(0, 4))
    assert est.mean == 0.0


def test_mix_single_node_bernoulli():
    g = from_edges(1, [])
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=1)
    model = _model_with_h(1, lat, {0: 0.75})
    est = simulate_spread_mix(g, uniform_ic(g, 0.5), model,
                              StrategyMix([1]), 100_000, stream(0, 5))
    assert abs(est.mean - 0.75) <= 3 * est.se


FORWARD_RUNS = 100_000


@pytest.mark.parametrize("kind", [IC, LT])
@pytest.mark.parametrize("seed", RICH_SEEDS)
def test_forward_law_matches_exact_oracle(kind, seed):
    # every forward simulator against the exact live-edge enumeration: each
    # single seed, half the nodes at once, and two mixes, the second also
    # as its prefix virtual seeds
    gen = np.random.default_rng(seed)
    inst = random_instance(gen, n_max=8, m_max=10, kind=kind)
    graph, params, model, lat = inst.graph, inst.params, inst.model, inst.lattice
    enum = LiveEdgeEnumeration(graph, params)
    seed_sets = [[v] for v in range(graph.n)] + [list(range(0, graph.n, 2))]
    for i, seeds in enumerate(seed_sets):
        est = simulate_spread_seeds(graph, params, seeds, FORWARD_RUNS, stream(32, seed, i))
        assert abs(est.mean - exact_sigma(graph, params, seeds, enum)) <= 4 * est.se + 1e-9
    mixes = [StrategyMix(np.ones(lat.d, dtype=np.int64)),
             StrategyMix(np.full(lat.d, lat.budget_steps))]
    for i, x in enumerate(mixes):
        exact = exact_g(graph, params, model, x, enum)
        est = simulate_spread_mix(graph, params, model, x, FORWARD_RUNS, stream(33, seed, i))
        assert abs(est.mean - exact) <= 4 * est.se + 1e-9
    aug = build_augmented(graph, params, model, lat)
    prefix = [VirtualNodeId(j, t) for j in range(lat.d) for t in range(1, lat.budget_steps + 1)]
    est = simulate_spread_virtual_seeds(aug, prefix, FORWARD_RUNS, stream(34, seed))
    assert abs(est.mean - exact) <= 4 * est.se + 1e-9


# --- LT forward cascades: pointer doubling against level-by-level BFS ----------

def _lt_counts_by_levels(graph, params, runs, width, seed_keys, rng):
    """Per-run active counts of LT cascades as the out-edge BFS computes
    them, level by level: an out-edge u -> v carries the cascade in a run
    when v picked u in that run.  The picks are drawn as
    ``oracles._cascades`` draws them (after each batch's seeds, one uniform
    per run for every node with in-edges, node-major) and resolved with
    ``np.searchsorted`` on each node's running weight sums."""
    n = graph.n
    indptr, src, cum = params._csr
    out_ptr, dst, _ = params._out_csr
    has = np.flatnonzero(np.diff(indptr))
    per_batch = max(1, min(runs, oracles._RUN_PAIRS // max(n, width, 1)))
    counts = np.empty(runs)
    for b0 in range(0, runs, per_batch):
        size = min(per_batch, runs - b0)
        frontier = seed_keys(size)
        x = rng.random(len(has) * size).reshape(len(has), size)
        parents = np.full((n, size), -1)
        for v, row in zip(has.tolist(), x):
            pos = indptr[v] + np.searchsorted(cum[indptr[v]:indptr[v + 1]], row, side="right")
            pick = pos < indptr[v + 1]
            parents[v, pick] = src[pos[pick]]
        parents = parents.ravel()
        seen = np.zeros(n * size, dtype=bool)
        seen[frontier] = True
        while len(frontier):
            nodes, local = np.divmod(frontier, size)
            deg = out_ptr[nodes + 1] - out_ptr[nodes]
            pair = np.repeat(np.arange(len(nodes)), deg)
            pos = out_ptr[nodes][pair] + np.arange(len(pair)) - np.repeat(np.cumsum(deg) - deg, deg)
            cand = dst[pos] * size + local[pair]
            cand = cand[(parents[cand] == nodes[pair]) & ~seen[cand]]
            seen[cand] = True
            frontier = np.sort(cand)
        counts[b0:b0 + size] = seen.reshape(n, size).sum(axis=0)
    return counts


def _random_lt(gen, n):
    """Random LT graph on n nodes: a cycle through the first nodes, random
    and parallel edges, the last node without in-edges (for n > 2), and
    per node either weights 1/indeg, weights summing to 1, or weights below
    1 with some of them 0."""
    ring = n if n == 2 else int(gen.integers(2, n))
    edges = [(u, (u + 1) % ring) for u in range(ring)]
    count = int(gen.integers(0, 2 * n)) if gen.random() < 0.7 else 0  # else one long cycle
    extra = zip(gen.integers(0, n, size=count), gen.integers(0, max(n - 1, 2), size=count))
    edges += [(int(u), int(v)) for u, v in extra if u != v]
    edges += edges[:int(gen.integers(1, 4))]  # parallel copies
    g = from_edges(n, edges)
    rows = []
    for deg in g.in_degrees().tolist():
        kind = gen.integers(0, 3)
        w = gen.random(deg) * (gen.random(deg) < 0.8)
        if kind == 0 or not w.sum():
            w = np.full(deg, 1.0 / max(deg, 1))
        else:
            w = w / w.sum() * (1.0 if kind == 1 else gen.uniform(0.3, 0.95))
        rows.append(np.minimum(w, 1.0))
    return g, TriggeringParams.build(g, LT, np.concatenate(rows))


@pytest.mark.parametrize("pairs", [oracles._RUN_PAIRS, 40])
@pytest.mark.parametrize("seed", range(12))
def test_lt_doubling_matches_level_bfs(monkeypatch, seed, pairs):
    monkeypatch.setattr(oracles, "_RUN_PAIRS", pairs)  # 40: several batches
    gen = np.random.default_rng(3700 + seed)
    n = 2 if seed < 2 else int(gen.integers(3, 40))
    g, params = _random_lt(gen, n)
    runs = int(gen.integers(1, 90))
    h = gen.random(n) * (gen.random(n) < 0.2)  # few seeds: long chains to them
    h[0] = max(h[0], 0.2)  # node 0 sits on the cycle

    def draw(rng):
        def seed_keys(size):
            run, v = np.nonzero(rng.random((size, n)) < h)
            return np.sort(v * size + run)
        return seed_keys

    rng, ref = stream(37, seed), stream(37, seed)
    counts = oracles._cascades(g, params, runs, n, draw(rng), rng)
    expect = _lt_counts_by_levels(g, params, runs, n, draw(ref), ref)
    assert np.array_equal(counts, expect)
    assert rng.random() == ref.random()  # both consumed the same draws


# --- pathological graphs: bounded memory, exact spreads -------------------------

# one batch of at most _RUN_PAIRS (node, run) pairs (its frontier keys, seed
# coins and LT picks), plus 16 MiB for the counts of 10^6 runs and their
# standard deviation; with every run in one batch the star, the 10^6 runs
# and the cycle below each take over 45 MiB
FORWARD_PEAK_MIB = 40


def _out_star():
    """Hub 0 with 20,000 certain out-edges: every run activates every node."""
    g = from_edges(20_001, [(0, u) for u in range(1, 20_001)])
    return g, assign_weighted_cascade(g), [0], 200, 20_001.0


def _mostly_isolated():
    g = from_edges(1000, [(1, 2), (2, 3), (3, 1), (5, 6)])
    return g, assign_weighted_cascade(g), [1, 5], 500, 5.0


def _two_nodes_forward():
    g = from_edges(2, [(0, 1), (1, 0)])
    return g, TriggeringParams.build(g, IC, np.ones(2)), [1], 500, 2.0


def _lt_weights_sum_to_one():
    """Node v > 0 has in-edges from 0, v - 1 and v - 2 (those that exist),
    with weights 1/indeg summing to 1: every node commits to one of them, so
    every chain of picks leads back to seed 0 and every run activates all."""
    g = from_edges(64, [(u, v) for v in range(1, 64) for u in {0, v - 1, max(v - 2, 0)}])
    deg = g.in_degrees()
    return g, TriggeringParams.build(g, LT, np.repeat(1.0 / np.maximum(deg, 1), deg)), [0], 2000, 64.0


def _million_runs():
    """Chain 0 -> 1 -> 2 with p = 0.5: 1.75 expected, over several batches."""
    g = from_edges(3, [(0, 1), (1, 2)])
    assert 10**6 > _RUN_PAIRS // 3
    return g, uniform_ic(g, 0.5), [0], 10**6, 1.75


@pytest.mark.parametrize("build", [_out_star, _mostly_isolated, _two_nodes_forward,
                                   _lt_weights_sum_to_one, _million_runs])
def test_forward_pathological_graphs_bounded_memory(build):
    g, params, seeds, runs, expect = build()
    tracemalloc.start()
    try:
        est = simulate_spread_seeds(g, params, seeds, runs, stream(35, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < FORWARD_PEAK_MIB * 2**20
    assert abs(est.mean - expect) <= 4 * est.se + 1e-9


def test_forward_lt_cycle_mix_bounded_memory():
    # seed coins and LT picks for 10^6 runs on a 3-cycle whose weights sum to 1
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
    params = TriggeringParams.build(g, LT, np.ones(3))
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=1)
    model = _model_with_h(3, lat, {0: 0.5, 1: 0.5, 2: 0.5})
    tracemalloc.start()
    try:
        est = simulate_spread_mix(g, params, model, StrategyMix([1]), 10**6, stream(36, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < FORWARD_PEAK_MIB * 2**20
    # any seed activates the whole cycle
    assert abs(est.mean - 3 * (1 - 0.5**3)) <= 4 * est.se


# --- exact enumeration --------------------------------------------------------

def test_exact_single_node():
    g = from_edges(1, [])
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=1)
    model = _model_with_h(1, lat, {0: 0.3})
    assert exact_g(g, uniform_ic(g, 0.5), model, StrategyMix([1])) == pytest.approx(0.3)


def test_exact_certain_edge_hand_value():
    # u -> v with p = 1, h_u = 0.5, h_v = 0: g = 0.5 * 2 = 1.0
    g = from_edges(2, [(0, 1)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=1)
    model = _model_with_h(2, lat, {0: 0.5})
    assert exact_g(g, uniform_ic(g, 1.0), model, StrategyMix([1, 1])) == pytest.approx(1.0)


def test_exact_triangle_matches_simulation():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
    params = uniform_ic(g, 0.35)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = _model_with_h(3, lat, {0: 0.5, 1: 0.25, 2: 0.6})
    x = StrategyMix([1, 1])
    exact = exact_g(g, params, model, x)
    est = simulate_spread_mix(g, params, model, x, 1_000_000, stream(1, 0))
    assert abs(exact - est.mean) <= 3 * est.se


def test_exact_matches_subset_enumeration(rng):
    for _ in range(6):
        inst = random_instance(rng, n_max=5, m_max=6, d_max=2, steps_max=2)
        x = StrategyMix(rng.integers(0, inst.lattice.budget_steps + 1,
                                     size=inst.lattice.d))
        a = exact_g(inst.graph, inst.params, inst.model, x)
        b = exact_g_subsets(inst.graph, inst.params, inst.model, x)
        assert a == pytest.approx(b, abs=1e-10)


def test_exact_lt_enumeration(rng):
    inst = random_instance(rng, n_max=5, m_max=6, d_max=2, steps_max=2, kind=LT)
    x = StrategyMix(np.full(inst.lattice.d, inst.lattice.budget_steps))
    exact = exact_g(inst.graph, inst.params, inst.model, x)
    est = simulate_spread_mix(inst.graph, inst.params, inst.model, x,
                              400_000, stream(1, 1))
    assert abs(exact - est.mean) <= 3 * est.se + 1e-9


def test_exact_sigma_seed_sets():
    g = from_edges(3, [(0, 1), (1, 2)])
    params = uniform_ic(g, 0.5)
    enum = LiveEdgeEnumeration(g, params)
    assert enum.sigma([]) == 0.0
    # sigma({0}) = 1 + 0.5 + 0.25
    assert exact_sigma(g, params, [0], enum) == pytest.approx(1.75)


def test_size_guard():
    g = from_edges(14, [(i, i + 1) for i in range(13)])
    with pytest.raises(InstanceTooLargeError):
        LiveEdgeEnumeration(g, uniform_ic(g, 0.5))


def test_exact_opt_zero_budget():
    g = from_edges(2, [(0, 1)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=0)
    model = _model_with_h(2, lat, {})
    mix, opt = exact_opt(g, uniform_ic(g, 0.5), model, lat, TotalBudget(0))
    assert mix == StrategyMix.zeros(2) and opt == 0.0


def test_exact_opt_single_strategy_monotone(rng):
    inst = random_instance(rng, n_max=5, m_max=6, d_max=1, steps_max=3)
    K = inst.lattice.budget_steps
    mix, opt = exact_opt(inst.graph, inst.params, inst.model, inst.lattice,
                         TotalBudget(K))
    # monotone in the single coordinate: the optimum spends everything
    assert mix.steps.tolist() == [K]
    assert opt == pytest.approx(
        exact_g(inst.graph, inst.params, inst.model, StrategyMix([K])))


def test_exact_opt_matches_reversed_enumeration(rng):
    inst = random_instance(rng, n_max=5, m_max=6, d_max=2, steps_max=2)
    constraint = TotalBudget(inst.lattice.budget_steps)
    mix, opt = exact_opt(inst.graph, inst.params, inst.model, inst.lattice,
                         constraint)
    # independent re-enumeration in the opposite loop order
    enum = LiveEdgeEnumeration(inst.graph, inst.params)
    best = -1.0
    for steps in reversed(list(enumerate_feasible_mixes(inst.lattice, constraint))):
        val = enum.spread_given_h(inst.model.h_all(steps))
        if val > best:
            best = val
    assert opt == pytest.approx(best, abs=1e-12)
    assert exact_g(inst.graph, inst.params, inst.model, mix) == pytest.approx(opt)


def test_exact_opt_partitioned_enumeration():
    g = from_edges(4, [(0, 1), (2, 3)])
    lat = LatticeConfig(d=4, delta=1.0, budget_steps=2)
    model = _model_with_h(4, lat, {0: 0.5, 1: 0.2, 2: 0.4, 3: 0.3})
    constraint = PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[1, 1])
    mix, opt = exact_opt(g, uniform_ic(g, 0.5), model, lat, constraint)
    assert mix.steps.sum() <= 2
    assert is_feasible(mix, constraint)


@pytest.mark.parametrize("d, constraint", [
    (4, TotalBudget(3)),
    # a zero cap, and a cap above the lattice's K = 2
    (4, PartitionedBudget(groups=[(0, 2), (1, 3)], caps=[0, 5])),
    (5, PartitionedBudget(groups=[(0, 1, 3), (2, 4)], caps=[4, 1])),
])
def test_enumeration_is_the_feasible_box_in_order(d, constraint):
    lat = LatticeConfig(d=d, delta=1.0, budget_steps=2)
    got = [steps.tolist() for steps in enumerate_feasible_mixes(lat, constraint)]
    box = [list(p) for p in itertools.product(range(3), repeat=d)]
    assert got == [p for p in box if is_feasible(p, constraint)]


def test_enumeration_point_guard():
    lat = LatticeConfig(d=8, delta=1.0, budget_steps=20)
    with pytest.raises(InstanceTooLargeError):
        list(enumerate_feasible_mixes(lat, TotalBudget(20)))


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_g_monotone_dr_sweep(seed):
    gen = np.random.default_rng(300 + seed)
    inst = random_instance(gen, n_max=6, m_max=8, d_max=3, steps_max=3,
                           extra_steps=2)
    enum = LiveEdgeEnumeration(inst.graph, inst.params)
    bound = inst.lattice.budget_steps - 2
    mono, dr = sweep_monotone_dr(
        lambda s: enum.spread_given_h(inst.model.h_all(s)),
        inst.lattice.d, bound)
    assert mono == 0 and dr == 0


def test_simulation_agrees_with_exact_small(rng):
    inst = random_instance(rng, n_max=5, m_max=6, d_max=2, steps_max=2)
    x = StrategyMix(np.full(inst.lattice.d, 1))
    exact = exact_g(inst.graph, inst.params, inst.model, x)
    est = simulate_spread_mix(inst.graph, inst.params, inst.model, x,
                              200_000, stream(1, 2))
    assert abs(exact - est.mean) <= 3 * est.se + 1e-9
