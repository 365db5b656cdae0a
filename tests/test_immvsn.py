import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import (RICH_SEEDS, SHARED_IC, needs_around, random_concave_table,
                      random_instance, node_rows, rr_set, shared_ic, stage_budget,
                      stage_reuse_instance)

import limax.graph as graph_module
import limax.rrset as rrset_module
from limax.budgets import (PartitionedBudget, TotalBudget, as_partition, is_feasible,
                           total_steps)
from limax.graph import IC, LT, from_edges, uniform_ic
from limax.immprr import InvalidModelError, make_imm_params, run_immprr
from limax.immvsn import (HybridCollection, VirtualNodeId,
                          _greedy_virtual, build_augmented,
                          generate_hybrid_collection,
                          node_selection_virtual, run_immvsn,
                          simulate_spread_virtual_seeds)
from limax.oracles import LiveEdgeEnumeration, simulate_spread_mix
from limax.rng import stream
from limax.rrset import EmptyCollectionError
from limax.strategy import (IndependentActivation, LatticeConfig, StrategyMix,
                            make_personalized, multi_event_table)


def _aug_single(table_rows, n=1, edges=(), p=0.5, steps=None):
    """Augmented graph over a small instance whose node 0 has the explicit
    (strategy, q table) rows ``table_rows``."""
    steps = steps if steps is not None else len(table_rows[0][1]) - 1
    lat = LatticeConfig(d=max(2, max((j for j, _ in table_rows), default=0) + 1),
                        delta=1.0, budget_steps=steps)
    graph = from_edges(n, list(edges))
    params = uniform_ic(graph, p)
    strategies, tabs = zip(*table_rows)
    model = IndependentActivation(n, lat, np.zeros(len(strategies), np.int64), strategies,
                                  np.vstack(tabs))
    return graph, params, model, lat, build_augmented(graph, params, model, lat)


def _weights(model, v, j):
    """The weights of the virtual edges u[j, 1..K] -> v: ``np.diff`` of v's
    q row for j, or zeros where j does not apply to v."""
    js, tabs = node_rows(model, v)
    rows = tabs[js == j]
    return np.diff(rows[0]) if len(rows) else np.zeros(model.lattice.budget_steps)


def _arms(aug, draws, rng):
    """``draws`` arms of node 0, drawn in one call of the graph's arm
    sampler: (index of the draw, virtual flat id) per arm that fires."""
    return aug.draw_arms(np.zeros(draws, np.int64), rng)


def _hybrid(aug, roots, rng):
    """The ``(vsets, flats)`` of the hybrid RR sets rooted at ``roots``,
    sampled by one call of ``HybridCollection._sample``."""
    coll = HybridCollection(aug)
    coll._sample(np.asarray(roots), rng)
    return coll.vsets, coll.flats


def test_linear_curve_gives_equal_weights():
    row = np.array([0.0, 0.2, 0.4, 0.6])
    _, _, model, _, _ = _aug_single([(0, row)])
    assert _weights(model, 0, 0) == pytest.approx([0.2, 0.2, 0.2])


def test_multi_event_weights():
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    row = multi_event_table(0.3, lat)
    _, _, model, _, _ = _aug_single([(0, row)], steps=2)
    assert _weights(model, 0, 0) == pytest.approx([0.3, 0.21])


def test_weights_telescope_to_cumulative(rng):
    row = random_concave_table(rng, 5)
    _, _, model, _, _ = _aug_single([(0, row)], steps=5)
    w = _weights(model, 0, 0)
    assert w.sum() == pytest.approx(row[-1])
    # concavity makes the weights nonincreasing
    assert np.all(w[:-1] >= w[1:] - 1e-12)


def test_non_concave_curve_rejected():
    row = np.array([0.0, 0.1, 0.5])  # growing marginal
    with pytest.raises(InvalidModelError):
        _aug_single([(0, row)], steps=2)


def test_lattice_unequal_to_model_lattice_rejected():
    # a model tabulated for K = 3 under a K = 2 lattice (d = 2, 3-node
    # chain): its arms would get flat ids up to 5 against d * K = 4
    g = from_edges(3, [(0, 1), (1, 2)])
    wide = LatticeConfig(d=2, delta=1.0, budget_steps=3)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    rows = np.vstack([multi_event_table(0.4, wide), multi_event_table(0.6, wide)])
    model = IndependentActivation(3, wide, np.repeat(np.arange(3), 2), [0, 1] * 3,
                                  np.tile(rows, (3, 1)))
    params = uniform_ic(g, 1.0)
    msg = (r"^lattice LatticeConfig\(d=2, delta=1.0, budget_steps=2\) differs from "
           r"the model's LatticeConfig\(d=2, delta=1.0, budget_steps=3\)$")
    with pytest.raises(ValueError, match=msg):
        build_augmented(g, params, model, lat)
    with pytest.raises(ValueError, match=msg):
        run_immvsn(g, params, model, lat, TotalBudget(2),
                   make_imm_params(3, lat, 2, 0.5, 1.0), stream(46, 0))


def test_model_over_fewer_nodes_than_the_graph_rejected():
    # a 2-node model on a 4-node chain: both solvers name the two sizes
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = IndependentActivation(2, lat, [0, 1], [0, 1], np.tile([0.0, 0.3, 0.5], (2, 1)))
    imm = make_imm_params(4, lat, 2, 0.5, 1.0)
    for solve in (run_immvsn, run_immprr):
        with pytest.raises(ValueError, match=r"^model over 2 nodes for a graph of 4$"):
            solve(g, uniform_ic(g, 0.5), model, lat, TotalBudget(2), imm, stream(46, 1))


@pytest.mark.parametrize("case", ["partition", "lattice", "nodes"])
@pytest.mark.parametrize("solve", [run_immprr, run_immvsn], ids=["immprr", "immvsn"])
def test_bad_request_raises_at_a_zero_budget(solve, case):
    """Both solvers check the whole request before they return the zero mix
    of a zero budget: a partition over 4 strategies on a d = 3 lattice, a
    model tabulated for another lattice and a model over n + 1 nodes."""
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=2)
    n, tabulated, constraint = 3, lat, TotalBudget(0)
    if case == "partition":
        constraint = PartitionedBudget([(0, 1), (2, 3)], [0, 0])
        msg = r"^constraint partitions 4 strategies, not 3$"
    elif case == "lattice":
        tabulated = LatticeConfig(d=3, delta=1.0, budget_steps=3)
        msg = r"differs from the model's LatticeConfig\(d=3, delta=1.0, budget_steps=3\)$"
    else:
        n = 4
        msg = r"^model over 4 nodes for a graph of 3$"
    model = IndependentActivation(n, tabulated, np.arange(3), np.arange(3),
                                  np.tile(multi_event_table(0.4, tabulated), (3, 1)))
    imm = make_imm_params(3, lat, 1, 0.5, 1.0)
    with pytest.raises(ValueError, match=msg):
        solve(g, uniform_ic(g, 0.5), model, lat, constraint, imm, stream(46, 2))


def test_flat_roundtrip():
    row = np.array([0.0, 0.2, 0.3])
    _, _, _, _, aug = _aug_single([(0, row)], steps=2)
    for j in range(2):
        for i in range(1, 3):
            assert aug.flat(VirtualNodeId(j, i)) == j * 2 + i - 1


# --- arm sampling ---------------------------------------------------------------

def test_arm_zero_curve_never_fires():
    row = np.zeros(4)
    _, _, _, _, aug = _aug_single([(0, row)], steps=3)
    pair, flats = _arms(aug, 2000, stream(40, 0))
    assert len(pair) == len(flats) == 0


def test_arm_single_step_frequency():
    row = np.array([0.0, 0.3])
    _, _, _, _, aug = _aug_single([(0, row)], steps=1)
    _, flats = _arms(aug, 100_000, stream(40, 1))
    assert abs(len(flats) / 100_000 - 0.3) < 0.01


def test_arm_multi_event_frequencies():
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    row = multi_event_table(0.3, lat)
    _, _, _, _, aug = _aug_single([(0, row)], steps=2)
    pair, flats = _arms(aug, 100_000, stream(40, 2))
    assert np.all(np.diff(pair) > 0)  # at most one arm per draw
    counts = np.bincount(flats, minlength=2)  # flat id i - 1 of strategy 0
    assert len(counts) == 2
    assert abs(counts[0] / 100_000 - 0.30) < 0.01
    assert abs(counts[1] / 100_000 - 0.21) < 0.01
    assert abs(1 - len(flats) / 100_000 - 0.49) < 0.01


def test_arm_sampler_chi_square(rng):
    row = random_concave_table(rng, 4, total_cap=0.85)
    _, _, _, _, aug = _aug_single([(0, row)], steps=4)
    draws = 100_000
    _, flats = _arms(aug, draws, stream(40, 3))
    counts = np.append(np.bincount(flats, minlength=4), draws - len(flats))
    probs = np.concatenate((np.diff(row), [1.0 - row[-1]]))
    _, p = sps.chisquare(counts, probs * draws)
    assert p > 0.01


def test_arm_requires_applicable_strategy():
    # of d = 2 strategies only 0 applies to node 0, and none to node 1: the
    # kernel draws one uniform per node-0 pair and arms of strategy 0 only
    row = np.array([0.0, 0.6])
    _, _, _, _, aug = _aug_single([(0, row)], n=2, steps=1)
    gen, ref = stream(40, 4), stream(40, 4)
    pair, flats = aug.draw_arms(np.tile([0, 1], 1000), gen)
    assert len(flats) > 0 and np.all(flats == 0) and np.all(pair % 2 == 0)
    ref.random(1000)
    assert gen.random() == ref.random()


@pytest.mark.parametrize("seeds", [[-1], [2], [VirtualNodeId(1, 2)],
                                   [VirtualNodeId(0, 2)], [VirtualNodeId(-1, 2)]])
def test_virtual_seed_outside_flat_ids_rejected(seeds):
    # d = 2 strategies of K = 1 step: flat ids 0 and 1, which (0, 2) and
    # (-1, 2) would alias
    _, _, _, _, aug = _aug_single([(0, np.array([0.0, 0.2]))], steps=1)
    with pytest.raises(ValueError, match=r"^virtual seed outside flat ids \[0, 2\)$"):
        simulate_spread_virtual_seeds(aug, seeds, 10, stream(40, 5))


# --- hybrid RR sets ---------------------------------------------------------------

def test_hybrid_no_strategies_no_virtual(rng):
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = IndependentActivation(3, lat, [], [], np.empty((0, 3)))
    aug = build_augmented(g, uniform_ic(g, 0.5), model, lat)
    for root in range(3):
        assert root in rr_set(g, aug.params, root, stream(41, root)).members
        vsets, flats = _hybrid(aug, [root], stream(41, root))
        assert len(vsets) == len(flats) == 0


def test_hybrid_rr_set_real_members_sorted():
    # certain chain 0 -> 1 -> 2: the set rooted at 2 holds 0, 1 and 2, and
    # its arms (one flat id, 0) are listed once
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=1)
    row = np.array([[0.0, 0.5]])
    g = from_edges(3, [(0, 1), (1, 2)])
    model = IndependentActivation(3, lat, np.arange(3), [0] * 3, np.tile(row, (3, 1)))
    aug = build_augmented(g, uniform_ic(g, 1.0), model, lat)
    assert rr_set(g, aug.params, 2, stream(41, 9)).members.tolist() == [0, 1, 2]
    vsets, flats = _hybrid(aug, [2], stream(41, 9))
    assert vsets.tolist() == [0] and flats.tolist() == [0]


def test_hybrid_certain_arm():
    row = np.array([0.0, 0.6, 1.0])  # q(K) = 1: an arm always fires
    _, _, _, _, aug = _aug_single([(0, row)], steps=2)
    roots = np.zeros(500, dtype=np.int64)
    vsets, flats = _hybrid(aug, roots, stream(41, 5))
    assert vsets.tolist() == list(range(500))
    assert np.all(flats // aug.steps == 0)


def test_hybrid_expected_virtual_count():
    # isolated node, two strategies with q(K) = 0.3 and 0.5: mean count 0.8
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    r1 = np.array([0.0, 0.2, 0.3])
    r2 = np.array([0.0, 0.35, 0.5])
    g = from_edges(1, [])
    model = IndependentActivation(1, lat, [0, 0], [0, 1], np.vstack([r1, r2]))
    aug = build_augmented(g, uniform_ic(g, 0.5), model, lat)
    roots = np.zeros(100_000, dtype=np.int64)
    total = len(_hybrid(aug, roots, stream(41, 6))[1])
    assert abs(total / 100_000 - 0.8) < 0.01


def test_hybrid_pairs_are_distinct_and_sorted(monkeypatch):
    # chain 0 -> 1 -> 2 of certain edges: the set rooted at v holds 0..v, and
    # every member's arm 1 of strategy 1 always fires, so a set of several
    # members draws flat id 1 * K several times and must list it once
    monkeypatch.setattr(rrset_module, "_MARK_BYTES", 16)  # batches of 42 sets
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    g = from_edges(3, [(0, 1), (1, 2)])
    certain = np.array([0.0, 1.0, 1.0])
    other = np.array([0.0, 0.3, 0.5])
    model = IndependentActivation(3, lat, [0, 0, 1, 2, 2], [0, 1, 1, 0, 1],
                                  np.vstack([other, certain, certain, other, certain]))
    aug = build_augmented(g, uniform_ic(g, 1.0), model, lat)
    roots = np.random.default_rng(5).integers(0, 3, size=500)
    span = lat.d * aug.steps
    vsets, flats = _hybrid(aug, roots, stream(41, 8))
    assert np.all(np.diff(vsets * span + flats) > 0)
    assert np.array_equal(np.bincount(vsets[flats == 1 * aug.steps], minlength=500),
                          np.ones(500, dtype=np.int64))


def test_arms_drawn_once_per_kernel_batch(monkeypatch):
    # certain chain 0 -> ... -> 5: a set rooted at v takes v + 1 BFS levels,
    # yet its batch's members draw their arms in one call, after the batch
    monkeypatch.setattr(rrset_module, "_MARK_BYTES", 4)  # batches of 5 sets
    module = importlib.import_module("limax.immvsn")
    kernel, batches = module._reverse_reach, []

    def counted(*args):
        for sets, nodes in kernel(*args):
            batches.append(len(nodes))
            yield sets, nodes

    monkeypatch.setattr(module, "_reverse_reach", counted)
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    g = from_edges(6, [(v, v + 1) for v in range(5)])
    model = IndependentActivation(6, lat, np.arange(6), np.arange(6) % 2,
                                  np.tile([0.0, 0.3, 0.5], (6, 1)))
    aug = build_augmented(g, uniform_ic(g, 1.0), model, lat)
    draw, draws = aug.draw_arms, []
    monkeypatch.setattr(aug, "draw_arms",
                        lambda nodes, rng: (draws.append(len(nodes)), draw(nodes, rng))[1])
    HybridCollection(aug).extend(23, stream(41, 10))
    assert len(batches) >= 3 and max(batches) < rrset_module._EDGE_CHUNK
    assert draws == batches  # one call per batch, over all of its members
    assert sum(batches) > 23  # some set took more than one level


SETS_PER_ROOT = 20_000


def _check_virtual_membership(inst, params, rng):
    """Hybrid RR sets of every root against the exact oracle: given live-edge
    outcome l, u[j,i] joins the set rooted at v unless every w in anc[l, v]
    with j in S_w misses arm i; summed over outcomes."""
    graph, model = inst.graph, inst.model
    aug = build_augmented(graph, params, model, inst.lattice)
    n, K = graph.n, aug.steps
    enum = LiveEdgeEnumeration(graph, params)
    roots = np.repeat(np.arange(n), SETS_PER_ROOT)
    freq = np.zeros((n, inst.lattice.d * K))
    vsets, flats = _hybrid(aug, roots, rng)
    np.add.at(freq, (roots[vsets], flats), 1.0 / SETS_PER_ROOT)
    assert freq.any()
    for f in range(freq.shape[1]):
        j, i = divmod(f, K)
        arm = np.array([_weights(model, w, j)[i] for w in range(n)])
        miss = np.ones(1)  # miss[mask] = prod over w in mask of (1 - arm[w])
        for w in range(n):
            miss = np.concatenate((miss, miss * (1.0 - arm[w])))
        exact = np.clip(enum.probs @ (1.0 - miss[enum.anc]), 0.0, 1.0)
        se = np.sqrt(exact * (1.0 - exact) / SETS_PER_ROOT)
        assert np.all(np.abs(freq[:, f] - exact) <= 4.0 * se + 1e-12), (j, i + 1)


@pytest.mark.parametrize("kind", [IC, LT])
@pytest.mark.parametrize("seed", RICH_SEEDS)
def test_virtual_membership_matches_exact_oracle(kind, seed):
    inst = random_instance(np.random.default_rng(seed), n_max=8, m_max=10, kind=kind)
    _check_virtual_membership(inst, inst.params, stream(31, seed))


@pytest.mark.parametrize("shared", SHARED_IC)
@pytest.mark.parametrize("seed", RICH_SEEDS)
def test_skipping_virtual_membership_matches_exact_oracle(shared, seed, monkeypatch):
    # with the gate at in-degree 1, every node whose in-edges share one
    # p < 1 draws geometric gaps
    monkeypatch.setattr(graph_module, "_SKIP_DEGREE", 1)
    inst = random_instance(np.random.default_rng(seed), n_max=8, m_max=10, kind=IC)
    params = shared_ic(inst.graph, shared)
    assert params._skip[0].sum() >= 2
    _check_virtual_membership(inst, params, stream(33, seed))


def test_generate_hybrid_collection_rejects_negative_count():
    _, _, _, _, aug = _aug_single([(0, np.array([0.0, 0.4]))], steps=1)
    with pytest.raises(ValueError, match=r"^count must be >= 0$"):
        generate_hybrid_collection(aug, -1, stream(3, 0))
    assert generate_hybrid_collection(aug, 0, stream(3, 0)).theta == 0


def test_hybrid_collection_counts_virtualless_sets():
    row = np.array([0.0, 0.4])
    _, _, _, _, aug = _aug_single([(0, row)], n=2, steps=1)
    coll = generate_hybrid_collection(aug, 500, stream(41, 7))
    assert coll.theta == 500
    assert len(coll.virtual_sets) < 500  # some sets held no virtual node


# --- greedy over virtual nodes ------------------------------------------------------

def _manual_collection(aug, virtual_sets, extra_empty=0):
    coll = HybridCollection(aug)
    coll.vsets = np.repeat(np.arange(len(virtual_sets)),
                           [len(f) for f in virtual_sets]).astype(np.int64)
    coll.flats = np.array([f for flats in virtual_sets for f in sorted(flats)],
                          dtype=np.int64)
    coll.theta = len(virtual_sets) + extra_empty
    return coll


def test_selection_no_virtual_nodes_spends_every_step():
    # every round is a zero-coverage tie: the lowest open flat id is
    # strategy 0's one increment, then strategy 1's
    row = np.array([0.0, 0.4])
    _, _, _, lat, aug = _aug_single([(0, row)], steps=1)
    coll = _manual_collection(aug, [], extra_empty=10)
    mix = node_selection_virtual(coll, lat, TotalBudget(2))
    assert mix.steps.tolist() == [1, 1]


def test_selection_empty_collection_raises():
    row = np.array([0.0, 0.4])
    _, _, _, lat, aug = _aug_single([(0, row)], steps=1)
    with pytest.raises(EmptyCollectionError):
        node_selection_virtual(_manual_collection(aug, []), lat, TotalBudget(1))


def test_selection_single_dominant_strategy():
    row = np.array([0.0, 0.3, 0.5])
    _, _, _, lat, aug = _aug_single([(0, row)], steps=2)
    # all coverage sits in strategy 0's arms (flat 0 and 1)
    sets = [[0], [0, 1], [1], [0]]
    coll = _manual_collection(aug, sets)
    mix = node_selection_virtual(coll, lat, TotalBudget(2))
    assert mix.steps.tolist() == [2, 0]


def test_selection_matches_bruteforce_greedy_sequence():
    row = np.array([0.0, 0.3, 0.5])
    _, _, _, lat, aug = _aug_single([(0, row)], steps=2)
    sets = [[0, 2], [2], [2, 3], [1]]
    coll = _manual_collection(aug, sets)
    seeds, covered = _greedy_virtual(coll, TotalBudget(3))

    # independent max-coverage greedy oracle; a zero-coverage round still
    # picks, the lowest flat id not yet picked
    remaining = [set(s) for s in sets]
    expect = []
    for _ in range(3):
        cand = [f for f in range(aug.span) if f not in expect]
        best = max(cand, key=lambda f: (sum(f in s for s in remaining), -f))
        expect.append(best)
        remaining = [s for s in remaining if best not in s]
    assert seeds == expect == [2, 1, 0]
    assert covered == len(sets) - sum(1 for s in remaining if s)


def test_selection_respects_partition_caps():
    row = np.array([0.0, 0.3, 0.5])
    lat = LatticeConfig(d=4, delta=1.0, budget_steps=2)
    g = from_edges(1, [])
    model = IndependentActivation(1, lat, [0], [0], row[None, :])
    aug = build_augmented(g, uniform_ic(g, 0.5), model, lat)
    # heavy coverage on strategies 0 and 1 (group 0), light on 2 (group 1)
    sets = [[0], [0], [0], [2], [2], [4]]
    coll = _manual_collection(aug, sets)
    constraint = PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[1, 2])
    mix = node_selection_virtual(coll, lat, constraint)
    assert is_feasible(mix, constraint)
    assert mix.steps[0] + mix.steps[1] <= 1


def _greedy_virtual_reference(collection, constraint):
    """The dict-and-list max-coverage greedy that the array greedy replaced:
    a per-step scan of a count dict, lowest flat id on ties.  A round with
    no coverage left picks the lowest open flat id not yet picked."""
    steps = collection.aug.steps
    virtual_sets = collection.virtual_sets
    index = {}
    for si, flats in enumerate(virtual_sets):
        for f in flats:
            index.setdefault(f, []).append(si)
    counts = {f: len(index.get(f, [])) for f in range(collection.aug.span)}
    covered = bytearray(len(virtual_sets))
    group_of, caps = as_partition(constraint, collection.aug.lattice.d)
    used = [0] * len(caps)
    seeds = []
    covered_total = 0
    for _ in range(total_steps(constraint)):
        best_f, best_c = -1, -1
        for f, c in counts.items():
            if f in seeds or used[group_of[f // steps]] >= caps[group_of[f // steps]]:
                continue
            if c > best_c:
                best_f = f
                best_c = c
        if best_f < 0:
            break
        seeds.append(best_f)
        used[group_of[best_f // steps]] += 1
        for si in index.get(best_f, []):
            if not covered[si]:
                covered[si] = 1
                covered_total += 1
                for w in virtual_sets[si]:
                    counts[w] -= 1
    return seeds, covered_total


@pytest.mark.parametrize("seed", range(12))
def test_greedy_virtual_matches_reference(seed):
    gen = np.random.default_rng(1700 + seed)
    inst = random_instance(gen, n_max=8, m_max=12, d_max=3, steps_max=4)
    K = inst.lattice.budget_steps
    # strategies past the instance's d reach nobody: their arms never fire
    lat = LatticeConfig(d=4, delta=1.0, budget_steps=K)
    model = IndependentActivation(inst.graph.n, lat, inst.model._flat_nodes,
                                  inst.model._flat_strats, inst.model._flat_tables)
    aug = build_augmented(inst.graph, inst.params, model, lat)
    coll = generate_hybrid_collection(aug, int(gen.integers(1, 400)), stream(46, seed))
    caps = gen.integers(0, K + 1, size=2).tolist()
    for constraint in (TotalBudget(K), TotalBudget(2 * K),
                       PartitionedBudget(groups=[(0, 2), (1, 3)], caps=caps)):
        assert _greedy_virtual(coll, constraint) == \
            _greedy_virtual_reference(coll, constraint)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_virtual_matches_reference_on_wide_collections(seed):
    # thousands of sets grown over several extends, so the greedy's packed
    # (flat id, set) keys span many batches and set ids
    gen = np.random.default_rng(1750 + seed)
    inst = random_instance(gen, n_max=30, m_max=90, d_max=5, steps_max=4)
    K = inst.lattice.budget_steps
    lat = LatticeConfig(d=5, delta=1.0, budget_steps=K)
    model = IndependentActivation(inst.graph.n, lat, inst.model._flat_nodes,
                                  inst.model._flat_strats, inst.model._flat_tables)
    aug = build_augmented(inst.graph, inst.params, model, lat)
    coll = HybridCollection(aug)
    for k in range(3):
        coll.extend(int(gen.integers(500, 1500)), stream(47, seed, k))
    caps = gen.integers(0, 2 * K + 1, size=2).tolist()
    for constraint in (TotalBudget(3 * K),
                       PartitionedBudget(groups=[(0, 2, 4), (1, 3)], caps=caps)):
        assert _greedy_virtual(coll, constraint) == \
            _greedy_virtual_reference(coll, constraint)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), partitioned=st.booleans())
def test_virtual_greedy_stops_only_when_need_is_out_of_reach(seed, partitioned):
    """A virtual greedy given a stage threshold returns None only if its
    full run's estimate misses it, and otherwise the full run's seeds."""
    gen = np.random.default_rng(seed)
    inst = random_instance(gen, n_max=10, m_max=16, d_max=5, steps_max=4)
    constraint = stage_budget(gen, inst.lattice.d, inst.lattice.budget_steps, partitioned)
    aug = build_augmented(inst.graph, inst.params, inst.model, inst.lattice)
    coll = generate_hybrid_collection(aug, 80, stream(65, seed))
    full = _greedy_virtual(coll, constraint)
    est = coll.n * full[1] / coll.theta
    for need in needs_around(est, total_steps(constraint)):
        picked = _greedy_virtual(coll, constraint, need)
        assert est < need if picked is None else picked == full
    assert picked is None  # the last threshold is out of reach


# --- prefix dominance ----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_prefix_dominates_every_same_size_subset(seed):
    gen = np.random.default_rng(800 + seed)
    K = int(gen.integers(2, 6))
    row = random_concave_table(gen, K)
    _, _, _, _, aug = _aug_single([(0, row)], steps=K)
    weights = _weights(aug.model, 0, 0)
    for size in range(1, K + 1):
        prefix = weights[:size].sum()
        for combo in itertools.combinations(range(K), size):
            assert prefix >= weights[list(combo)].sum() - 1e-12


# --- reduction fidelity and driver ------------------------------------------------------

def test_reduction_fidelity_small(rng):
    inst = random_instance(rng, n_max=5, m_max=8, d_max=2, steps_max=2)
    aug = build_augmented(inst.graph, inst.params, inst.model, inst.lattice)
    x = StrategyMix(rng.integers(0, inst.lattice.budget_steps + 1,
                                 size=inst.lattice.d))
    seeds = [VirtualNodeId(j, i)
             for j in range(inst.lattice.d)
             for i in range(1, int(x.steps[j]) + 1)]
    lim = simulate_spread_mix(inst.graph, inst.params, inst.model, x,
                              60_000, stream(42, 0))
    aug_est = simulate_spread_virtual_seeds(aug, seeds, 60_000, stream(42, 1))
    tol = 3 * math.hypot(lim.se, aug_est.se) + 1e-9
    assert abs(lim.mean - aug_est.mean) <= tol


@pytest.mark.parametrize("seed", range(4))
def test_virtual_seed_spread_never_beats_converted_mix(seed):
    # exact check: stopping the cascade model at the activation layer, a seed
    # set S of virtual nodes activates v with 1 - prod_j (1 - sum of seeded
    # arm weights); the same-size prefix mix can only do better
    gen = np.random.default_rng(850 + seed)
    inst = random_instance(gen, n_max=5, m_max=7, d_max=2, steps_max=3)
    aug = build_augmented(inst.graph, inst.params, inst.model, inst.lattice)
    from limax.oracles import LiveEdgeEnumeration
    enum = LiveEdgeEnumeration(inst.graph, inst.params)
    K, d = aug.steps, inst.lattice.d
    all_arms = list(range(d * K))
    for _ in range(20):
        take = int(gen.integers(0, min(len(all_arms), 2 * K) + 1))
        seeds = set(gen.choice(all_arms, size=take, replace=False).tolist())
        h_direct = np.empty(inst.graph.n)
        for v in range(inst.graph.n):
            acc = 1.0
            for j in node_rows(inst.model, v)[0]:
                w = sum(_weights(inst.model, v, j)[f % K]
                        for f in seeds if f // K == j)
                acc *= 1.0 - w
            h_direct[v] = 1.0 - acc
        sigma_aug = enum.spread_given_h(h_direct)
        x = np.zeros(d, dtype=np.int64)
        for f in seeds:
            x[f // K] += 1
        g_mix = enum.spread_given_h(inst.model.h_all(x))
        assert sigma_aug <= g_mix + 1e-12


@pytest.mark.parametrize("grows", [False, True])
def test_final_greedy_reuses_last_stage_pick(monkeypatch, grows):
    graph, params, model, lat, imm = stage_reuse_instance()
    calls = []
    module = importlib.import_module("limax.immvsn")
    greedy = module._greedy_virtual

    def counted(collection, *args):
        calls.append(collection.theta)
        return greedy(collection, *args)

    monkeypatch.setattr(module, "_greedy_virtual", counted)
    # the first solver stream whose last stage's collection grew, or did not
    for seed in range(40):
        calls.clear()
        res = run_immvsn(graph, params, model, lat, TotalBudget(10), imm, stream(7, seed))
        if (calls[res.stats.stages_run - 1] < res.stats.theta) == grows:
            break
    else:
        pytest.fail(f"no stream in 40 where the last stage's collection grows is {grows}")
    # one greedy per stage, plus a final one only if the last stage's
    # collection grew
    assert len(calls) == res.stats.stages_run + grows
    assert res.mix == node_selection_virtual(res.collection, lat, TotalBudget(10))


@pytest.mark.parametrize("edges, n, k", [
    ([(0, 1)], 2, 2),
    ([(0, v) for v in range(1, 5)] + [(v, 0) for v in range(1, 5)], 5, 4),
])
def test_both_solvers_spend_zero_gain_steps_alike(edges, n, k):
    """Under p = 1 one step on strategy 0 already seeds a node that reaches
    everyone, so every later step gains nothing: both solvers still spend
    them, on the lowest open coordinate (a 2-node edge, a bidirectional star)."""
    g = from_edges(n, edges)
    params = uniform_ic(g, 1.0)
    lat = LatticeConfig(d=n, delta=1.0, budget_steps=k)
    model = make_personalized(n, lat)
    imm = make_imm_params(n, lat, k, 0.5, 1.0)
    for solve in (run_immprr, run_immvsn):
        mix = solve(g, params, model, lat, TotalBudget(k), imm, stream(48, 0)).mix
        assert mix.steps.tolist() == [k] + [0] * (n - 1), solve.__name__


def test_immvsn_zero_budget(rng):
    inst = random_instance(rng, n_max=6, m_max=8, d_max=2, steps_max=2)
    imm = make_imm_params(inst.graph.n, inst.lattice, 1, 0.4, 1.0)
    mix = run_immvsn(inst.graph, inst.params, inst.model, inst.lattice,
                     TotalBudget(0), imm, stream(43, 0)).mix
    assert mix == StrategyMix.zeros(inst.lattice.d)


def test_immvsn_deterministic(rng):
    inst = random_instance(rng, n_max=7, m_max=9, d_max=2, steps_max=2)
    K = inst.lattice.budget_steps
    imm = make_imm_params(inst.graph.n, inst.lattice, K, 0.4, 1.0)
    r1 = run_immvsn(inst.graph, inst.params, inst.model, inst.lattice,
                    TotalBudget(K), imm, stream(44, 9))
    r2 = run_immvsn(inst.graph, inst.params, inst.model, inst.lattice,
                    TotalBudget(K), imm, stream(44, 9))
    assert r1.mix == r2.mix and r1.stats.theta == r2.stats.theta


def test_immvsn_output_feasible(rng):
    inst = random_instance(rng, n_max=7, m_max=9, d_max=3, steps_max=3)
    K = inst.lattice.budget_steps
    imm = make_imm_params(inst.graph.n, inst.lattice, K, 0.5, 1.0)
    mix = run_immvsn(inst.graph, inst.params, inst.model, inst.lattice,
                     TotalBudget(K), imm, stream(45, 0)).mix
    assert is_feasible(mix, TotalBudget(K))


def test_arm_slot_index_built_once_per_solve():
    """Every stage of a solve draws its arms through the one graph the solve
    builds; that graph's sampler matches a per-row search on the same
    uniforms."""
    graph, params, model, lat, imm = stage_reuse_instance()
    res = run_immvsn(graph, params, model, lat, TotalBudget(10), imm, stream(7, 0))
    assert res.stats.stages_run >= 2  # one extend per stage, all through one graph
    pair, flats = res.collection.aug.draw_arms(np.arange(graph.n), np.random.default_rng(5))
    x = np.random.default_rng(5).random(len(model._flat_tables))  # one per row
    fire = np.flatnonzero(x < model._flat_tables[:, -1])
    assert pair.tolist() == model._flat_nodes[fire].tolist()
    assert flats.tolist() == [
        model._flat_strats[r] * lat.budget_steps
        + np.searchsorted(model._flat_tables[r], x[r], side="right") - 1
        for r in fire.tolist()]
