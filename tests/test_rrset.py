import bisect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import (RICH_SEEDS, SHARED_IC, random_concave_table, random_instance,
                      node_rows, rr_set, running_sums, shared_ic, sweep_monotone_dr)

import limax.graph as graph_module
import limax.rrset as rrset_module
from limax.graph import (_SKIP_DEGREE, IC, LT, TriggeringParams, _slots,
                         assign_weighted_cascade, from_edges, uniform_ic)
from limax.immvsn import AugmentedGraph, HybridCollection
from limax.oracles import LiveEdgeEnumeration, simulate_spread_mix
from limax.rng import stream
from limax.rrset import (_EDGE_CHUNK, EmptyCollectionError, RRCollection, RRSet,
                         _distinct, g_hat, generate_collection)
from limax.strategy import (BlackBoxActivation, IndependentActivation,
                            LatticeConfig, StrategyMix, multi_event_table)


def _personal_model(n, lat, rates):
    return IndependentActivation(n, lat, np.arange(n), np.arange(n),
                                 multi_event_table(rates, lat))


def _rr_sets(graph, params, roots, rng):
    """The RR sets rooted at ``roots``, in order."""
    coll = RRCollection(graph, params, None)
    coll._sample(roots, rng)
    return coll.sets


def test_rr_set_isolated_root():
    g = from_edges(3, [(0, 1)])
    rr = rr_set(g, uniform_ic(g, 0.5), 2, stream(0, 0))
    assert rr.members.tolist() == [2]
    assert rr.width == 0


@pytest.mark.parametrize("root", [-1, 3, 7])
def test_rr_set_root_outside_nodes_rejected(root):
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=rf"^root {root} outside \[0, 3\)$"):
        rr_set(g, uniform_ic(g, 0.5), root, stream(0, 0))


def test_rr_set_certain_chain():
    g = from_edges(3, [(0, 1), (1, 2)])
    params = uniform_ic(g, 1.0)
    rr = rr_set(g, params, 2, stream(0, 1))
    assert rr.members.tolist() == [0, 1, 2]
    assert rr.width == 2  # one in-edge each for nodes 1 and 2


def test_rr_set_bernoulli_frequency():
    g = from_edges(2, [(0, 1)])
    params = uniform_ic(g, 0.5)
    sets = _rr_sets(g, params, np.ones(100_000, dtype=np.int64), stream(5, 2))
    hits = sum(len(rr.members) == 2 for rr in sets)
    assert abs(hits / 100_000 - 0.5) < 0.01


SETS_PER_ROOT = 20_000


def _check_membership(graph, params, rng):
    """RR sets of every root against the exact oracle's inclusion
    probabilities: P(u in R_v) = sum_l probs[l] * [u in anc[l, v]] over
    every live-edge outcome."""
    n = graph.n
    enum = LiveEdgeEnumeration(graph, params)
    roots = np.repeat(np.arange(n), SETS_PER_ROOT)
    sets = _rr_sets(graph, params, roots, rng)
    assert [rr.root for rr in sets] == roots.tolist()
    sizes = np.array([len(rr.members) for rr in sets])
    members = np.concatenate([rr.members for rr in sets])
    owner = np.repeat(roots, sizes)  # each member's root
    starts = np.cumsum(sizes) - sizes
    inner = np.ones(len(members), dtype=bool)
    inner[starts] = False
    assert np.all(np.diff(members)[inner[1:]] > 0)  # sorted, no repeats
    assert np.all(np.add.reduceat((members == owner).astype(int), starts) == 1)
    widths = np.add.reduceat(graph.in_degrees()[members], starts)
    assert widths.tolist() == [rr.width for rr in sets]
    freq = np.zeros((n, n))
    np.add.at(freq, (owner, members), 1.0 / SETS_PER_ROOT)
    bits = (enum.anc[:, :, None] >> np.arange(n)) & 1  # [l, v, u]
    exact = np.clip(np.einsum("l,lvu->vu", enum.probs, bits), 0.0, 1.0)
    se = np.sqrt(exact * (1.0 - exact) / SETS_PER_ROOT)
    assert np.all(np.abs(freq - exact) <= 4.0 * se + 1e-12)


@pytest.mark.parametrize("kind", [IC, LT])
@pytest.mark.parametrize("seed", RICH_SEEDS)
def test_membership_matches_exact_oracle(kind, seed):
    inst = random_instance(np.random.default_rng(seed), n_max=8, m_max=10, kind=kind)
    _check_membership(inst.graph, inst.params, stream(30, seed))


@pytest.mark.parametrize("shared", SHARED_IC)
@pytest.mark.parametrize("seed", RICH_SEEDS)
def test_skipping_membership_matches_exact_oracle(shared, seed, monkeypatch):
    # with the gate at in-degree 1, every node whose in-edges share one
    # p < 1 draws geometric gaps
    monkeypatch.setattr(graph_module, "_SKIP_DEGREE", 1)
    inst = random_instance(np.random.default_rng(seed), n_max=8, m_max=10, kind=IC)
    params = shared_ic(inst.graph, shared)
    assert params._skip[0].sum() >= 2
    _check_membership(inst.graph, params, stream(32, seed))


# --- geometric in-edge skipping at the real gate -------------------------------------

STAR_SETS = 20_000


def _binomial_cells(d, p, sets):
    """Expected counts of Binomial(d, p) over cells of k = 0..d, neighbours
    pooled until each cell expects at least 5; returns (cell of k, expected)."""
    expect = sets * sps.binom.pmf(np.arange(d + 1), d, p)
    cell, cells, acc = np.zeros(d + 1, dtype=np.int64), [], 0.0
    for k in range(d + 1):
        cell[k] = len(cells)
        acc += expect[k]
        if acc >= 5.0:
            cells.append(acc)
            acc = 0.0
    cell[cell == len(cells)] = len(cells) - 1  # the tail joins the last full cell
    cells[-1] += acc
    return cell, np.array(cells)


# None: weighted cascade, p = 1 / d; at p = 0.6 most sets outlast the gap
# rounds and finish their row with coins
@pytest.mark.parametrize("d, p", [(_SKIP_DEGREE, None), (_SKIP_DEGREE, 0.3),
                                  (2 * _SKIP_DEGREE, 0.6)])
def test_star_at_gate_draws_binomial_live_edges(d, p):
    below = from_edges(_SKIP_DEGREE, [(u, 0) for u in range(1, _SKIP_DEGREE)])
    assert not uniform_ic(below, 0.3)._skip[0].any()  # one in-edge short: coins
    g = from_edges(d + 1, [(u, 0) for u in range(1, d + 1)])
    params = assign_weighted_cascade(g) if p is None else uniform_ic(g, p)
    p = 1.0 / d if p is None else p
    assert params._skip[0].tolist() == [True] + [False] * d
    sets = _rr_sets(g, params, np.zeros(STAR_SETS, dtype=np.int64), stream(61, d, int(p * 1e6)))
    live = np.array([len(rr.members) - 1 for rr in sets])
    cell, expect = _binomial_cells(d, p, STAR_SETS)
    _, pvalue = sps.chisquare(np.bincount(cell[live], minlength=len(expect)), expect)
    assert pvalue > 1e-3
    freq = np.bincount(np.concatenate([rr.members for rr in sets]), minlength=d + 1) / STAR_SETS
    assert freq[0] == 1.0
    se = np.sqrt(p * (1.0 - p) / STAR_SETS)
    assert np.all(np.abs(freq[1:] - p) <= 4.0 * se)


# --- virtual-arm slot lookup -------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_arm_slot_lookup_matches_per_row_search(seed):
    gen = np.random.default_rng(1800 + seed)
    K = int(gen.integers(1, 9))
    tables = []
    for _ in range(int(gen.integers(1, 40))):
        row = random_concave_table(gen, K)
        plateau = int(gen.integers(0, K + 1))  # flat from this step on
        row[plateau:] = row[plateau]
        tables.append(row)
    tables = np.array(tables)
    tables[gen.integers(0, len(tables))] = 0.0  # one all-zero row
    rows = gen.integers(0, len(tables), size=4000)
    x = gen.random(4000)
    exact = gen.random(4000) < 0.5  # draws equal to one of the row's entries
    x[exact] = tables[rows[exact], gen.integers(0, K + 1, size=int(exact.sum()))]
    expect = np.array([np.searchsorted(tables[r], v, side="right")
                       for r, v in zip(rows.tolist(), x.tolist())])
    start = rows * (K + 1)
    assert np.array_equal(_slots(tables.ravel(), start, start + K + 1, x) - start, expect)


@pytest.mark.parametrize("seed", range(4))
def test_lt_slot_search_matches_bisect_right(seed):
    # ragged nondecreasing rows (some empty, some with ties) in one array,
    # searched from scattered rows and, broadcast, from one row per column
    gen = np.random.default_rng(1850 + seed)
    deg = gen.integers(0, 40, size=60)
    deg[gen.integers(0, 60, size=5)] = 0
    deg[0] = int(gen.integers(40, 300))
    hi = np.cumsum(deg)
    lo = hi - deg
    a = np.concatenate([np.sort(np.round(gen.random(d), 1)) for d in deg])
    rows = gen.integers(0, 60, size=3000)
    x = gen.random(3000)
    exact = (deg[rows] > 0) & (gen.random(3000) < 0.5)  # draws equal to an entry
    x[exact] = a[lo[rows[exact]] + gen.integers(0, deg[rows[exact]])]
    expect = np.array([lo[r] + bisect.bisect_right(a[lo[r]:hi[r]], v)
                       for r, v in zip(rows.tolist(), x.tolist())])
    assert np.array_equal(_slots(a, lo[rows], hi[rows], x), expect)
    grid = x[:2400].reshape(60, 40)
    expect = np.array([[lo[r] + bisect.bisect_right(a[lo[r]:hi[r]], v) for v in grid[r]]
                       for r in range(60)])
    assert np.array_equal(_slots(a, lo[:, None], hi[:, None], grid), expect)


# --- LT guide table ---------------------------------------------------------------

def _lt_rows(gen, shape, hub):
    """In-edge weight rows of one shape: 1/d each; skewed (a power of a
    uniform, or tiny weights before one large one); or dyadic, with zeros,
    summing to exactly 1 or to 1/2.  Degrees 1-40, with d = 1 always, and
    one row of in-degree 2,000 if ``hub``."""
    degs = [1] + gen.integers(1, 41, size=int(gen.integers(5, 25))).tolist()
    if hub:
        degs.append(2000)
    rows = []
    for i, d in enumerate(degs):
        if shape == "uniform":
            w = np.full(d, 1.0 / d)
        elif shape == "skewed" and i % 2:
            w = np.full(d, 1e-4)
            w[-1] = 1.0 - 1e-4 * (d - 1)
        elif shape == "skewed":
            w = gen.random(d) ** 8
            w *= gen.uniform(0.5, 1.0) / w.sum()
        else:
            live = gen.random(d) < 0.6
            live[gen.integers(d)] = True
            p = gen.dirichlet(np.ones(d)) * live
            w = gen.multinomial(1 << 12, p / p.sum()) / (1 << (12 + i % 2))
        rows.append(w)
    return rows


def _lt_guide_instance(rows):
    """Target nodes 0..R-1, one per weight row, whose in-edges come from the
    distinct sources R, R + 1, ... in row order, under LT."""
    width = max(len(w) for w in rows)
    g = from_edges(len(rows) + width, [(len(rows) + t, v) for v, w in enumerate(rows)
                                       for t in range(len(w))])
    indptr, src, _ = g.in_csr
    values = np.zeros(g.m)
    for v, w in enumerate(rows):
        values[indptr[v]:indptr[v + 1]] = w[src[indptr[v]:indptr[v + 1]] - len(rows)]
    return TriggeringParams.build(g, LT, values), len(rows)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["uniform", "skewed", "dyadic"]),
       hub=st.booleans())
def test_lt_guide_picks_match_bisect_right(seed, shape, hub):
    """Every LT pick through the guide table is the in-neighbour at
    ``bisect_right`` of x among its node's running sums, or the node itself
    past the last one: at random x, at x = 0 and the largest x below 1, at
    the bucket edges b / d and at every running sum and the doubles on
    either side of it; scattered as in the reverse kernel and in the
    forward kernel's block of runs."""
    gen = np.random.default_rng(seed)
    params, rows = _lt_guide_instance(_lt_rows(gen, shape, hub))
    indptr, src, _ = params._csr
    cum = running_sums(params)
    nodes, xs = [], []
    for v in range(rows):
        row, d = cum[indptr[v]:indptr[v + 1]], indptr[v + 1] - indptr[v]
        edges = np.arange(d + 1) / d
        x = np.concatenate([row, edges, gen.random(8), [0.0, np.nextafter(1.0, 0.0)]])
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
        x = np.unique(x[(x >= 0.0) & (x < 1.0)])
        nodes.append(np.full(len(x), v))
        xs.append(x)
    nodes, x = np.concatenate(nodes), np.concatenate(xs)
    lists = [cum[indptr[v]:indptr[v + 1]].tolist() for v in range(rows)]
    pos = [indptr[v] + bisect.bisect_right(lists[v], u) for v, u in zip(nodes.tolist(), x.tolist())]
    expect = np.where(np.array(pos) < indptr[nodes + 1], src[np.minimum(pos, len(src) - 1)], nodes)
    # each bucket's slot lies at or below the answer, at most ``steps`` before it
    guide = params._guide
    start = guide.guide[guide.ptr[nodes] + (x * guide.deg[nodes]).astype(np.int64)]
    ahead = np.array(pos) + nodes - start  # the answer's padded slot is pos + v
    assert ahead.min() >= 0 and ahead.max() <= guide.steps
    if shape == "skewed":  # the tiny-weight rows reach the cap and the binary search
        assert guide.steps > graph_module._GUIDE_STEPS
    assert np.array_equal(graph_module._lt_picks(params, nodes, x), expect)
    order = gen.permutation(len(x))  # pairs in any order
    assert np.array_equal(graph_module._lt_picks(params, nodes[order], x[order]), expect[order])
    block = gen.random((rows, 16))
    block[:, :2] = [0.0, np.nextafter(1.0, 0.0)]
    expect = [[src[p] if p < indptr[v + 1] else v for p in
               (indptr[v] + bisect.bisect_right(lists[v], u) for u in block[v].tolist())]
              for v in range(rows)]
    assert np.array_equal(graph_module._lt_picks(params, np.arange(rows)[:, None], block), expect)


def test_lt_guide_steps_count_a_sum_at_a_bucket_edge():
    """At d = 22, x = fl(15/22) still falls in bucket 14 (x * 22 rounds
    below 15).  Three running sums equal it, after three in that bucket
    below it, so bucket 14 needs six steps, and x picks slot 6 (source
    1 + slot)."""
    row = np.zeros(22)
    row[:3] = [0.64, 0.01, 0.01]
    row[3] = 15 / 22 - row[:3].sum()
    row[6] = 1.0 - 15 / 22
    params, _ = _lt_guide_instance([row])
    assert running_sums(params)[3] == 15 / 22 and int(15 / 22 * 22) == 14
    assert params._guide.steps == 6
    x = np.array([np.nextafter(15 / 22, 0.0), 15 / 22, np.nextafter(15 / 22, 1.0)])
    picks = graph_module._lt_picks(params, np.zeros(3, np.int64), x)
    assert picks.tolist() == [1 + 3, 1 + 6, 1 + 6]


def test_lt_guide_table_built_once_and_never_for_ic():
    """The guide table is built on the first LT pick, not with the
    parameters, and that one table serves every later pick, reverse and
    forward; IC parameters never build one."""
    g = from_edges(6, [(0, 1), (2, 1), (1, 3), (3, 4), (0, 4), (4, 5), (2, 5)])
    lt = TriggeringParams.build(g, LT, np.full(g.m, 0.4))
    ic = assign_weighted_cascade(g)
    lat = LatticeConfig(d=6, delta=1.0, budget_steps=2)
    model = IndependentActivation(6, lat, np.arange(6), np.arange(6),
                                  np.tile([0.0, 0.5, 0.8], (6, 1)))
    assert "_guide" not in vars(lt)
    generate_collection(g, lt, model, 50, stream(64, 0))
    table = vars(lt)["_guide"]
    generate_collection(g, lt, model, 50, stream(64, 1))
    simulate_spread_mix(g, lt, model, [1, 0, 1, 0, 0, 0], 40, stream(64, 2))
    assert lt._guide is table
    generate_collection(g, ic, model, 50, stream(64, 3))
    simulate_spread_mix(g, ic, model, [1, 0, 1, 0, 0, 0], 40, stream(64, 4))
    assert "_guide" not in vars(ic)
    with pytest.raises(ValueError, match="guide table of IC parameters"):
        ic._guide


# --- sorted distinct keys ----------------------------------------------------------

_RANDOM_KEYS = np.random.default_rng(1900)


@pytest.mark.parametrize("keys", [
    [], [7], [3] * 9, [2**62 - 1, 2**62, 2**62 - 1, -(2**62), 0, 2**62],
    *(_RANDOM_KEYS.integers(-high, high, size=3000) for high in (50, 10**6, 2**62)),
], ids=["empty", "one", "all-equal", "near-2**62", "random-50", "random-1e6", "random-2**62"])
def test_distinct_matches_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    assert np.array_equal(_distinct(keys), np.unique(keys))
    assert _distinct(keys).dtype == np.int64


# --- pathological graphs: bounded memory, exact counts --------------------------

PATHOLOGICAL_SETS = 2000
# visited bitmap (at most 8 MiB) plus one step of at most _EDGE_CHUNK in-edges, plus
# the sets themselves; expanding a 20k in-edge hub for a whole batch at once
# would take hundreds of MiB
PEAK_MIB = 16


def _star():
    """Hub 0 with 20,000 in-edges (p = 1/20,000); RR sets rooted at the hub."""
    g = from_edges(20_001, [(u, 0) for u in range(1, 20_001)])
    return g, assign_weighted_cascade(g), {0: 2.0}


def _gate_edges():
    """Three hubs of in-degree 128 from private leaves that take the coin
    path: hub 0 shares p = 1, hub 1 shares p = 0, hub 2 mixes 0.002 and
    0.004."""
    deg = 128
    edges = [(3 + h * deg + i, h) for h in range(3) for i in range(deg)]
    g = from_edges(3 + 3 * deg, edges)
    mixed = np.resize([0.002, 0.004], deg)
    values = np.concatenate((np.ones(deg), np.zeros(deg), mixed))
    return g, TriggeringParams.build(g, IC, values), {0: 1.0 + deg, 1: 1.0, 2: 1.0 + mixed.sum()}


def _isolated():
    g = from_edges(1000, [(1, 2), (2, 3), (3, 1), (5, 6)])
    sizes = {v: 1.0 for v in range(1000)}
    sizes.update({1: 3.0, 2: 3.0, 3: 3.0, 6: 2.0})  # p = 1/indeg = 1 on every edge
    return g, assign_weighted_cascade(g), sizes


def _two_nodes():
    g = from_edges(2, [(0, 1), (1, 0)])
    return g, TriggeringParams.build(g, IC, np.ones(2)), {0: 2.0, 1: 2.0}


def _lt_sums_to_one():
    """Every node has 1, 2, 4 or 8 in-edges of weight 1/indeg: sums exactly 1."""
    gen = np.random.default_rng(3)
    edges = []
    for v in range(64):
        k = 2 ** int(gen.integers(0, 4))
        edges += [(int(u), v) for u in gen.choice(np.delete(np.arange(64), v), k,
                                                  replace=False)]
    g = from_edges(64, edges)
    deg = g.in_degrees()
    return g, TriggeringParams.build(g, LT, np.repeat(1.0 / deg, deg)), dict.fromkeys(range(64))


def _wide_frontier():
    """Node 0 <- 300 certain in-edges from a layer whose nodes each have 1,000
    in-edges (p = 0.001) from a pool of 2,000: a root's level-1 frontier
    spans several _EDGE_CHUNK steps, and so do the layer roots of a batch."""
    gen = np.random.default_rng(4)
    edges = [(i, 0) for i in range(1, 301)]
    for i in range(1, 301):
        edges += [(301 + int(s), i) for s in gen.choice(2000, 1000, replace=False)]
    g = from_edges(2301, edges)
    values = np.where(np.repeat(np.arange(g.n), g.in_degrees()) == 0, 1.0, 0.001)
    assert 300 * 1000 > 2 * _EDGE_CHUNK
    sizes = dict.fromkeys(range(1, 301), 2.0)
    sizes[0] = 301 + float(np.sum(1.0 - 0.999 ** g.out_degrees()[301:]))
    return g, TriggeringParams.build(g, IC, values), sizes


def test_skip_gate_of_pathological_hubs():
    assert _SKIP_DEGREE <= 128
    assert _star()[1]._skip[0].tolist() == [True] + [False] * 20_000
    assert not _gate_edges()[1]._skip[0].any()
    assert _lt_sums_to_one()[1]._skip == ()  # LT never skips


@pytest.mark.parametrize("build", [_star, _gate_edges, _isolated, _two_nodes,
                                   _lt_sums_to_one, _wide_frontier])
def test_pathological_graphs_bounded_memory(build):
    g, params, sizes = build()  # root -> exact mean RR-set size, or None
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=3)
    model = IndependentActivation(g.n, lat, np.arange(g.n), np.arange(g.n) % 2,
                                  np.tile(multi_event_table(0.3, lat), (g.n, 1)))
    aug = AugmentedGraph(g, params, model, lat)
    roots = np.resize(np.array(list(sizes)), PATHOLOGICAL_SETS)
    tracemalloc.start()
    try:
        sets = _rr_sets(g, params, roots, stream(60, 0))
        hybrid = HybridCollection(aug)
        hybrid._sample(roots, stream(60, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_MIB * 2**20
    deg = g.in_degrees()
    for rr, root in zip(sets, roots.tolist()):
        assert rr.root == root and root in rr.members
        assert np.all(np.diff(rr.members) > 0)
        assert rr.width == deg[rr.members].sum()
        if params.kind == LT and deg[root]:
            assert len(rr.members) >= 2  # weights sum to 1: the root always picks
    for expect in {e for e in sizes.values() if e is not None}:
        # pooled over the roots that share an exact mean size
        got = np.array([len(rr.members) for rr in sets if sizes[rr.root] == expect])
        se = got.std(ddof=1) / np.sqrt(len(got))
        assert abs(got.mean() - expect) <= 4.0 * se + 1e-12, expect
    vsets, flats = hybrid.vsets, hybrid.flats
    assert np.all(np.diff(vsets) >= 0) and np.all((flats >= 0) & (flats < 2 * 3))
    assert len(vsets) > 0


def test_empty_collection():
    g = from_edges(2, [(0, 1)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=1)
    model = _personal_model(2, lat, [0.2, 0.3])
    coll = generate_collection(g, uniform_ic(g, 0.5), model, 0, stream(0, 3))
    assert coll.theta == 0
    with pytest.raises(EmptyCollectionError):
        g_hat(coll, model, StrategyMix.zeros(2))


def test_collection_roots_and_membership():
    g = from_edges(2, [(0, 1)])
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=1)
    model = _personal_model(2, lat, [0.2, 0.3])
    coll = generate_collection(g, uniform_ic(g, 0.5), model, 100, stream(1, 3))
    assert coll.theta == 100
    assert all(len(s.members) >= 1 for s in coll.sets)
    assert all(s.root in s.members for s in coll.sets)


def _check_strategy_entries(coll, model):
    """The derived view against a brute-force rescan of the RR sets."""
    rr, rows, bounds = coll.strategy_entries()
    assert len(bounds) == model.lattice.d + 1
    assert bounds[0] == 0 and bounds[-1] == len(rr) == len(rows)
    for j in range(model.lattice.d):
        lo, hi = bounds[j], bounds[j + 1]
        pairs = [(i, v) for i, s in enumerate(coll.sets) for v in s.members.tolist()
                 if j in node_rows(model, v)[0]]
        assert hi - lo == len(pairs)
        nodes = model._flat_nodes[rows[lo:hi]].tolist()
        assert list(zip(rr[lo:hi].tolist(), nodes)) == pairs  # by rr id, then node
        for row, (_, v) in zip(rows[lo:hi], pairs):
            js, tabs = node_rows(model, v)
            assert np.array_equal(model._flat_tables[row], tabs[int(np.searchsorted(js, j))])
    return len(rr)


def test_strategy_entries_match_rescan(rng):
    shared = 0  # entries of nodes that several strategies can seed
    for c in range(6):
        inst = random_instance(rng, n_max=8, m_max=10, d_max=3, steps_max=3)
        coll = generate_collection(inst.graph, inst.params, inst.model, 60, stream(2, c))
        _check_strategy_entries(coll, inst.model)
        shared += sum(len(node_rows(inst.model, v)[0]) > 1
                      for s in coll.sets for v in s.members)
    assert shared > 0


def test_strategy_entries_empty_then_extended(rng):
    inst = random_instance(rng, n_max=8, m_max=10, d_max=3, steps_max=3)
    coll = generate_collection(inst.graph, inst.params, inst.model, 0, stream(2, 9))
    rr, rows, bounds = coll.strategy_entries()
    assert len(rr) == len(rows) == 0
    assert bounds.tolist() == [0] * (inst.lattice.d + 1)
    sizes = [0]
    for c in range(2):
        coll.extend(40, stream(2, 10 + c))
        sizes.append(_check_strategy_entries(coll, inst.model))
    assert sizes[0] < sizes[1] < sizes[2]


def test_g_hat_zero_mix_zero():
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=2)
    model = _personal_model(3, lat, [0.2, 0.3, 0.4])
    coll = generate_collection(g, uniform_ic(g, 0.5), model, 50, stream(3, 5))
    assert g_hat(coll, model, StrategyMix.zeros(3)) == 0.0


def test_g_hat_single_set_value():
    # one RR set {v} with h_v = 0.75 on a 2-node graph: (2/1) * 0.75 = 1.5
    g = from_edges(2, [(0, 1)])
    lat = LatticeConfig(d=1, delta=1.0, budget_steps=1)
    tab = np.array([[0.0, 0.75]])
    model = IndependentActivation(2, lat, [0], [0], tab)
    coll = RRCollection(g, uniform_ic(g, 0.0), model)
    coll.add(RRSet(root=0, members=np.array([0]), width=1))
    assert g_hat(coll, model, StrategyMix([1])) == pytest.approx(1.5)


def test_g_hat_unbiased_against_exact(rng):
    # mean of g_hat over independent collections approaches exact g
    inst = random_instance(rng, n_max=6, m_max=8, d_max=2, steps_max=2)
    enum = LiveEdgeEnumeration(inst.graph, inst.params)
    x = StrategyMix(np.minimum(
        rng.integers(0, inst.lattice.budget_steps + 1, size=inst.lattice.d),
        inst.lattice.budget_steps))
    exact = enum.spread_given_h(inst.model.h_all(x))
    vals = []
    for c in range(120):
        coll = generate_collection(inst.graph, inst.params, inst.model, 400,
                                   stream(97, c))
        vals.append(g_hat(coll, inst.model, x))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3.0 * se + 1e-12


def test_g_hat_classical_indicator_special_case(rng):
    # h = indicator of a chosen node set reduces g_hat to n * covered / theta
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    lat = LatticeConfig(d=5, delta=1.0, budget_steps=1)
    chosen = {1, 3}
    model = BlackBoxActivation(
        5, lat, lambda xv: np.isin(np.arange(5), list(chosen)) * (xv > 0.0))
    coll = generate_collection(g, uniform_ic(g, 0.4), model, 300, stream(6, 6))
    x = StrategyMix([0, 1, 0, 1, 0])
    covered = sum(1 for s in coll.sets if chosen & set(s.members.tolist()))
    assert g_hat(coll, model, x) == pytest.approx(5 * covered / 300)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_g_hat_monotone_dr_sweep(seed):
    gen = np.random.default_rng(100 + seed)
    inst = random_instance(gen, n_max=6, m_max=8, d_max=3, steps_max=3,
                           extra_steps=2)
    coll = generate_collection(inst.graph, inst.params, inst.model, 80,
                               stream(7, seed))
    bound = inst.lattice.budget_steps - 2
    mono, dr = sweep_monotone_dr(
        lambda s: g_hat(coll, inst.model, s), inst.lattice.d, bound)
    assert mono == 0 and dr == 0


def test_extend_accumulates():
    g = from_edges(3, [(0, 1), (1, 2)])
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=1)
    model = _personal_model(3, lat, [0.2, 0.3, 0.4])
    coll = generate_collection(g, uniform_ic(g, 0.5), model, 10, stream(9, 0))
    coll.extend(15, stream(9, 1))
    assert coll.theta == 25
    concat, offsets = coll.members, coll.offsets[:-1]  # set starts
    assert len(offsets) == 25 and offsets[0] == 0
    assert np.all(np.diff(offsets) > 0) and offsets[-1] < len(concat)
    assert np.array_equal(concat, np.concatenate([s.members for s in coll.sets]))


# --- the flat collection store against the per-set layout it replaced ---------------

def _entries_from_scratch(coll, model):
    """The from-scratch strategy entries of the per-set layout, kept as the
    reference: one stable argsort by strategy over every set's entries."""
    sets = coll.sets
    sizes = np.array([len(s.members) for s in sets], dtype=np.int64)
    concat = np.concatenate([np.empty(0, np.int64)] + [s.members for s in sets])
    offsets = np.cumsum(sizes) - sizes
    counts = np.bincount(model._flat_nodes, minlength=coll.n)
    per = counts[concat]
    first_row = (np.cumsum(counts) - counts)[concat]
    rows = np.repeat(first_row - (np.cumsum(per) - per), per) + np.arange(per.sum())
    size = np.diff(offsets, append=len(concat))
    rr = np.repeat(np.repeat(np.arange(len(offsets)), size), per)
    strat = model._flat_strats[rows]
    order = np.argsort(strat.astype(np.min_scalar_type(model.lattice.d)), kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(strat, minlength=model.lattice.d))))
    return (rr[order], rows[order], bounds), (concat, offsets)


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_STEPS = [("extend", 30), ("add", 3), ("extend", 0), ("extend", 1), ("add", 1),
          ("extend", 45), ("extend", 7)]
# buffered adds on the empty store, before any extend
_ADD_FIRST = [("add", 2), ("extend", 30), ("add", 3), ("extend", 0), ("extend", 45)]


@pytest.mark.parametrize("seed, steps", [
    *(pytest.param(seed, _STEPS, id=str(seed)) for seed in range(8)),
    pytest.param(8, _ADD_FIRST, id="add-first"),
])
def test_incremental_entries_match_from_scratch(seed, steps):
    """Extends of several sizes, an empty one, and buffered adds, read after
    every step (``eager``) or only at the end (``lazy``): the entries,
    coverage weights and sets equal the from-scratch build bitwise."""
    gen = np.random.default_rng(900 + seed)
    inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=3)
    g, params, model = inst.graph, inst.params, inst.model
    eager, lazy = RRCollection(g, params, model), RRCollection(g, params, model)
    expect = []  # (root, members, width) of every set, in order
    for k, (op, count) in enumerate(steps):
        if op == "extend":
            for coll in (eager, lazy):
                coll.extend(count, stream(91, seed, k))
            expect += [(s.root, s.members, s.width) for s in generate_collection(
                g, params, model, count, stream(91, seed, k)).sets]
        else:
            for _ in range(count):
                v = int(gen.integers(g.n))
                rr = RRSet(v, np.unique(np.append(gen.integers(0, g.n, 3), v)),
                           int(gen.integers(0, 9)))
                eager.add(rr)
                lazy.add(rr)
                # add keeps the root and members; the width is read off them
                expect.append((rr.root, rr.members, int(g.in_degrees()[rr.members].sum())))
        assert eager.theta == lazy.theta == len(expect)
        if k % 2 == 0 or op == "add":
            eager.strategy_entries()
        x = gen.integers(0, inst.lattice.budget_steps + 1, size=inst.lattice.d)
        h_all = model.h_all(x)
        for coll in (eager, lazy) if k == len(steps) - 1 else (eager,):
            (rr, rows, bounds), (concat, offsets) = _entries_from_scratch(coll, model)
            assert all(_bitwise(a, b) for a, b in zip(coll.strategy_entries(),
                                                      (rr, rows, bounds)))
            weights = 1.0 - np.multiply.reduceat(1.0 - h_all[concat], offsets)
            assert _bitwise(coll.coverage_weights(h_all), weights)
            assert [(s.root, s.members.tolist(), s.width) for s in coll.sets] == \
                [(r, m.tolist(), w) for r, m, w in expect]
            assert _bitwise(coll.members, concat)
            assert coll.offsets.tolist() == offsets.tolist() + [len(concat)]
            assert coll.roots.tolist() == [r for r, _, _ in expect]
            assert coll.widths.tolist() == [w for _, _, w in expect]


@pytest.mark.parametrize("kind", [IC, LT])
def test_widths_are_in_degree_sums_over_members(kind):
    """A set's width is the in-degree summed over its members, for sampled
    sets, for added sets (whatever width their RRSet carries) and, as an
    empty array, for an empty collection."""
    inst = random_instance(np.random.default_rng(RICH_SEEDS[0]), kind=kind)
    g, deg = inst.graph, inst.graph.in_degrees()
    coll = RRCollection(g, inst.params, inst.model)
    assert coll.widths.tolist() == [] and coll.sets == ()
    coll.extend(40, stream(93, 0))
    coll.add(RRSet(0, np.arange(g.n), -7))
    expect = [int(deg[s.members].sum()) for s in coll.sets]
    assert coll.widths.tolist() == expect and expect[-1] == g.m
    assert [s.width for s in coll.sets] == expect


def test_sets_are_read_only_views():
    g = from_edges(3, [(0, 1), (1, 2)])
    coll = RRCollection(g, uniform_ic(g, 1.0), None)
    coll.extend(5, stream(92, 0))
    first = coll.sets[0]
    assert np.shares_memory(first.members, coll.members)
    with pytest.raises(ValueError):
        first.members[0] = 2
    with pytest.raises(AttributeError):
        coll.sets = ()


# --- the IC coin step against the one it replaced -----------------------------------

def _edge_chunks_before(lo, hi):
    """The coin step's chunking before the flat store, which repeated the
    pair index over every edge."""
    deg = hi - lo
    ends = np.cumsum(deg)
    begins = ends - deg
    total = int(ends[-1])
    for c0 in range(0, total, rrset_module._EDGE_CHUNK):
        c1 = min(c0 + rrset_module._EDGE_CHUNK, total)
        a = np.searchsorted(ends, c0, side="right")
        z = np.searchsorted(begins, c1)
        take = np.minimum(ends[a:z], c1) - np.maximum(begins[a:z], c0)
        yield np.repeat(lo[a:z] - begins[a:z], take) + np.arange(c0, c1), \
            np.repeat(np.arange(a, z), take)


def _live_edges_before(csr, nodes, local, sets, rng):
    indptr, ends, probs = csr
    for pos, pair in _edge_chunks_before(indptr[nodes], indptr[nodes + 1]):
        live = rng.random(len(pos)) < probs[pos]
        yield ends[pos[live]] * sets + local[pair[live]]


def _skip_coins_before(csr, shared, nodes, local, sets, rng):
    """The geometric-gap step before the flat store, down to its coins."""
    indptr, src, _ = csr
    pos = indptr[nodes] - 1
    end = indptr[nodes + 1]
    p = shared[nodes]
    rate = np.log1p(-p)
    pair = local
    for _ in range(rrset_module._SKIP_ROUNDS):
        gap = np.minimum(np.log1p(-rng.random(len(pair))) / rate, end - pos)
        pos = pos + 1 + gap.astype(np.int64)
        live = pos < end
        pair, pos, end, p, rate = pair[live], pos[live], end[live], p[live], rate[live]
        yield src[pos] * sets + pair
        if not len(pair):
            return
    for at, row in _edge_chunks_before(pos + 1, end):
        live = rng.random(len(at)) < p[row]
        yield src[at[live]] * sets + pair[row[live]]


def _coin_instance(seed):
    """A random IC graph with zero-degree nodes, a wide node and parallel
    edges, and a sorted batch of (node, set) pairs over it."""
    gen = np.random.default_rng(seed)
    n = 40
    edges = [(int(u), int(v)) for u, v in gen.integers(0, n - 10, size=(150, 2)) if u != v]
    edges += [(u, 0) for u in range(1, 30)] + [(3, 4)] * 3
    g = from_edges(n, edges)
    params = TriggeringParams.build(g, IC, gen.uniform(0.05, 0.95, size=g.m))
    sets = 7
    keys = np.unique(gen.integers(0, n * sets, size=120))
    nodes, local = np.divmod(keys, sets)
    assert (g.in_degrees()[nodes] == 0).any()
    return g, params, nodes, local, sets


@pytest.mark.parametrize("chunk", [None, 1, 7, 64])
@pytest.mark.parametrize("seed", range(4))
def test_coin_step_matches_repeated_pair_index(chunk, seed, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(rrset_module, "_EDGE_CHUNK", chunk)
    g, params, nodes, local, sets = _coin_instance(950 + seed)
    csr = params._csr
    rows = csr[0][nodes], csr[0][nodes + 1]
    for lo, hi in ((0, len(nodes)), (5, 9), (len(nodes) - 3, len(nodes))):
        rng_new, rng_old = stream(94, seed, lo), stream(94, seed, lo)
        new = list(rrset_module._live_edges(csr, *(r[lo:hi] for r in rows), local[lo:hi],
                                            sets, rng_new))
        old = list(_live_edges_before(csr, nodes[lo:hi], local[lo:hi], sets, rng_old))
        assert len(new) == len(old)
        assert all(_bitwise(a, b) for a, b in zip(new, old))
        assert rng_new.random() == rng_old.random()
    rng_new, rng_ref = stream(94, seed, 99), stream(94, seed, 99)
    assert list(rrset_module._live_edges(csr, *(r[:0] for r in rows), local[:0],
                                         sets, rng_new)) == []
    assert rng_new.random() == rng_ref.random()  # no input, no draw


@pytest.mark.parametrize("rounds", [0, 1, 3])
@pytest.mark.parametrize("seed", range(3))
def test_skip_coins_match_repeated_pair_index(rounds, seed, monkeypatch):
    monkeypatch.setattr(graph_module, "_SKIP_DEGREE", 1)
    monkeypatch.setattr(rrset_module, "_SKIP_ROUNDS", rounds)
    monkeypatch.setattr(rrset_module, "_EDGE_CHUNK", 16)
    g, _, nodes, local, sets = _coin_instance(960 + seed)
    params = uniform_ic(g, 0.7)
    shared = params._skip[1]
    keep = params._skip[0][nodes]
    nodes, local = nodes[keep], local[keep]
    rng_new, rng_old = stream(95, seed), stream(95, seed)
    new = list(rrset_module._skip_edges(params._csr, shared, nodes, local, sets, rng_new))
    old = list(_skip_coins_before(params._csr, shared, nodes, local, sets, rng_old))
    assert len(new) == len(old) > rounds
    assert all(_bitwise(a, b) for a, b in zip(new, old))
    assert rng_new.random() == rng_old.random()


# --- the BFS level step against the one it replaced ---------------------------------

def _reach_before(marks, frontier, expand):
    """The level loop before the lean level step: bits by shift and mask, and
    one concatenation per level, of one array or several."""
    def mark(keys):
        np.bitwise_or.at(marks, keys >> 3, (1 << (keys & 7)).astype(np.uint8))

    mark(frontier)
    yield frontier
    while len(frontier):
        fresh = [np.empty(0, np.int64)]
        for s0 in range(0, len(frontier), rrset_module._EDGE_CHUNK):
            for cand in expand(frontier[s0:s0 + rrset_module._EDGE_CHUNK]):
                cand = np.unique(cand[(marks[cand >> 3] >> (cand & 7)) & 1 == 0])
                mark(cand)
                fresh.append(cand)
                yield cand
        frontier = np.concatenate(fresh)


def _in_edge_expand_before(params, sets, rng):
    """The reverse kernel's expand before it: a skip-flag gather per step,
    and LT slots found by one ``bisect`` per pair."""
    csr = params._csr
    indptr, src, _ = csr
    cum = running_sums(params)

    def expand(keys):
        nodes, local = np.divmod(keys, sets)
        if params.kind == IC:
            skip = params._skip[0][nodes]
            if (~skip).any():
                yield from _live_edges_before(csr, nodes[~skip], local[~skip], sets, rng)
            if skip.any():
                yield from _skip_coins_before(csr, params._skip[1], nodes[skip], local[skip],
                                              sets, rng)
            return
        has = np.flatnonzero(indptr[nodes + 1] > indptr[nodes])
        keys = []
        for k, u in zip(has.tolist(), rng.random(len(has)).tolist()):
            lo, hi = indptr[nodes[k]], indptr[nodes[k] + 1]
            pos = lo + bisect.bisect_right(cum[lo:hi].tolist(), u)
            if pos < hi:
                keys.append(src[pos] * sets + local[k])
        yield np.array(keys, dtype=np.int64)
    return expand


def _level_graph(case):
    """A 600-node random graph with certain, coin and (for ``skip``) flagged
    nodes: IC coins at random probabilities, IC with p = 0.3 shared by all
    edges and a hub of in-degree 80 past the skip gate, or LT."""
    gen = np.random.default_rng(970)
    n = 600
    src, dst = gen.integers(0, n, size=(2, 2400))
    edges = [(int(u), int(v)) for u, v in zip(src, dst) if u != v]
    edges += [(int(u), 0) for u in gen.choice(np.arange(1, n), 80, replace=False)]
    g = from_edges(n, edges)
    if case == "coin":
        return g, TriggeringParams.build(g, IC, gen.uniform(0.05, 0.6, size=g.m))
    if case == "skip":
        params = uniform_ic(g, 0.3)
        assert params._skip[0][0] and params._skip[0].sum() == 1
        return g, params
    deg = g.in_degrees()
    return g, TriggeringParams.build(g, LT, np.repeat(0.95 / np.maximum(deg, 1), deg))


@pytest.mark.parametrize("chunk", [16, 1000, None])
@pytest.mark.parametrize("case", ["coin", "skip", "lt"])
def test_levels_match_the_level_step_before(case, chunk, monkeypatch):
    """Every level of a reverse-kernel batch, and the draws after it, equal
    the old level step's bitwise, whether levels take one step or span
    several."""
    if chunk is not None:
        monkeypatch.setattr(rrset_module, "_EDGE_CHUNK", chunk)
    g, params = _level_graph(case)
    roots = np.concatenate(([0, 0, 5], np.random.default_rng(971).integers(0, g.n, 37)))
    size = len(roots)
    new, reach = [], rrset_module._reach

    def recorded(marks, frontier, expand):
        for keys in reach(marks, frontier, expand):
            new.append(keys)
            yield keys

    monkeypatch.setattr(rrset_module, "_reach", recorded)
    rng = stream(96, len(case), chunk or 0)
    assert len(list(rrset_module._reverse_reach(g, params, roots, rng))) == 1
    new_next = rng.random()
    rng = stream(96, len(case), chunk or 0)
    marks = np.zeros(size * g.n // 8 + 1, dtype=np.uint8)
    old = list(_reach_before(marks, np.sort(roots * size + np.arange(size)),
                             _in_edge_expand_before(params, size, rng)))
    assert len(new) == len(old) > 3
    assert all(_bitwise(a, b) for a, b in zip(new, old))
    assert new_next == rng.random()
    if chunk == 16:  # some level spans several steps
        assert max(map(len, new)) > 16


def _ic_counts_before(graph, params, runs, seed_keys, rng):
    """``oracles._cascades`` under IC before the lean level step: one
    ``bincount`` of ``keys % size`` per yielded array."""
    from limax import oracles

    out_csr, n = params._out_csr, graph.n
    per_batch = max(1, min(runs, oracles._RUN_PAIRS // n))
    counts = []
    for b0 in range(0, runs, per_batch):
        size = min(per_batch, runs - b0)
        marks = np.zeros(size * n // 8 + 1, dtype=np.uint8)

        def expand(keys):
            return _live_edges_before(out_csr, *np.divmod(keys, size), size, rng)

        counts.append(sum(np.bincount(keys % size, minlength=size)
                          for keys in _reach_before(marks, seed_keys(size), expand)))
    return np.concatenate(counts)


@pytest.mark.parametrize("chunk", [16, 1000, None])
@pytest.mark.parametrize("case", ["coin", "skip"])
def test_forward_ic_counts_match_the_level_step_before(case, chunk, monkeypatch):
    """Forward IC cascade counts, over several batches of runs, and the draws
    after them equal the old level step's bitwise."""
    from limax import oracles

    if chunk is not None:
        monkeypatch.setattr(rrset_module, "_EDGE_CHUNK", chunk)
    g, params = _level_graph(case)
    monkeypatch.setattr(oracles, "_RUN_PAIRS", 12 * g.n)  # batches of 12 runs
    out = []
    for count in (oracles._cascades, None):
        rng = stream(97, len(case), chunk or 0)

        def seed_keys(size, rng=rng):
            run, node = np.nonzero(rng.random((size, g.n)) < 0.01)
            return np.sort(node * size + run)

        if count is None:
            counts = _ic_counts_before(g, params, 30, seed_keys, rng)
        else:
            counts = count(g, params, 30, 0, seed_keys, rng)
        out.append((counts, rng.random()))
    (new, new_next), (old, old_next) = out
    assert new.dtype == np.float64 and np.array_equal(new, old) and new_next == old_next
    assert np.median(old) > 100  # most cascades spread far past their seeds
