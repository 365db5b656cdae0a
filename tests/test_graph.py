import io

import numpy as np
import pytest

from conftest import csr_rows, triggering_sets

from limax.graph import (IC, LT, DirectedGraph, EdgeListError,
                         TriggeringParams, assign_weighted_cascade, from_edges, gen_erdos_renyi,
                         load_edge_list, uniform_ic, write_edge_list)
from limax.rng import stream


def test_single_edge_with_header():
    g = load_edge_list("2 1\n0 1 0.5")
    assert g.n == 2 and g.m == 1
    assert g.in_csr[2].tolist() == [0.5]
    assert csr_rows(*g.in_csr[:2]) == [[], [0]]


def test_collaboration_scale_counts(tmp_path):
    # synthetic file at the size of the small collaboration network (679 nodes,
    # 3374 edges) used in published benchmarks
    rng = stream(679, 0)
    g = gen_erdos_renyi(679, 3374, rng)
    path = tmp_path / "dm_sized.txt"
    write_edge_list(str(path), g)
    loaded = load_edge_list(str(path))
    assert loaded.n == 679 and loaded.m == 3374


def test_generated_er_counts(tmp_path):
    g = gen_erdos_renyi(200, 1000, stream(1, 0))
    path = tmp_path / "er.txt"
    write_edge_list(str(path), g)
    text = path.read_text().splitlines()
    assert text[0] == "200 1000"
    assert len(text) == 1001  # header + one line per edge
    loaded = load_edge_list(str(path))
    assert loaded.n == 200 and loaded.m == 1000


def test_headerless_compaction():
    g = load_edge_list("10 20\n20 30\n30 10\n", header=False)
    assert g.n == 3 and g.m == 3
    assert g.labels.tolist() == [10, 20, 30]


def test_parse_error_carries_line_number():
    with pytest.raises(EdgeListError) as err:
        load_edge_list("3 2\n0 1\nbogus line here\n")
    assert "line 3" in str(err.value)


def test_id_out_of_declared_range():
    with pytest.raises(EdgeListError):
        load_edge_list("2 1\n0 5")


def test_header_edge_count_mismatch():
    with pytest.raises(EdgeListError):
        load_edge_list("3 5\n0 1\n1 2\n", header=True)


def test_missing_path_raises_file_not_found(tmp_path):
    missing = str(tmp_path / "no-such-graph.txt")
    with pytest.raises(FileNotFoundError, match="no-such-graph.txt"):
        load_edge_list(missing)
    # a string without a line break is a path, even one that splits into
    # 2-3 fields; one line of text is read with its line break
    for name in ("my graph.txt", "0 1"):
        with pytest.raises(FileNotFoundError, match=name):
            load_edge_list(str(tmp_path / name))
    g = load_edge_list("0 1\n")
    assert g.n == 2 and g.m == 1


def test_stream_source():
    g = load_edge_list(io.StringIO("# comment\n0 1\n1 2\n"), header=False)
    assert g.n == 3 and g.m == 2


def test_self_loops_dropped_with_warning():
    with pytest.warns(UserWarning, match="self-loop"):
        g = from_edges(3, [(0, 0), (0, 1), (1, 2)])
    assert g.m == 2


def test_parallel_edges_kept():
    g = from_edges(2, [(0, 1), (0, 1)])
    assert g.m == 2
    assert csr_rows(*g.in_csr[:2]) == [[], [0, 0]]


def test_out_values_match_parallel_copies_in_order():
    # a shuffled edge list with parallel copies, one distinct value per
    # edge: the k-th copy of (u, v) among u's out-edges must carry the value
    # of the k-th copy of u among v's in-edges, both in edge-list order
    gen = np.random.default_rng(7)
    n = 6
    pairs = np.array([(u, v) for u, v in gen.integers(0, n, size=(200, 2)).tolist() if u != v])
    gen.shuffle(pairs)
    src, dst = pairs.T
    values = gen.uniform(size=len(pairs))
    graph = DirectedGraph(n, src, dst)
    in_order = np.argsort(dst, kind="stable")
    params = TriggeringParams.build(graph, IC, values[in_order])
    indptr, out_dst, out_values = params._out_csr
    for u in range(n):
        mine = np.flatnonzero(src == u)
        assert out_dst[indptr[u]:indptr[u + 1]].tolist() == dst[mine].tolist()
        assert out_values[indptr[u]:indptr[u + 1]].tolist() == values[mine].tolist()


@pytest.mark.parametrize("args, message", [
    ((3, [0, 1], [1]), r"^2 edge sources for 1 targets: edge 1 has no target$"),
    ((3, [0], [1, 2]), r"^1 edge sources for 2 targets: edge 1 has no source$"),
    ((3, [0, -1, 1], [1, 2, 5]), r"^edge 1 \(-1, 2\) has a node id outside \[0, 3\)$"),
    ((3, [0, 1, 2], [1, 2, 3]), r"^edge 2 \(2, 3\) has a node id outside \[0, 3\)$"),
    ((3, [0, 1], [1, 2], [0.5]), r"^1 edge values for 2 edges$"),
    ((3, [0, 1], [1, 2], [0.5, 0.5, 0.5]), r"^3 edge values for 2 edges$"),
    ((3, [0.7], [1.9]), r"^edge 0 \(0\.7, 1\.9\) has a non-integer id$"),
    ((3, [0, 1, 2], [1, 2.5, 0]), r"^edge 1 \(1, 2\.5\) has a non-integer id$"),
    ((3, [0, np.inf], [1, 2]), r"^edge 1 \(inf, 2\) has a non-integer id$"),
], ids=["fewer-targets", "fewer-sources", "id-minus-one", "id-n", "fewer-values", "more-values",
        "float-ids", "fraction", "inf"])
def test_bad_edge_arrays_rejected(args, message):
    with pytest.raises(ValueError, match=message):
        DirectedGraph(*args)


def test_from_edges_rejects_non_integer_ids():
    with pytest.raises(ValueError, match=r"^edge 1 \(1, 2\.5\) has a non-integer id$"):
        from_edges(3, [(0, 1), (1, 2.5)])
    with pytest.raises(ValueError, match=r"^edge 0 \(0\.7, 1\.9\) has a non-integer id$"):
        from_edges(3, [(0.7, 1.9, 0.5)])
    with pytest.raises(ValueError, match=r"^edge 0 \('0', '1'\) has a non-integer id$"):
        from_edges(3, [("0", "1")])


def test_empty_and_integral_float_ids_accepted():
    for g in (DirectedGraph(3, [], []), from_edges(3, [])):
        assert g.n == 3 and g.m == 0
    g = DirectedGraph(3, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert csr_rows(*g.in_csr[:2]) == [[], [0], [1]] and g.in_csr[1].dtype == np.int64
    assert csr_rows(*from_edges(3, [(0.0, 2)]).in_csr[:2]) == [[], [], [0]]


def test_weighted_cascade_values():
    # in-degree 4 -> each incoming edge 0.25; in-degree 1 -> 1.0
    g = from_edges(6, [(1, 0), (2, 0), (3, 0), (4, 0), (0, 5)])
    params = assign_weighted_cascade(g)
    rows = csr_rows(g.in_csr[0], params.values)
    assert np.allclose(rows[0], 0.25)
    assert rows[5] == [1.0]


def test_weighted_cascade_star():
    spokes = [(i, 0) for i in range(1, 11)]
    g = from_edges(11, spokes)
    params = assign_weighted_cascade(g)
    assert np.allclose(params.values, 0.1) and g.in_degrees()[0] == 10


def test_lt_weight_sum_validation():
    g = from_edges(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="sum"):
        TriggeringParams.build(g, LT, np.array([0.7, 0.7]))


def _two_in_edges_each():
    return from_edges(5, [(u, v) for v in range(5) for u in ((v + 1) % 5, (v + 2) % 5)])


@pytest.mark.parametrize("count", [9, 11])
def test_param_value_count_must_match_edges(count):
    g = _two_in_edges_each()
    for kind in (IC, LT):
        with pytest.raises(ValueError, match=rf"^{count} parameter values for 10 edges$"):
            TriggeringParams.build(g, kind, np.full(count, 0.1))


def test_param_values_must_be_one_dimensional():
    g = _two_in_edges_each()
    with pytest.raises(ValueError, match=r"^parameter values of shape \(5, 2\), not one per edge$"):
        TriggeringParams.build(g, IC, np.full((5, 2), 0.1))


def test_param_range_error_names_first_bad_node():
    g = _two_in_edges_each()
    rows = [np.full(2, 0.1) for _ in range(5)]
    rows[2] = np.array([0.1, 1.5])
    rows[4] = np.array([-0.2, 0.1])
    for kind in (IC, LT):
        with pytest.raises(ValueError, match=r"^edge parameter out of \[0, 1\] at node 2$"):
            TriggeringParams.build(g, kind, np.concatenate(rows))


def test_nan_parameter_is_out_of_range():
    g = _two_in_edges_each()
    rows = [np.full(2, 0.1) for _ in range(5)]
    rows[3] = np.array([0.1, np.nan])
    for kind in (IC, LT):
        with pytest.raises(ValueError, match=r"^edge parameter out of \[0, 1\] at node 3$"):
            TriggeringParams.build(g, kind, np.concatenate(rows))
    with pytest.raises(ValueError, match=r"^edge parameter out of \[0, 1\] at node 0$"):
        uniform_ic(g, float("nan"))


def test_lt_sum_error_names_first_bad_node():
    # node 0 has no in-edges: an empty row ahead of the bad ones
    rows = [np.full(2, 0.5) for _ in range(5)]
    rows[0] = np.empty(0)
    rows[3] = np.array([0.6, 0.5])
    rows[4] = np.array([0.9, 0.9])
    g = from_edges(5, [(u, v) for v in range(1, 5) for u in ((v + 1) % 5, (v + 2) % 5)])
    with pytest.raises(ValueError, match=r"^LT weights into node 3 sum to 1\.100000 > 1$"):
        TriggeringParams.build(g, LT, np.concatenate(rows))
    assert TriggeringParams.build(g, IC, np.concatenate(rows)).kind == IC


def test_triggering_set_no_in_neighbors():
    g = from_edges(2, [(0, 1)])
    assert triggering_sets(uniform_ic(g, 0.5), [0], stream(0, 0)) == [[]]


def test_triggering_set_certain_edge():
    g = from_edges(2, [(0, 1)])
    params = uniform_ic(g, 1.0)
    assert triggering_sets(params, [1] * 50, stream(0, 1)) == [[0]] * 50


def test_ic_all_ones_returns_full_in_neighbor_set():
    rng = stream(3, 2)
    g = from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    params = uniform_ic(g, 1.0)
    assert triggering_sets(params, [4] * 20, rng) == [[0, 1, 2, 3]] * 20


def test_lt_triggering_frequencies():
    # two in-edges w=0.3 each: frequencies 0.3 / 0.3 / 0.4 over 1e5 draws
    g = from_edges(3, [(0, 2), (1, 2)])
    params = TriggeringParams.build(g, LT, np.array([0.3, 0.3]))
    n_draws = 100_000
    sets = triggering_sets(params, [2] * n_draws, stream(7, 3))
    assert abs(sets.count([0]) / n_draws - 0.3) < 0.01
    assert abs(sets.count([1]) / n_draws - 0.3) < 0.01
    assert abs(sets.count([]) / n_draws - 0.4) < 0.01


def test_lt_selection_frequency_bound(rng):
    # empirical frequency of each in-neighbor within 4*sqrt(w(1-w)/N)
    g = from_edges(4, [(0, 3), (1, 3), (2, 3)])
    w = np.array([0.15, 0.35, 0.2])
    params = TriggeringParams.build(g, LT, w)
    draws = 40_000
    sets = triggering_sets(params, [3] * draws, stream(11, 4))
    assert all(len(s) <= 1 for s in sets)
    freq = np.bincount([u for s in sets for u in s], minlength=3) / draws
    bound = 4.0 * np.sqrt(w * (1 - w) / draws)
    assert np.all(np.abs(freq - w) <= bound)


@pytest.mark.parametrize("kind", [IC, LT])
def test_params_csr_holds_the_values_themselves(kind):
    # one stored form of the edge values under both kinds: the kernels'
    # in-edge CSR holds ``values`` itself, never the LT running sums
    g = from_edges(4, [(0, 3), (1, 3), (2, 3), (0, 1)])
    params = TriggeringParams.build(g, kind, np.array([1.0, 0.2, 0.3, 0.4]))
    assert params._csr[2] is params.values
    assert params._csr[0] is g.in_csr[0] and params._csr[1] is g.in_csr[1]


def test_graph_arrays_are_immutable():
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        g.in_csr[1][0] = 2
    before = [a.copy() for a in (*g.in_csr[:2], *g.out_csr)]
    triggering_sets(uniform_ic(g, 0.3), [1], stream(0, 5))
    assert all(np.array_equal(a, b) for a, b in zip(before, (*g.in_csr[:2], *g.out_csr)))
    # values read from a file are as read-only as the edge arrays
    loaded = load_edge_list("3 2\n0 1 0.5\n1 2 0.25\n")
    for arr in (*loaded.in_csr, *loaded.out_csr):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        loaded.in_csr[2][0] = 0.75
    # the constructor copies the caller's edge arrays and leaves them writable
    src, dst, values = np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.25])
    built = DirectedGraph(3, src, dst, values)
    assert all(a.flags.writeable for a in (src, dst, values))
    src[0], values[0] = 2, 0.9
    assert built.in_csr[1].tolist() == [0, 1] and built.in_csr[2].tolist() == [0.5, 0.25]
    # building parameters copies the caller's values and leaves them writable
    flat = np.array([0.5, 0.25])
    params = TriggeringParams.build(loaded, IC, flat)
    assert flat.flags.writeable
    flat[0] = 0.9
    assert params.values.tolist() == [0.5, 0.25]
    assert not params.values.flags.writeable


def test_er_generator_shape():
    g = gen_erdos_renyi(30, 100, stream(2, 0))
    assert g.n == 30 and g.m == 100
    indptr, src, _ = g.in_csr
    assert not (src == np.repeat(np.arange(g.n), np.diff(indptr))).any()


def test_in_and_out_views_agree():
    g = gen_erdos_renyi(20, 60, stream(2, 1))
    in_ptr, src, _ = g.in_csr
    out_ptr, dst, edge = g.out_csr
    heads = np.repeat(np.arange(g.n), np.diff(in_ptr))
    tails = np.repeat(np.arange(g.n), np.diff(out_ptr))
    # out-edge k is in-edge edge[k]: the same (source, target) pair
    assert src[edge].tolist() == tails.tolist() and heads[edge].tolist() == dst.tolist()
    assert sorted(edge.tolist()) == list(range(g.m))
    assert g.m == len(src) == len(dst)


def _reference_erdos_renyi(n, m, rng):
    # the per-edge acceptance loop the vectorised generator reproduces
    seen, edges = set(), []
    while len(edges) < m:
        batch = rng.integers(0, n, size=(2 * (m - len(edges)) + 16, 2))
        for u, v in batch:
            e = (int(u), int(v))
            if u == v or e in seen:
                continue
            seen.add(e)
            edges.append(e)
            if len(edges) == m:
                break
    return edges


@pytest.mark.parametrize("n, m, seed", [
    (2, 0, 0), (2, 2, 1), (3, 6, 2), (5, 20, 3), (7, 30, 4), (30, 100, 5),
    (200, 1000, 6), (40, 40 * 39, 7), (1, 0, 8)])
def test_er_generator_matches_per_edge_loop(n, m, seed):
    g = gen_erdos_renyi(n, m, np.random.default_rng(seed))
    expect = _reference_erdos_renyi(n, m, np.random.default_rng(seed))
    assert g.n == n and g.m == m
    src = [u for u, _ in expect]
    dst = [v for _, v in expect]
    assert csr_rows(*g.in_csr[:2]) == [
        [u for u, w in zip(src, dst) if w == v] for v in range(n)]
    assert csr_rows(*g.out_csr[:2]) == [
        [w for x, w in zip(src, dst) if x == u] for u in range(n)]


def _reference_write(path, graph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        indptr, src, values = graph.in_csr
        for v in range(graph.n):
            for e in range(indptr[v], indptr[v + 1]):
                if values is not None:
                    fh.write(f"{int(src[e])} {v} {float(values[e])!r}\n")
                else:
                    fh.write(f"{int(src[e])} {v}\n")


def test_write_edge_list_matches_per_edge_writer(tmp_path):
    gen = np.random.default_rng(3)
    pairs = [(int(u), int(v)) for u, v in gen.integers(0, 9, size=(60, 2)) if u != v]
    values = [0.1, 1 / 3, 1.0, 0.0, 1e-7, 0.30000000000000004, 5e-324]
    weighted = from_edges(9, [(u, v, values[i % len(values)]) for i, (u, v) in enumerate(pairs)])
    bare = gen_erdos_renyi(50, 300, stream(4, 0))
    isolated = load_edge_list("6 1\n4 2\n")
    for i, graph in enumerate((weighted, bare, isolated)):
        got, want = tmp_path / f"got{i}.txt", tmp_path / f"want{i}.txt"
        write_edge_list(str(got), graph)
        _reference_write(str(want), graph)
        assert got.read_bytes() == want.read_bytes()
        back = load_edge_list(str(got))
        for x, y in zip(back.in_csr, graph.in_csr):
            assert (x is None and y is None) or np.array_equal(x, y)
