import io

import numpy as np
import pytest

from conftest import triggering_sets

from limax.graph import (IC, LT, DirectedGraph, EdgeListError,
                         TriggeringParams, assign_weighted_cascade, from_edges, gen_erdos_renyi,
                         load_edge_list, uniform_ic, write_edge_list)
from limax.rng import stream


def test_single_edge_with_header():
    g = load_edge_list("2 1\n0 1 0.5")
    assert g.n == 2 and g.m == 1
    assert g.edge_values[1][0] == 0.5
    assert list(g.in_neighbors[1]) == [0]


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
    # a single line that splits into 2-3 fields is still inline data
    g = load_edge_list("0 1")
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
    assert list(g.in_neighbors[1]) == [0, 0]


def test_out_values_match_parallel_copies_in_order():
    # parallel edges with distinct values, out rows in an order unrelated to
    # the in rows: the k-th copy of (u, v) in out_neighbors[u] must carry the
    # value of the k-th copy of u in in_neighbors[v]
    gen = np.random.default_rng(7)
    n = 6
    pairs = [(int(u), int(v)) for u, v in gen.integers(0, n, size=(200, 2)) if u != v]
    in_rows = [[u for u, w in pairs if w == v] for v in range(n)]
    out_rows = [[v for w, v in pairs if w == u] for u in range(n)]
    for row in out_rows:
        gen.shuffle(row)
    graph = DirectedGraph(n, [np.array(r, dtype=np.int64) for r in in_rows],
                          [np.array(r, dtype=np.int64) for r in out_rows])
    params = TriggeringParams.build(
        graph, IC, [gen.uniform(size=len(r)) for r in in_rows])
    indptr, dst, values = params._out_csr
    for u in range(n):
        taken: dict[int, int] = {}
        expect = []
        for v in out_rows[u]:
            k = taken.get(v, 0)
            taken[v] = k + 1
            slots = [t for t, w in enumerate(in_rows[v]) if w == u]
            expect.append(float(params.in_values[v][slots[k]]))
        assert dst[indptr[u]:indptr[u + 1]].tolist() == out_rows[u]
        assert values[indptr[u]:indptr[u + 1]].tolist() == expect


@pytest.mark.parametrize("args, message", [
    # in-edge 0->1 against out-edge 0->2
    ((3, [[], [0], []], [[2], [], []]), r"^in-rows list edge 0->1 that the out-rows lack$"),
    # 0->1 listed twice in the in-rows, once in the out-rows
    ((2, [[], [0, 0]], [[1], []]), r"^in-rows list 2 edges, out-rows 1$"),
    ((2, [[], [5]], [[], []]), r"^in-row 1 has node id 5 outside \[0, 2\)$"),
    ((2, [[1], []], [[], [-1]]), r"^out-row 1 has node id -1 outside \[0, 2\)$"),
    ((2, [[], [0]], [[1], [], []]), r"^3 out-rows for 2 nodes$"),
    ((3, [[], [0]], [[1], [], []]), r"^2 in-rows for 3 nodes$"),
], ids=["other-edge", "edge-count", "in-id", "out-id", "out-row-count", "in-row-count"])
def test_inconsistent_rows_rejected(args, message):
    with pytest.raises(ValueError, match=message):
        DirectedGraph(*args)


def test_value_rows_must_match_in_rows():
    # node 1's one in-edge would take node 0's value 0.3
    with pytest.raises(ValueError, match=r"^value row 0 does not match its in-row$"):
        DirectedGraph(2, [[], [0]], [[1], []], edge_values=[[0.3], [0.5, 0.7]])
    with pytest.raises(ValueError, match=r"^1 value-rows for 2 nodes$"):
        DirectedGraph(2, [[], [0]], [[1], []], edge_values=[[]])


def test_parallel_copies_must_match_in_count():
    with pytest.raises(ValueError, match=r"^in-rows list edge 0->1 that the out-rows lack$"):
        DirectedGraph(3, [[], [0, 0], []], [[1, 2], [], []])


def test_weighted_cascade_values():
    # in-degree 4 -> each incoming edge 0.25; in-degree 1 -> 1.0
    g = from_edges(6, [(1, 0), (2, 0), (3, 0), (4, 0), (0, 5)])
    params = assign_weighted_cascade(g)
    assert np.allclose(params.in_values[0], 0.25)
    assert params.in_values[5][0] == 1.0


def test_weighted_cascade_star():
    spokes = [(i, 0) for i in range(1, 11)]
    g = from_edges(11, spokes)
    params = assign_weighted_cascade(g)
    assert np.allclose(params.in_values[0], 0.1)


def test_lt_weight_sum_validation():
    g = from_edges(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="sum"):
        TriggeringParams.build(g, LT, [np.empty(0), np.array([0.7, 0.7])])


def _two_in_edges_each():
    return from_edges(5, [(u, v) for v in range(5) for u in ((v + 1) % 5, (v + 2) % 5)])


def test_param_row_shape_error_names_first_bad_node():
    g = _two_in_edges_each()
    rows = [np.full(2, 0.1) for _ in range(5)]
    rows[1] = np.full(3, 0.1)
    rows[3] = np.full(1, 0.1)
    with pytest.raises(ValueError, match=r"^parameter row 1 does not match in-degree$"):
        TriggeringParams.build(g, IC, rows)


@pytest.mark.parametrize("count", [4, 6])
def test_param_row_count_must_match_nodes(count):
    g = _two_in_edges_each()
    rows = [np.full(2, 0.1) for _ in range(count)]
    for kind in (IC, LT):
        with pytest.raises(ValueError, match=rf"^{count} parameter rows for 5 nodes$"):
            TriggeringParams.build(g, kind, rows)


def test_param_range_error_names_first_bad_node():
    g = _two_in_edges_each()
    rows = [np.full(2, 0.1) for _ in range(5)]
    rows[2] = np.array([0.1, 1.5])
    rows[4] = np.array([-0.2, 0.1])
    for kind in (IC, LT):
        with pytest.raises(ValueError, match=r"^edge parameter out of \[0, 1\] at node 2$"):
            TriggeringParams.build(g, kind, rows)


def test_nan_parameter_is_out_of_range():
    g = _two_in_edges_each()
    rows = [np.full(2, 0.1) for _ in range(5)]
    rows[3] = np.array([0.1, np.nan])
    for kind in (IC, LT):
        with pytest.raises(ValueError, match=r"^edge parameter out of \[0, 1\] at node 3$"):
            TriggeringParams.build(g, kind, rows)
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
        TriggeringParams.build(g, LT, rows)
    assert TriggeringParams.build(g, IC, rows).kind == IC


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
    params = TriggeringParams.build(g, LT, [np.empty(0), np.empty(0), np.array([0.3, 0.3])])
    n_draws = 100_000
    sets = triggering_sets(params, [2] * n_draws, stream(7, 3))
    assert abs(sets.count([0]) / n_draws - 0.3) < 0.01
    assert abs(sets.count([1]) / n_draws - 0.3) < 0.01
    assert abs(sets.count([]) / n_draws - 0.4) < 0.01


def test_lt_selection_frequency_bound(rng):
    # empirical frequency of each in-neighbor within 4*sqrt(w(1-w)/N)
    g = from_edges(4, [(0, 3), (1, 3), (2, 3)])
    w = np.array([0.15, 0.35, 0.2])
    params = TriggeringParams.build(g, LT, [np.empty(0)] * 3 + [w])
    draws = 40_000
    sets = triggering_sets(params, [3] * draws, stream(11, 4))
    assert all(len(s) <= 1 for s in sets)
    freq = np.bincount([u for s in sets for u in s], minlength=3) / draws
    bound = 4.0 * np.sqrt(w * (1 - w) / draws)
    assert np.all(np.abs(freq - w) <= bound)


def test_graph_arrays_are_immutable():
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        g.in_neighbors[1][0] = 2
    before = [a.copy() for a in g.in_neighbors]
    triggering_sets(uniform_ic(g, 0.3), [1], stream(0, 5))
    assert all(np.array_equal(a, b) for a, b in zip(before, g.in_neighbors))
    # values read from a file are as read-only as the neighbour arrays
    loaded = load_edge_list("3 2\n0 1 0.5\n1 2 0.25\n")
    for arr in (*loaded.edge_values, *loaded.in_neighbors, *loaded.out_neighbors):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        loaded.edge_values[1][0] = 0.75
    # building parameters copies the caller's rows and leaves them writable
    rows = [np.empty(0), np.array([0.5]), np.array([0.25])]
    params = TriggeringParams.build(loaded, IC, rows)
    assert all(a.flags.writeable for a in rows)
    rows[1][0] = 0.9
    assert params.in_values[1].tolist() == [0.5]
    assert not params.in_values[1].flags.writeable


def test_er_generator_shape():
    g = gen_erdos_renyi(30, 100, stream(2, 0))
    assert g.n == 30 and g.m == 100
    assert not any((u == v) for u, v in g.edges())


def test_in_and_out_views_agree():
    from collections import Counter
    g = gen_erdos_renyi(20, 60, stream(2, 1))
    via_in = Counter((int(u), v) for v in range(g.n) for u in g.in_neighbors[v])
    via_out = Counter((u, int(v)) for u in range(g.n) for v in g.out_neighbors[u])
    assert via_in == via_out
    assert g.m == sum(len(a) for a in g.in_neighbors)


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
    assert [a.tolist() for a in g.in_neighbors] == [
        [u for u, w in zip(src, dst) if w == v] for v in range(n)]
    assert [a.tolist() for a in g.out_neighbors] == [
        [w for x, w in zip(src, dst) if x == u] for u in range(n)]


def _reference_write(path, graph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for v in range(graph.n):
            vals = graph.edge_values[v] if graph.edge_values is not None else None
            for t, u in enumerate(graph.in_neighbors[v]):
                if vals is not None:
                    fh.write(f"{int(u)} {v} {float(vals[t])!r}\n")
                else:
                    fh.write(f"{int(u)} {v}\n")


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
