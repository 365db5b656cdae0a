import io

import numpy as np
import pytest

from limax.graph import (IC, LT, DirectedGraph, EdgeListError,
                         TriggeringParams, assign_weighted_cascade, from_edges, gen_erdos_renyi,
                         load_edge_list, sample_triggering_set, uniform_ic,
                         write_edge_list)
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
    for u in range(n):
        taken: dict[int, int] = {}
        expect = []
        for v in out_rows[u]:
            k = taken.get(v, 0)
            taken[v] = k + 1
            slots = [t for t, w in enumerate(in_rows[v]) if w == u]
            expect.append(float(params.in_values[v][slots[k]]))
        assert params._out_py[u] == expect


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


def test_triggering_set_no_in_neighbors():
    g = from_edges(2, [(0, 1)])
    assert sample_triggering_set(g, uniform_ic(g, 0.5), 0, stream(0, 0)) == set()


def test_triggering_set_certain_edge():
    g = from_edges(2, [(0, 1)])
    params = uniform_ic(g, 1.0)
    rng = stream(0, 1)
    for _ in range(50):
        assert sample_triggering_set(g, params, 1, rng) == {0}


def test_ic_all_ones_returns_full_in_neighbor_set():
    rng = stream(3, 2)
    g = from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    params = uniform_ic(g, 1.0)
    for _ in range(20):
        assert sample_triggering_set(g, params, 4, rng) == {0, 1, 2, 3}


def test_lt_triggering_frequencies():
    # two in-edges w=0.3 each: frequencies 0.3 / 0.3 / 0.4 over 1e5 draws
    g = from_edges(3, [(0, 2), (1, 2)])
    params = TriggeringParams.build(g, LT, [np.empty(0), np.empty(0), np.array([0.3, 0.3])])
    rng = stream(7, 3)
    counts = {frozenset(): 0, frozenset({0}): 0, frozenset({1}): 0}
    n_draws = 100_000
    for _ in range(n_draws):
        counts[frozenset(sample_triggering_set(g, params, 2, rng))] += 1
    assert abs(counts[frozenset({0})] / n_draws - 0.3) < 0.01
    assert abs(counts[frozenset({1})] / n_draws - 0.3) < 0.01
    assert abs(counts[frozenset()] / n_draws - 0.4) < 0.01


def test_lt_selection_frequency_bound(rng):
    # empirical frequency of each in-neighbor within 4*sqrt(w(1-w)/N)
    g = from_edges(4, [(0, 3), (1, 3), (2, 3)])
    w = np.array([0.15, 0.35, 0.2])
    params = TriggeringParams.build(g, LT, [np.empty(0)] * 3 + [w])
    draws = 40_000
    hits = np.zeros(3)
    gen = stream(11, 4)
    for _ in range(draws):
        got = sample_triggering_set(g, params, 3, gen)
        for u in got:
            hits[u] += 1
    freq = hits / draws
    bound = 4.0 * np.sqrt(w * (1 - w) / draws)
    assert np.all(np.abs(freq - w) <= bound)


def test_graph_arrays_are_immutable():
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        g.in_neighbors[1][0] = 2
    before = [a.copy() for a in g.in_neighbors]
    _ = sample_triggering_set(g, uniform_ic(g, 0.3), 1, stream(0, 5))
    assert all(np.array_equal(a, b) for a, b in zip(before, g.in_neighbors))


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
