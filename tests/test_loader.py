"""The whole-array edge-list loader against the scalar reference, plus
pathological inputs."""

import io
import sys
import warnings

import numpy as np
import pytest

from conftest import csr_rows
from edge_list_reference import reference_load
from limax.graph import (_BREAKS, _SPACES, EdgeListError, assign_weighted_cascade, from_edges,
                         load_edge_list, params_from_edge_values, uniform_ic)
from limax.strategy import IndependentActivation, LatticeConfig


def _load(text, header):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = load_edge_list(text, header=header)
    return graph, [str(w.message) for w in caught]


def _assert_same(text: str, header, source=str) -> str:
    """Load ``source(text)`` with the loader and ``text`` with the
    reference; return 'error' or 'graph'."""
    try:
        ref = reference_load(text, header)
    except EdgeListError as exc:
        with pytest.raises(EdgeListError) as got:
            load_edge_list(source(text), header=header)
        assert (str(got.value), got.value.line) == (str(exc), exc.line), text
        return "error"
    graph, caught = _load(source(text), header)
    assert caught == ([f"dropped {ref.self_loops} self-loop(s)"] if ref.self_loops else [])
    assert graph.n == ref.n
    in_ptr, _, values = graph.in_csr
    assert csr_rows(*graph.in_csr[:2]) == ref.in_neighbors
    assert csr_rows(*graph.out_csr[:2]) == ref.out_neighbors
    if ref.edge_values is None:
        assert values is None
    else:
        assert csr_rows(in_ptr, values) == ref.edge_values
        # each out-edge points at an in-edge with the same endpoints
        _, dst, edge = graph.out_csr
        src = graph.in_csr[1]
        owner = np.repeat(np.arange(graph.n), graph.out_degrees())
        target = np.repeat(np.arange(graph.n), graph.in_degrees())
        assert np.array_equal(src[edge], owner) and np.array_equal(target[edge], dst)
    assert (None if graph.labels is None else graph.labels.tolist()) == ref.labels
    assert graph.m == sum(map(len, ref.in_neighbors))
    return "graph"


def _random_text(gen) -> tuple[str, object]:
    """A random edge list, often with a planted fault, and a header mode."""
    ids = int(gen.integers(2, 9))
    sparse = gen.random() < 0.4
    label = (lambda i: 3 * i + 5) if sparse else (lambda i: i)
    m = int(gen.integers(0, 12))
    weighted = gen.random() < 0.5
    records = []
    for _ in range(m):
        u, v = (int(x) for x in gen.integers(0, ids, size=2))
        if gen.random() < 0.15:
            v = u                                        # self-loop
        fields = [str(label(u)), str(label(v))]
        if weighted:
            p = float(gen.choice([0.0, 1.0, 0.25, gen.random()]))
            fields.append(gen.choice([repr(p), f"{p:.3g}", f"{p:e}"]))
        records.append(fields)
        if gen.random() < 0.2:
            records.append(list(fields))                 # parallel copy
    if records and gen.random() < 0.5:
        r = int(gen.integers(0, len(records)))
        f = int(gen.integers(0, len(records[r])))
        records[r][f] = str(gen.choice(["x", "1.5", "-2", "+3", "--1", "1_0", "nan",
                                        "2.5", "-0.1", "1e9", "7"]))
        if gen.random() < 0.3:
            r = int(gen.integers(0, len(records)))
            if gen.random() < 0.5:
                records[r] = records[r][:-1]             # drop a field
            else:
                records[r] = records[r] + ["0.5"]        # add a field
    lines = [" ".join(f) for f in records]
    declared_n = (max((label(i) for i in range(ids))) + 1) if not sparse else ids
    if gen.random() < 0.6:
        n_h = declared_n + int(gen.choice([0, 0, 2, -1]))
        m_h = len(lines) + int(gen.choice([0, 0, 0, 1, -1]))
        lines.insert(0, f"{n_h} {m_h}")
    out = []
    for line in lines:
        while gen.random() < 0.2:
            out.append(str(gen.choice(["", "# comment", "   ", "#1 2", "\t# x y z"])))
        pad = str(gen.choice(["", "  ", "\t"]))
        out.append(pad + line + str(gen.choice(["", " ", "\t"])))
    header = [True, False, "auto"][int(gen.integers(0, 3))]
    return "\n".join(out) + "\n", header


def test_loader_matches_scalar_reference_on_random_inputs():
    gen = np.random.default_rng(20261018)
    outcomes = {"error": 0, "graph": 0}
    for _ in range(1500):
        text, header = _random_text(gen)
        outcomes[_assert_same(text, header)] += 1
    assert min(outcomes.values()) > 300


@pytest.mark.parametrize("text, header, message", [
    ("0 1\n1 x\n", False, "line 2: non-integer node id in ['1', 'x']"),
    ("0 1 0.5\n1 2\n", False, "line 2: mix of weighted and bare edge records"),
    ("0 1\n1 2 0.5\n", "auto", "line 2: mix of weighted and bare edge records"),
    ("0 1\n1 2 3 4\n", False, "line 2: expected 'u v [p]', got 4 fields"),
    ("0 1\n-1 2 0.5\n", False, "line 2: negative node id"),
    ("0 1\nx 2 0.5\n", False, "line 2: non-integer node id in ['x', '2']"),
    ("0 1 0.5\n1 2 1.5\n", False, "line 2: edge value 1.5 outside [0, 1]"),
    ("0 1 0.5\n1 2 nan\n", False, "line 2: edge value nan outside [0, 1]"),
    ("0 1 0.5\n1 2 p\n", False, "line 2: non-numeric edge value 'p'"),
    ("# c\n\n0 1 0.5\n-1 2 9\n1 x 0.5\n", False, "line 4: negative node id"),
    ("3 2\n0 1\n", True, "header declares 2 edges but file has 1"),
    ("2 1\n0 5\n", "auto", "node id 5 out of declared range [0, 2)"),
    ("3 3\n0 1\n5 5\n1 7\n", True, "node id 5 out of declared range [0, 3)"),
    ("0 1 2\n", True, "line 1: expected header line 'n m'"),
    ("a 1\n0 1\n", True, "line 1: non-integer header fields"),
    ("-3 1\n0 1\n", True, "line 1: negative header counts"),
    ("# only\n\n  # comments\n", "auto", "empty edge list"),
    ("0 1\n1 99999999999999999999999\n", False,
     "line 2: node id beyond int64 in ['1', '99999999999999999999999']"),
    ("0 1\n-99999999999999999999999 2\n", False, "line 2: negative node id"),
    ("0 1 0.5\n9223372036854775808 x 0.5\n", False,
     "line 2: non-integer node id in ['9223372036854775808', 'x']"),
    ("0 1\n9223372036854775808 1 0.5\n", False,
     "line 2: node id beyond int64 in ['9223372036854775808', '1']"),
])
def test_malformed_input_message_and_line(text, header, message):
    assert _assert_same(text, header) == "error"
    with pytest.raises(EdgeListError) as err:
        load_edge_list(text, header=header)
    assert str(err.value) == message


@pytest.mark.parametrize("header", [True, False, "auto"])
def test_header_modes_match_reference(header):
    for text in ("3 2\n0 1\n1 2\n", "3 3\n0 1\n1 2\n", "2 1\n+0 1\n", "1 1\n0 1\n",
                 "0 0\n", "3 2\n0 1\n1 2 3\n", "4 1\n0 1\n", "5 2\n1_0 1\n2 1\n"):
        _assert_same(text, header)


@pytest.mark.parametrize("source", [str, str.encode, lambda t: io.StringIO(t),
                                    lambda t: io.BytesIO(t.encode())],
                         ids=["str", "bytes", "text-stream", "byte-stream"])
@pytest.mark.parametrize("text", [
    "3 2\r\n0 1\r\n1 2\r\n",                  # CR LF is one line break
    "0 1\r1 2\r\r\n2 0\r",                    # lone CR, then CR before CR LF
    "0 1\x0b1 2\x0c2 0\n",
    "0 1\x1c1 2\x1d2 0\x1e0 2\n",
    "0 1\x851 2\u20282 0\u20290 2\n",
    "0 1 2\x0b1 2\n",                         # a weighted, then a bare record
    "0\x1f1\n1\xa02\n2\u30000\t0.5\n",        # separators within a line
    "0 1\n1\x1f2 3\n",                        # unit separator is no line break
    "٣ 1\n1 ٣\n",                             # Unicode digits are ids
    "2 2\n٣ 1\n1 ٣\n",
    "  # leading blanks\n\t#x 1\n0 1\n \x0c# c\n1 2\n",
    "0 #x 1\n",                               # a '#' token mid-record
    "0 1 #x\n",
    "0 1\n  #\n1\u3000#x\n",
])
def test_separators_match_reference(text, source):
    """Token and line separators are those of ``str.split()`` and
    ``str.splitlines()``, for every kind of source."""
    for header in (True, False, "auto"):
        _assert_same(text, header, source)


def test_separator_tables_match_str_methods():
    """The loader's whitespace and line-break code points are exactly those
    of ``str.split()`` and ``str.splitlines()``; every line break is also
    whitespace."""
    chars = list(map(chr, range(sys.maxunicode + 1)))
    spaces = [c for c in chars if len(f"a{c}a".split()) == 2]
    breaks = [c for c in chars if len(f"a{c}a".splitlines()) == 2]
    assert sorted(_SPACES) == spaces and sorted(_BREAKS) == breaks
    assert set(breaks) <= set(spaces)


def test_two_node_file():
    g = load_edge_list("2 1\n0 1\n")
    assert (g.n, g.m, g.labels) == (2, 1, None)
    assert csr_rows(*g.in_csr[:2]) == [[], [0]] and csr_rows(*g.out_csr[:2]) == [[1], []]
    g = load_edge_list("7 9\n9 7\n", header=False)
    assert g.n == 2 and g.labels.tolist() == [7, 9]
    assert csr_rows(*g.in_csr[:2]) == [[1], [0]]


def test_comment_only_file_is_empty():
    with pytest.raises(EdgeListError, match="^empty edge list$") as err:
        load_edge_list("# nothing\n\n   \n# here\n")
    assert err.value.line is None


def test_declared_isolated_nodes():
    g = load_edge_list("6 2\n0 1\n1 2\n")
    assert g.n == 6 and g.m == 2
    assert g.in_degrees().tolist() == [0, 1, 1, 0, 0, 0]
    assert g.out_degrees().tolist() == [1, 1, 0, 0, 0, 0]
    params = assign_weighted_cascade(g)
    assert params._csr[0].tolist() == [0, 0, 1, 2, 2, 2, 2]


def _same_params(a, b):
    for x, y in zip((*a._csr, *a._out_csr, *a._skip), (*b._csr, *b._out_csr, *b._skip)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_large_star_from_file_equals_from_edges(tmp_path):
    # 20,000 spokes into node 0, plus a ring among the spokes
    n = 20_001
    p = 1.0 / 20_000
    edges = [(i, 0, p) for i in range(1, n)] + [(i, i % (n - 1) + 1, 0.5) for i in range(1, n)]
    path = tmp_path / "star.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v} {q!r}\n" for u, v, q in edges))
    loaded = load_edge_list(str(path))
    built = from_edges(n, edges)
    assert loaded.in_degrees()[0] == 20_000
    for x, y in zip((*loaded.in_csr, *loaded.out_csr), (*built.in_csr, *built.out_csr)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    _same_params(params_from_edge_values(loaded), params_from_edge_values(built))
    _same_params(assign_weighted_cascade(loaded), assign_weighted_cascade(built))
    _same_params(uniform_ic(loaded, 0.01), uniform_ic(built, 0.01))
    flag, shared = params_from_edge_values(loaded)._skip
    assert flag[0] and shared[0] == p


def _model(strategies, d=3):
    """One-node-per-row model over the (node, strategy) rows ``strategies``,
    every row the same curve."""
    nodes, strats = zip(*strategies)
    lat = LatticeConfig(d=d, delta=1.0, budget_steps=2)
    return IndependentActivation(max(nodes) + 1, lat, nodes, strats,
                                 np.tile([0.0, 0.5, 0.75], (len(nodes), 1)))


@pytest.mark.parametrize("strategies, message", [
    ([(0, 0), (1, 1), (1, 1), (2, 5)], "duplicate strategy at node 1"),
    ([(0, 0), (1, 5), (2, 1), (2, 1)], "strategy index out of range at node 1"),
    ([(2, 2), (0, 2), (2, -1), (0, 0), (2, 2)], "strategy index out of range at node 2"),
    ([(1, 0), (2, 3), (1, 2), (1, 0)], "duplicate strategy at node 1"),
])
def test_model_errors_name_first_bad_node(strategies, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _model(strategies)


K2 = LatticeConfig(d=3, delta=1.0, budget_steps=2)


@pytest.mark.parametrize("args, message", [
    (([0, 1], [0, 1], np.zeros((1, 3))),
     r"^2 nodes, 2 strategies and 1 table rows: row 1 is incomplete$"),
    (([0, 1], [0], np.zeros((2, 3))),
     r"^2 nodes, 1 strategies and 2 table rows: row 1 is incomplete$"),
    (([0], [0], np.zeros((1, 4))), r"^table row 0 has 4 values, not K \+ 1 = 3$"),
    (([0], [0], np.zeros(3)), r"^tables of shape \(3,\) are not one row per curve$"),
    (([0, 1.5], [0, 1], np.zeros((2, 3))), r"^row 1 \(1\.5, 1\) has a non-integer id$"),
    (([0, 1], [0, np.nan], np.zeros((2, 3))), r"^row 1 \(1, nan\) has a non-integer id$"),
    (([0, 2, 3], [0, 1, 2], np.zeros((3, 3))),
     r"^row 2 \(3, 2\) has a node id outside \[0, 3\)$"),
    (([-1], [0], np.zeros((1, 3))), r"^row 0 \(-1, 0\) has a node id outside \[0, 3\)$"),
], ids=["fewer-tables", "fewer-strategies", "wide-table", "flat-table", "fraction",
        "nan", "node-n", "node-minus-one"])
def test_bad_model_rows_rejected(args, message):
    with pytest.raises(ValueError, match=message):
        IndependentActivation(3, K2, *args)


def test_model_accepts_integral_and_empty_ids():
    model = IndependentActivation(3, K2, [2.0, 0.0], np.array([1, 0], np.uint8), np.zeros((2, 3)))
    assert model._flat_nodes.tolist() == [0, 2] and model._flat_strats.tolist() == [0, 1]
    assert model._flat_nodes.dtype == model._flat_strats.dtype == np.int64
    empty = IndependentActivation(3, K2, [], [], np.zeros((0, 3)))
    assert empty._indptr.tolist() == [0, 0, 0, 0] and empty.h_all([1, 1, 1]).tolist() == [0.0] * 3


def test_model_rows_are_sorted_read_only_copies_of_the_input():
    nodes, strats = np.array([2, 0, 0]), np.array([1, 2, 0])
    tables = np.array([[0.0, 0.1, 0.2], [0.0, 0.3, 0.4], [0.0, 0.5, 0.6]])
    model = IndependentActivation(3, K2, nodes, strats, tables)
    assert model._indptr.tolist() == [0, 2, 2, 3]
    assert model._flat_nodes.tolist() == [0, 0, 2]
    assert model._flat_strats.tolist() == [0, 2, 1]
    assert model._flat_tables.tolist() == tables[[2, 1, 0]].tolist()
    for stored, given in zip((model._flat_nodes, model._flat_strats, model._flat_tables),
                             (nodes, strats, tables)):
        assert not np.shares_memory(stored, given)
        with pytest.raises(ValueError):
            stored[0] = 0
    tables[:] = 1.0  # the caller's arrays stay the caller's
    assert model._flat_tables[0].tolist() == [0.0, 0.5, 0.6]
