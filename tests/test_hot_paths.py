"""Static guard on the sampling and selection hot paths.

On numpy 2.4 a plain ``np.unique`` of an int64 array goes through a hash
table: 73-82 ms for 2.4e5 keys against 2.0 ms for ``np.sort`` of the same
keys on a 2-core x86 host, 35-40x slower.  The hot-path modules take sorted distinct keys
from ``limax.rrset._distinct`` instead; ``np.unique`` stays allowed where
it returns an index, an inverse or counts.

Every name that a ``limax`` module lists in ``__all__`` resolves, so
``from limax.<module> import *`` keeps working when code is deleted.

The lattice greedy is lazy: each round recomputes the gains of a few
coordinates off the top of a heap of bounds, not all d of them.

An RR collection appends to flat arrays: sets buffered by ``add`` are
taken in with one concatenation per array on the next read, so adding
sets one by one stays linear in their total size.

LT forward cascades follow each run's committed picks by pointer doubling,
in O(log n) whole-array rounds; one BFS level per step took 0.31-0.40 s
for 50 runs of a 4,001-node LT chain.

The edge-list loader tokenizes and converts the whole buffer in array
passes: a well-formed file makes the same number of Python-level calls
whatever its record count.  On the 50,000-record ``er_ic_segmented``
benchmark file a ``str.split`` and ``int()`` per line took 0.123 s in
one traced run on a 2-core x86 host, the array passes 0.020 s.

The Monte-Carlo uniforms come from an SFC64 child generator, not from the
caller's Philox stream: 2^17 doubles took 476 us from SFC64 against
1,281 us from Philox on a 2-core x86 host.  Each public sampling entry
point hands the kernels (``rrset._reverse_reach``, ``oracles._cascades``)
its child.
"""

import ast
import importlib
import math
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import limax
from limax import oracles
from limax.budgets import TotalBudget
from limax.graph import (LT, TriggeringParams, assign_weighted_cascade, from_edges,
                         gen_erdos_renyi, load_edge_list)
from limax.immprr import GreedyState, lgreedy_delta
from limax.immvsn import AugmentedGraph, HybridCollection, simulate_spread_virtual_seeds
from limax.rng import stream
from limax.rrset import RRCollection, RRSet, generate_collection
from limax.strategy import (IndependentActivation, LatticeConfig, make_personalized,
                            multi_event_table)

HOT_MODULES = ["rrset.py", "immvsn.py", "immprr.py", "oracles.py"]
ALLOWED = {"return_index", "return_inverse", "return_counts"}


def _plain_unique_calls(source: str) -> list[int]:
    """Line numbers of ``np.unique`` / ``numpy.unique`` calls without any
    ``return_*`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "unique" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy") \
                and not ALLOWED & {k.arg for k in node.keywords}:
            lines.append(node.lineno)
    return lines


def test_guard_flags_plain_unique():
    assert _plain_unique_calls("np.unique(a)\nnp.unique(a, return_inverse=True)\n") == [1]


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_hash_based_unique_on_hot_paths(module):
    path = Path(limax.__file__).parent / module
    lines = _plain_unique_calls(path.read_text())
    assert not lines, (
        f"{module} calls np.unique on line(s) {lines}: on int64 keys it takes a "
        "hash-table path measured 35-40x slower than a sort; use "
        "limax.rrset._distinct (np.sort plus a neighbour-inequality mask)")


MODULES = ["limax"] + [f"limax.{m.name}" for m in pkgutil.iter_modules(limax.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()


def test_lazy_greedy_recomputes_few_gains(monkeypatch):
    """On a mid-size concave instance the lazy lattice greedy recomputes a
    small share of the d gains per round that a full rescan would."""
    graph = gen_erdos_renyi(400, 2000, stream(38, 0))
    lat = LatticeConfig(d=400, delta=0.1, budget_steps=20)
    model = make_personalized(400, lat)
    coll = generate_collection(graph, assign_weighted_cascade(graph), model, 3000,
                               stream(38, 1))
    calls = {"marginal": 0, "gains": 0}
    for name in calls:
        method = getattr(GreedyState, name)

        def counted(state, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(state, *args)

        monkeypatch.setattr(GreedyState, name, counted)
    mix = lgreedy_delta(coll, model, lat, TotalBudget(20))
    assert mix.total_steps == 20
    evaluated = calls["marginal"] + lat.d * calls["gains"]
    assert evaluated <= lat.d * 20 // 4, (
        f"{calls} recompute {evaluated} gains over 20 rounds of d = {lat.d}: "
        "lgreedy_delta has gone back to rescanning every coordinate")


def test_lt_forward_chain_takes_log_rounds(monkeypatch):
    """An LT chain of 20,001 nodes seeded at its head activates every node
    of every run in at most ceil(log2(n * runs)) + 1 doubling rounds, and
    never walks the out-edges one BFS level at a time."""
    n, runs = 20_001, 50
    g = from_edges(n, [(u, u + 1) for u in range(n - 1)])
    params = TriggeringParams.build(g, LT, np.ones(g.m))

    def levels(*args):
        raise AssertionError("LT forward cascades walk BFS levels (oracles._reach)")

    follow, rounds = oracles._follow, []

    def counted(par, top):
        hit, r = follow(par, top)
        rounds.append(r)
        return hit, r

    monkeypatch.setattr(oracles, "_reach", levels)
    monkeypatch.setattr(oracles, "_follow", counted)
    est = oracles.simulate_spread_seeds(g, params, [0], runs, stream(39, 0))
    assert est == (n, 0.0, runs)
    assert rounds and max(rounds) <= math.ceil(math.log2(n * runs)) + 1, rounds


def test_buffered_adds_concatenate_once(monkeypatch):
    """20,000 ``add`` calls followed by every kind of read do a constant
    number of array concatenations, not one per set."""
    graph = gen_erdos_renyi(400, 2000, stream(40, 0))
    lat = LatticeConfig(d=400, delta=0.1, budget_steps=5)
    model = make_personalized(400, lat)
    source = generate_collection(graph, assign_weighted_cascade(graph), model, 20_000,
                                 stream(40, 1))
    sets = source.sets
    calls = []
    concatenate = np.concatenate

    def counted(*args, **kwargs):
        calls.append(1)
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    coll = RRCollection(graph, source.params, model)
    for rr in sets:
        coll.add(rr)
    assert coll.theta == 20_000
    coll.strategy_entries()
    coll.coverage_weights(model.h_all(np.ones(lat.d, dtype=np.int64)))
    assert len(coll.sets) == 20_000 and len(coll.members) == len(source.members)
    assert len(calls) <= 10, f"{len(calls)} concatenations for 20,000 buffered sets"


def _rr(aug, rng):
    coll = RRCollection(aug.graph, aug.params, aug.model)
    coll.extend(20, rng)
    return coll.members.tolist(), coll.offsets.tolist()


def _hybrid(aug, rng):
    coll = HybridCollection(aug)
    coll.extend(20, rng)
    return coll.vsets.tolist(), coll.flats.tolist()


def _mix(aug, rng):
    return oracles.simulate_spread_mix(aug.graph, aug.params, aug.model, [1, 1], 20, rng)


def _seeds(aug, rng):
    return oracles.simulate_spread_seeds(aug.graph, aug.params, [0, 1, 2], 20, rng)


def _virtual(aug, rng):
    return simulate_spread_virtual_seeds(aug, [0, 2], 20, rng)


@pytest.mark.parametrize("entry", [_rr, _hybrid, _mix, _seeds, _virtual])
def test_sampling_draws_from_sfc64_child(monkeypatch, entry):
    """Every public sampling entry point hands the kernels an SFC64 child of
    its caller's Philox generator, and equal caller states give equal
    outputs."""
    graph = gen_erdos_renyi(30, 90, stream(41, 0))
    lat = LatticeConfig(d=2, delta=1.0, budget_steps=2)
    model = IndependentActivation(30, lat, np.arange(30), np.arange(30) % 2,
                                  multi_event_table(0.1 + 0.01 * np.arange(30), lat))
    aug = AugmentedGraph(graph, assign_weighted_cascade(graph), model, lat)
    seen = []
    for module, name in [("rrset", "_reverse_reach"), ("immvsn", "_reverse_reach"),
                         ("oracles", "_cascades"), ("immvsn", "_cascades")]:
        module = importlib.import_module(f"limax.{module}")

        def recorded(*args, _kernel=getattr(module, name)):
            seen.append(type(args[-1].bit_generator))  # the generator comes last
            return _kernel(*args)

        monkeypatch.setattr(module, name, recorded)
    caller = stream(41, 1)
    assert type(caller.bit_generator) is np.random.Philox
    first = entry(aug, caller)
    assert seen and set(seen) == {np.random.SFC64}, seen
    assert entry(aug, stream(41, 1)) == first


def _edge_list(records: int, weighted: bool) -> str:
    """A well-formed edge list over ids below 1,000, without self-loops or
    header (whose digit count would grow with ``records``)."""
    gen = np.random.default_rng(41)
    u = gen.integers(0, 1000, size=records)
    v = (u + gen.integers(1, 1000, size=records)) % 1000
    p = gen.random(records)
    rows = [f"{a} {b} {q!r}" if weighted else f"{a} {b}"
            for a, b, q in zip(u.tolist(), v.tolist(), p.tolist())]
    return "\n".join(rows) + "\n"


def _profile_events(text: str) -> int:
    """Python-level call events (Python and C functions) of one load."""
    count = [0]

    def tally(frame, event, arg):
        count[0] += event in ("call", "c_call")

    sys.setprofile(tally)
    try:
        graph = load_edge_list(text)
    finally:
        sys.setprofile(None)
    assert graph.m == text.count("\n")
    return count[0]


@pytest.mark.parametrize("weighted", [False, True])
def test_loader_calls_do_not_grow_with_records(weighted):
    """Ten times the records make no more Python-level calls: the loader
    has no per-line step."""
    small, big = _edge_list(5_000, weighted), _edge_list(50_000, weighted)
    load_edge_list(small)  # first-call set-up out of the count
    calls = _profile_events(small), _profile_events(big)
    assert calls[1] <= calls[0], (
        f"{calls[0]} calls for 5,000 records, {calls[1]} for 50,000: "
        "load_edge_list has gone back to a per-line step")
