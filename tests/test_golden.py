"""Golden values that pin the random-draw order of every sampler.

A small fixed instance is solved and sampled at fixed streams, under IC and
under LT, and the outputs are compared with literal values.  Any change to
the order in which the batched reverse search, the hybrid arm draws, the LT
pick or the forward cascade consume uniforms shows up here as a changed RR
set, mix or spread, even when the distributions stay correct.  Each sampler
reads its own stream, and the spreads are taken at fixed mixes, so a change
to one sampler moves only its own literals.  Each public sampling call
(``extend``, the forward spread simulations) draws its roots, if any, from
the given stream and everything else from an SFC64 child seeded by four
words of that stream (``limax.rng.child``), so the literals also pin where
the child is made.  The triggering sets and the hub sets drawn through
``RRCollection._sample`` read the given stream directly.  A hub instance
pins the sampling of a node with many in-edges, from a generator
part-way through its stream.  A second hub instance pins the geometric
gaps of nodes above the skip gate, and the coins that finish a row after
the last gap round.
"""

import numpy as np
import pytest

from conftest import rr_set, triggering_sets

from limax.budgets import TotalBudget
from limax.graph import IC, LT, TriggeringParams, from_edges, gen_erdos_renyi
from limax.immprr import make_imm_params, run_immprr
from limax.immvsn import (build_augmented, generate_hybrid_collection,
                          run_immvsn)
from limax.oracles import simulate_spread_mix
from limax.rng import stream
from limax.rrset import generate_collection
from limax.strategy import (IndependentActivation, LatticeConfig,
                            multi_event_table)

SEED = 4242
N, M = 12, 36


def _instance(kind):
    graph = gen_erdos_renyi(N, M, stream(SEED, 0))
    vals = stream(SEED, 1)
    rows = []
    for deg in graph.in_degrees().tolist():
        w = vals.uniform(0.1, 1.0, size=deg)
        if kind == LT and deg:
            w *= 0.9 / w.sum()
        rows.append(w)
    params = TriggeringParams.build(graph, kind, np.concatenate(rows))
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=3)
    rows = [(v, (v + t) % 3, multi_event_table(0.1 + 0.05 * v + 0.1 * t, lat))
            for v in range(N) for t in range(1 + (v % 4 == 0))]
    model = IndependentActivation(N, lat, *zip(*rows))
    return graph, params, model, lat


def _observed(kind):
    graph, params, model, lat = _instance(kind)
    key = 0 if kind == IC else 1
    coll = generate_collection(graph, params, model, 12, stream(SEED, 10, key))
    aug = build_augmented(graph, params, model, lat)
    hybrid = generate_hybrid_collection(aug, 12, stream(SEED, 11, key))
    gen = stream(SEED, 12, key)
    triggering = [triggering_sets(params, [v], gen)[0] for v in range(N)]
    constraint = TotalBudget(3)
    imm = make_imm_params(N, lat, 3, 0.5, 1.0)
    prr = run_immprr(graph, params, model, lat, constraint, imm, stream(SEED, 13, key))
    vsn = run_immvsn(graph, params, model, lat, constraint, imm, stream(SEED, 14, key))
    # one batch of runs each: the seed coins, the LT picks, then the IC
    # out-edge coins level by level
    spreads = [simulate_spread_mix(graph, params, model, SPREAD_MIX[kind], runs,
                                   stream(SEED, 15, key, runs)).mean
               for runs in (40, 64)]
    return {
        "members": [rr.members.tolist() for rr in coll.sets],
        "widths": [rr.width for rr in coll.sets],
        "hybrid_theta": hybrid.theta,
        "virtual_sets": hybrid.virtual_sets,
        "triggering": triggering,
        "immprr": (prr.mix.steps.tolist(), prr.stats.theta),
        "immvsn": (vsn.mix.steps.tolist(), vsn.stats.theta),
        "spreads": spreads,
    }


SPREAD_MIX = {IC: [2, 1, 0], LT: [0, 1, 2]}

GOLDEN = {
    IC: {
        "members": [[0, 1, 2, 3, 4, 7, 8, 9, 10, 11], [3], [0, 1, 2, 3, 4, 5, 6, 7, 9, 11],
                    [1, 2, 3, 4, 6, 7, 10, 11], [3, 10, 11], [2, 4, 9], [3],
                    [1, 3, 7, 9, 10, 11], [2, 3, 4, 5, 6, 10, 11], [9],
                    [2, 3, 5, 6, 7, 9, 10, 11], [2, 3, 6, 10, 11]],
        "widths": [31, 2, 32, 22, 7, 6, 2, 15, 17, 1, 22, 14],
        "hybrid_theta": 12,
        "virtual_sets": [[3], [0, 3, 4, 6, 7], [0, 1, 3, 6], [0, 6], [0],
                         [0, 3, 4, 5, 6, 7, 8], [0, 3, 6], [2, 3, 5, 6], [0, 2, 3, 5, 7, 8],
                         [3, 7], [0, 1, 3, 5, 6, 7, 8], [0, 2, 4, 5, 6]],
        "triggering": [[3, 4, 7, 9, 10], [], [], [], [], [6], [4], [], [4], [3], [11], [7]],
        "immprr": ([2, 1, 0], 464),
        "immvsn": ([1, 1, 1], 464),
        "spreads": [9.625, 9.328125],
    },
    LT: {
        "members": [[0, 1, 11], [3, 6, 10, 11], [3, 6, 10, 11], [3, 10, 11],
                    [0, 2, 3, 5, 6, 7, 10, 11], [2, 3, 7, 9, 10, 11], [2, 3, 4, 7, 10, 11],
                    [0, 6, 10, 11], [0, 6, 7, 11], [3, 7, 11], [2, 3, 4, 6, 9, 10, 11],
                    [0, 10, 11]],
        "widths": [14, 10, 10, 7, 29, 17, 17, 16, 20, 11, 16, 13],
        "hybrid_theta": 12,
        "virtual_sets": [[4, 6], [2, 3, 6, 8], [5, 6], [6], [0, 5, 6], [0], [3, 7, 8],
                         [0, 3, 6], [0, 4, 8], [1, 3, 5, 6], [0, 2, 3, 7], [3, 6]],
        "triggering": [[], [8], [5], [10], [2], [6], [], [1], [1], [3], [11], [0]],
        "immprr": ([1, 0, 2], 438),
        "immvsn": ([0, 1, 2], 435),
        "spreads": [10.45, 10.59375],
    },
}


@pytest.mark.parametrize("kind", [IC, LT])
def test_draw_order_golden(kind):
    assert _observed(kind) == GOLDEN[kind]


# --- hub instance: one long in-edge list -------------------------------------

HUB_N = 40
HUB_DEG = 30


def _hub_instance():
    """Small IC graph: hub 0 has in-degree 30 and an edge into every other
    node, which has one more in-edge from a random non-hub node."""
    gen = stream(SEED, 20)
    edges = [(u, 0) for u in range(1, HUB_DEG + 1)]
    for v in range(1, HUB_N):
        edges.append((0, v))
        edges.append((int(gen.choice(np.delete(np.arange(1, HUB_N), v - 1))), v))
    graph = from_edges(HUB_N, edges)
    probs = stream(SEED, 21)
    params = TriggeringParams.build(graph, IC, probs.uniform(0.05, 0.6, size=graph.m))
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=3)
    rows = [(v, (v + t) % 3, multi_event_table(0.05 + 0.01 * v + 0.1 * t, lat))
            for v in range(HUB_N) for t in range(1 + (v % 5 == 0))]
    model = IndependentActivation(HUB_N, lat, *zip(*rows))
    return graph, params, model, lat


def _hub_observed():
    graph, params, model, lat = _hub_instance()
    # the samplers start 7 uniforms into their streams
    gen = stream(SEED, 22)
    gen.random(7)
    coll = generate_collection(graph, params, model, 8, gen)
    coll.extend(8, gen)
    gen = stream(SEED, 23)
    hub_sets = [rr_set(graph, params, 0, gen).members.tolist()
                for _ in range(4)]
    gen = stream(SEED, 25)
    hub_triggering = [triggering_sets(params, [0], gen)[0] for _ in range(4)]
    aug = build_augmented(graph, params, model, lat)
    gen = stream(SEED, 24)
    gen.random(7)
    hybrid = generate_hybrid_collection(aug, 12, gen)
    return {
        "members": [rr.members.tolist() for rr in coll.sets],
        "widths": [rr.width for rr in coll.sets],
        "hub_sets": hub_sets,
        "hub_triggering": hub_triggering,
        "virtual_sets": hybrid.virtual_sets,
    }


HUB_GOLDEN = {
    "members": [[25], [0, 1, 4, 6, 8, 9, 10, 12, 14, 15, 19, 24, 25, 26, 30],
                [0, 1, 7, 9, 10, 14, 15, 17, 19, 22, 24, 25, 26, 27, 30, 31], [31],
                [24, 33], [13],
                [0, 1, 2, 4, 6, 7, 8, 9, 10, 12, 14, 15, 16, 17, 22, 23, 24, 26, 27, 30],
                [0, 1, 2, 3, 7, 8, 9, 10, 11, 12, 14, 15, 20, 24, 25, 26, 27, 30],
                [0, 4, 5, 7, 8, 9, 11, 18, 20, 23, 25, 26, 29, 36, 37],
                [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 18, 23, 25, 26, 27, 37], [6], [9],
                [0, 1, 2, 3, 4, 6, 8, 9, 12, 14, 15, 19, 20, 24, 25, 26, 27, 29, 30, 37],
                [37], [0, 6, 8, 9, 11, 12, 15, 19, 20, 22, 23, 27, 29, 32, 38], [29, 33]],
    "widths": [2, 58, 60, 2, 4, 2, 68, 64, 58, 64, 2, 2, 68, 2, 58, 4],
    "hub_sets": [[0, 1, 4, 5, 6, 7, 9, 12, 14, 15, 17, 18, 19, 20, 22, 23, 24, 27, 29,
                  30],
                 [0, 4, 5, 6, 8, 9, 11, 12, 15, 16, 18, 22, 23, 27, 29, 30],
                 [0, 5, 12, 16, 20, 23, 25, 26, 30, 37],
                 [0, 2, 3, 4, 6, 7, 8, 10, 11, 17, 18, 20, 23, 24, 26, 27, 30, 33]],
    "hub_triggering": [[2, 5, 8, 9, 12, 14, 16, 20, 23, 24, 27],
                       [4, 8, 9, 10, 14, 16, 18, 22, 26],
                       [2, 4, 8, 10, 12, 16, 19, 21, 23, 24, 26, 27, 28, 29, 30],
                       [8, 12, 14, 16, 20, 22, 23, 25, 26]],
    "virtual_sets": [[1, 3, 6, 7, 8], [3], [0, 7], [7], [0], [6], [0, 1, 3, 4, 6, 7, 8],
                     [0, 3, 4, 7]],
}


def test_hub_block_draws_golden():
    assert _hub_observed() == HUB_GOLDEN


# --- hubs above the skip gate: geometric gaps, then coins ---------------------

SKIP_N = 60


def _skip_hub_instance():
    """Hub 0 has 40 in-edges sharing p = 0.1, hub 1 has 40 sharing p = 0.6,
    so both draw geometric gaps and hub 1's pairs usually finish their rows
    with coins.  Hub 0 points at every other node, each of which has one
    more in-edge from a random non-hub node, with its own probability."""
    gen = stream(SEED, 30)
    edges = [(u, 0) for u in range(1, 41)] + [(u, 1) for u in range(20, 60)]
    for v in range(1, SKIP_N):
        edges.append((0, v))
        edges.append((int(gen.choice([u for u in range(2, SKIP_N) if u != v])), v))
    graph = from_edges(SKIP_N, edges)
    probs = stream(SEED, 31)
    indptr = graph.in_csr[0]
    values = np.concatenate((np.full(indptr[1], 0.1), np.full(indptr[2] - indptr[1], 0.6),
                             probs.uniform(0.05, 0.6, size=graph.m - indptr[2])))
    params = TriggeringParams.build(graph, IC, values)
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=3)
    model = IndependentActivation(SKIP_N, lat, np.arange(SKIP_N), np.arange(SKIP_N) % 3,
                                  multi_event_table(0.05 + 0.005 * np.arange(SKIP_N), lat))
    return graph, params, model, lat


def _skip_hub_observed():
    graph, params, model, lat = _skip_hub_instance()
    assert params._skip[0].nonzero()[0].tolist() == [0, 1]
    coll = generate_collection(graph, params, model, 12, stream(SEED, 32))
    gen = stream(SEED, 33)
    hub_sets = [rr_set(graph, params, hub, gen).members.tolist()
                for hub in (0, 0, 1, 1)]
    aug = build_augmented(graph, params, model, lat)
    hybrid = generate_hybrid_collection(aug, 12, stream(SEED, 34))
    return {
        "members": [rr.members.tolist() for rr in coll.sets],
        "widths": [rr.width for rr in coll.sets],
        "hub_sets": hub_sets,
        "virtual_sets": hybrid.virtual_sets,
    }


SKIP_HUB_GOLDEN = {
    "members": [[0, 3, 15, 23, 29, 31, 32, 37], [0, 5, 18, 22, 29, 35, 40], [39],
                [0, 3, 16, 19, 26, 29, 36, 37, 39, 42, 49, 58], [48, 55], [37], [13, 35],
                [10], [0, 5, 6, 9, 15, 19, 21, 29, 35, 40, 57, 58],
                [0, 2, 8, 9, 10, 11, 15, 16, 20, 24, 28, 30, 31, 32, 43, 45, 49],
                [0, 1, 3, 5, 9, 12, 17, 20, 21, 24, 26, 27, 28, 29, 30, 31, 33, 35, 38, 39,
                 40, 41, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 55, 56, 57, 58, 59],
                [0, 5, 29, 32, 45]],
    "widths": [54, 52, 2, 62, 4, 2, 4, 2, 62, 72, 154, 48],
    "hub_sets": [[0, 4, 5, 9, 18, 21, 25, 28, 29, 33, 34, 40, 49],
                [0, 4, 6, 13, 17, 18, 24, 30, 31, 38, 39],
                [0, 1, 5, 6, 7, 16, 19, 20, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 35, 36,
                 37, 38, 39, 40, 41, 42, 44, 46, 48, 49, 50, 51, 53, 54, 56, 58],
                [0, 1, 5, 6, 9, 14, 15, 18, 19, 20, 23, 24, 25, 26, 28, 29, 30, 31, 32, 33, 35,
                 36, 38, 39, 40, 43, 45, 46, 47, 49, 51, 55, 57, 58, 59]],
    "virtual_sets": [[3], [0, 1, 3, 4, 6, 7, 8], [0, 2, 5, 6, 8], [0, 3, 7],
                     [0, 1, 2, 3, 4, 5, 6, 7, 8], [1, 4, 5], [4, 7],
                     [0, 1, 2, 3, 4, 6, 7, 8]],
}


def test_skip_hub_draws_golden():
    assert _skip_hub_observed() == SKIP_HUB_GOLDEN
