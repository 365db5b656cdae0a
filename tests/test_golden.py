"""Golden values that pin the random-draw order of every sampler.

A small fixed instance is solved and sampled at fixed streams, under IC and
under LT, and the outputs are compared with literal values.  Any change to
the order in which the reverse BFS, the hybrid arm draws, the LT pick or the
forward cascade consume uniforms shows up here as a changed RR set, mix or
spread, even when the distributions stay correct.
"""

import numpy as np
import pytest

from limax.budgets import TotalBudget
from limax.graph import (IC, LT, TriggeringParams, gen_erdos_renyi,
                         sample_triggering_set)
from limax.immprr import make_imm_params, run_immprr
from limax.immvsn import (build_augmented, generate_hybrid_collection,
                          run_immvsn)
from limax.oracles import simulate_spread_mix
from limax.rng import RandomBuffer, stream
from limax.rrset import generate_collection
from limax.strategy import (IndependentActivation, LatticeConfig,
                            multi_event_table)

SEED = 4242
N, M = 12, 36


def _instance(kind):
    graph = gen_erdos_renyi(N, M, stream(SEED, 0))
    vals = stream(SEED, 1)
    rows = []
    for a in graph.in_neighbors:
        w = vals.uniform(0.1, 1.0, size=len(a))
        if kind == LT and len(a):
            w *= 0.9 / w.sum()
        rows.append(w)
    params = TriggeringParams.build(graph, kind, rows)
    lat = LatticeConfig(d=3, delta=1.0, budget_steps=3)
    strategies, tables = [], []
    for v in range(N):
        js = [v % 3] + ([(v + 1) % 3] if v % 4 == 0 else [])
        strategies.append(np.array(js))
        tables.append(np.vstack([multi_event_table(0.1 + 0.05 * v + 0.1 * t, lat)
                                 for t in range(len(js))]))
    model = IndependentActivation(N, lat, strategies, tables)
    return graph, params, model, lat


def _observed(kind):
    graph, params, model, lat = _instance(kind)
    key = 0 if kind == IC else 1
    coll = generate_collection(graph, params, model, 12, stream(SEED, 10, key))
    aug = build_augmented(graph, params, model, lat)
    hybrid = generate_hybrid_collection(aug, 12, stream(SEED, 11, key))
    buf = RandomBuffer(stream(SEED, 12, key))
    triggering = [sorted(sample_triggering_set(graph, params, v, buf))
                  for v in range(N)]
    constraint = TotalBudget(3)
    imm = make_imm_params(N, lat, 3, 0.5, 1.0)
    prr = run_immprr(graph, params, model, lat, constraint, imm, stream(SEED, 13, key))
    vsn = run_immvsn(graph, params, model, lat, constraint, imm, stream(SEED, 14, key))
    # 40 runs take the scalar cascade, 64 the vectorized small-instance path
    spreads = [simulate_spread_mix(graph, params, model, prr.mix, runs,
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


GOLDEN = {
    IC: {
        "members": [[0, 1, 2, 3, 4, 6, 7, 9, 10, 11], [3, 9],
                    [0, 1, 3, 4, 6, 7, 8, 9, 10, 11], [0, 3, 4, 7, 9, 10, 11], [10],
                    [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11], [5, 6], [2, 9],
                    [1, 2, 3, 4, 5, 6, 7, 10, 11], [0, 1, 2, 3, 4, 6, 7, 9, 10, 11],
                    [9], [1, 6, 7, 11]],
        "widths": [31, 3, 30, 22, 1, 34, 5, 5, 24, 31, 1, 14],
        "hybrid_theta": 12,
        "virtual_sets": [[0, 3, 5, 6, 7], [1, 2, 3, 4, 6, 7, 8], [0], [0, 3, 5, 7, 8],
                         [0, 2, 3, 6, 7], [0, 1, 3, 4, 6], [0, 1, 4, 7], [0, 5, 6, 7],
                         [1, 5, 6, 7], [1], [0, 2, 3, 6]],
        "triggering": [[3, 4, 7, 9, 10], [], [], [], [], [6], [4], [], [4], [3], [11], [7]],
        "immprr": ([2, 1, 0], 478),
        "immvsn": ([1, 1, 1], 459),
        "spreads": [9.65, 9.765625],
    },
    LT: {
        "members": [[1, 7, 10, 11], [5, 6, 7, 10, 11], [0, 2, 4, 5, 6], [3, 11], [4, 8],
                    [2, 4, 6, 8], [0, 1, 3, 6, 7, 9, 10, 11], [0, 2, 3, 4, 6, 10, 11],
                    [3, 6, 10, 11], [0, 2, 3, 4, 6, 7, 9, 11], [0, 2, 3, 10, 11],
                    [3, 6, 10, 11]],
        "widths": [12, 15, 18, 6, 4, 11, 26, 23, 10, 28, 19, 10],
        "hybrid_theta": 12,
        "virtual_sets": [[0, 3], [3], [1, 3, 6, 8], [0, 6], [0, 5, 7], [0, 5],
                         [0, 3, 4, 6, 7], [1, 4, 6], [3, 4, 6], [0], [0, 6], [1, 3, 7]],
        "triggering": [[], [8], [5], [10], [2], [6], [], [1], [1], [3], [11], [0]],
        "immprr": ([0, 1, 2], 438),
        "immvsn": ([1, 0, 2], 428),
        "spreads": [9.25, 9.9375],
    },
}


@pytest.mark.parametrize("kind", [IC, LT])
def test_draw_order_golden(kind):
    assert _observed(kind) == GOLDEN[kind]
