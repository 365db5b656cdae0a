"""Both solvers' outputs on the benchmark's nine graphs, pinned.

The benchmark solves each workload of ``bench/workloads.py`` on the graphs
``generate(w, [seed, j])``, j = 0-2.  This test builds those graphs for seed
1, sets each one up as the benchmark does (load, parameters, scenario from
stream (1, 0)), and solves it with ``run_immvsn`` and ``run_immprr``, each
from a fresh copy of one fixed solver stream.  theta, the stage counts and
the mixes are compared exactly with the literal below, the lower bound to a
relative 1e-9.  A change that moves any benchmark output, the speed metrics
aside, shows up here first.

The test prints one digest line, ``[bench pin] ...``, a hash of the exactly
compared values, so that two hosts can be compared at a glance:

    python -m pytest -q -s tests/test_bench_pin.py | grep "\\[bench pin\\]"
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, generate  # noqa: E402

from limax.budgets import TotalBudget  # noqa: E402
from limax.cli import ScenarioSpec, build_scenario  # noqa: E402
from limax.graph import (assign_weighted_cascade, load_edge_list,  # noqa: E402
                         params_from_edge_values)
from limax.immprr import make_imm_params, run_immprr  # noqa: E402
from limax.immvsn import run_immvsn  # noqa: E402
from limax.rng import stream  # noqa: E402

SEED = 1
GRAPHS = 3
SOLVERS = {"immvsn": run_immvsn, "immprr": run_immprr}


def _setup(w, path):
    graph = load_edge_list(path)
    if w.params == "weighted_cascade":
        params = assign_weighted_cascade(graph)
    else:
        params = params_from_edge_values(graph, "LT" if w.params == "lt_file" else "IC")
    spec = ScenarioSpec(name=w.scenario, delta=w.delta, max_budget_steps=w.budget_steps,
                        d=w.d, top=w.top, r_max=w.r_max)
    model, lattice = build_scenario(graph, spec, stream(SEED, 0))
    return graph, params, model, lattice


def _observed(tmp_path) -> dict:
    """Per workload, graph and solver: theta, stages run, hit stage, LB
    and the mix as {strategy: steps} over its nonzero coordinates."""
    out = {}
    for name, w in WORKLOADS.items():
        for j in range(GRAPHS):
            path = tmp_path / f"{name}-{j}.txt"
            generate(w, [SEED, j], str(path))
            graph, params, model, lattice = _setup(w, str(path))
            imm = make_imm_params(graph.n, lattice, w.budget_steps, w.epsilon, w.ell)
            for solver, run in SOLVERS.items():
                res = run(graph, params, model, lattice, TotalBudget(w.budget_steps),
                          imm, stream(SEED, 1))
                steps = res.mix.steps
                out[f"{name}/{j}/{solver}"] = {
                    "theta": res.stats.theta, "stages_run": res.stats.stages_run,
                    "hit_stage": res.stats.hit_stage, "lb": res.stats.lower_bound,
                    "mix": {int(v): int(steps[v]) for v in steps.nonzero()[0]}}
            path.unlink()
    return out


def _digest(observed: dict) -> str:
    exact = {key: {k: v for k, v in rec.items() if k != "lb"}
             for key, rec in observed.items()}
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()[:16]


PINNED = {
    "er_ic_segmented/0/immvsn": {
        "theta": 23279, "stages_run": 4, "hit_stage": 4, "lb": 1098.1451152557297,
        "mix": {4: 1, 14: 1, 17: 1, 20: 1, 23: 1, 33: 1, 37: 1, 39: 2, 42: 1, 43: 1,
                52: 1, 57: 1, 67: 2, 70: 1, 71: 2, 73: 1, 79: 1, 82: 1, 85: 1, 86: 2,
                90: 1, 110: 1, 112: 2, 117: 1, 124: 1, 127: 1, 130: 1, 137: 2, 138: 2,
                148: 1, 150: 1, 160: 1, 161: 3, 165: 1, 176: 2, 184: 1, 188: 1, 190: 1,
                194: 1, 198: 1}},
    "er_ic_segmented/0/immprr": {
        "theta": 23279, "stages_run": 4, "hit_stage": 4, "lb": 1075.3489631304717,
        "mix": {1: 1, 7: 1, 20: 2, 34: 1, 37: 2, 39: 2, 43: 1, 67: 2, 70: 1, 71: 1,
                73: 1, 79: 1, 82: 1, 85: 1, 86: 1, 90: 1, 93: 1, 100: 1, 112: 3, 113: 1,
                124: 1, 128: 1, 130: 1, 137: 2, 138: 2, 148: 1, 160: 2, 161: 2, 165: 2,
                176: 2, 178: 1, 184: 1, 187: 1, 189: 1, 194: 2, 198: 1, 199: 1}},
    "er_ic_segmented/1/immvsn": {
        "theta": 23279, "stages_run": 4, "hit_stage": 4, "lb": 1111.230254117622,
        "mix": {1: 1, 7: 2, 16: 1, 20: 2, 37: 2, 39: 3, 67: 1, 70: 1, 71: 1, 82: 1,
                85: 1, 86: 1, 90: 1, 93: 1, 97: 1, 110: 1, 112: 3, 113: 1, 116: 1,
                124: 1, 128: 3, 130: 1, 131: 1, 135: 1, 137: 2, 138: 2, 145: 2, 160: 1,
                161: 2, 170: 1, 176: 1, 177: 1, 178: 1, 183: 1, 191: 1, 194: 1,
                198: 1}},
    "er_ic_segmented/1/immprr": {
        "theta": 23279, "stages_run": 4, "hit_stage": 4, "lb": 1087.6385513520431,
        "mix": {1: 1, 7: 1, 14: 1, 18: 1, 20: 1, 30: 1, 34: 1, 37: 3, 39: 3, 67: 1,
                70: 1, 71: 2, 85: 1, 86: 1, 90: 2, 93: 1, 100: 1, 105: 1, 109: 1,
                112: 3, 113: 1, 124: 1, 128: 2, 130: 1, 132: 1, 137: 2, 138: 2, 145: 1,
                156: 1, 161: 2, 176: 1, 178: 1, 183: 1, 189: 1, 194: 2, 198: 2}},
    "er_ic_segmented/2/immvsn": {
        "theta": 23279, "stages_run": 4, "hit_stage": 4, "lb": 1109.7204304027882,
        "mix": {23: 2, 26: 1, 33: 1, 34: 1, 37: 1, 39: 2, 41: 1, 54: 1, 67: 1, 70: 3,
                71: 1, 73: 1, 74: 1, 85: 2, 90: 1, 93: 1, 100: 1, 102: 2, 105: 1,
                112: 2, 116: 2, 123: 1, 128: 2, 135: 1, 138: 3, 140: 2, 145: 1, 160: 1,
                161: 1, 165: 1, 176: 1, 181: 1, 185: 1, 187: 1, 191: 1, 194: 2,
                198: 1}},
    "er_ic_segmented/2/immprr": {
        "theta": 23279, "stages_run": 4, "hit_stage": 4, "lb": 1077.5860550196226,
        "mix": {1: 1, 4: 1, 20: 1, 23: 2, 26: 1, 39: 2, 44: 1, 54: 1, 57: 1, 67: 3,
                70: 4, 71: 1, 82: 1, 90: 1, 93: 1, 106: 1, 112: 2, 128: 2, 129: 1,
                132: 1, 135: 1, 137: 1, 138: 3, 140: 1, 150: 1, 160: 1, 161: 2, 164: 1,
                176: 2, 181: 1, 183: 1, 185: 1, 187: 1, 189: 1, 194: 2, 198: 1}},
    "er_lt_personalized/0/immvsn": {
        "theta": 7441, "stages_run": 2, "hit_stage": 2, "lb": 279.445010346979,
        "mix": {7: 1, 22: 3, 42: 1, 61: 1, 94: 3, 106: 2, 109: 2, 117: 5, 121: 1,
                163: 1, 180: 1, 189: 1, 196: 1, 258: 1, 286: 1, 294: 2, 305: 2, 335: 1,
                336: 5, 344: 2, 456: 1, 514: 1, 629: 1, 657: 1, 661: 1, 737: 3, 746: 1,
                777: 4}},
    "er_lt_personalized/0/immprr": {
        "theta": 7686, "stages_run": 2, "hit_stage": 2, "lb": 270.5490342085326,
        "mix": {22: 4, 42: 1, 46: 2, 61: 1, 94: 2, 106: 2, 109: 2, 117: 5, 189: 1,
                229: 1, 294: 3, 336: 5, 339: 3, 344: 3, 484: 1, 531: 1, 539: 2, 629: 1,
                657: 1, 661: 1, 737: 3, 746: 1, 777: 4}},
    "er_lt_personalized/1/immvsn": {
        "theta": 7530, "stages_run": 2, "hit_stage": 2, "lb": 276.13875135091916,
        "mix": {15: 1, 29: 4, 31: 1, 60: 1, 83: 4, 115: 1, 150: 2, 180: 1, 185: 1,
                220: 1, 264: 2, 281: 2, 346: 1, 355: 1, 367: 1, 402: 2, 409: 2, 415: 1,
                460: 2, 471: 3, 488: 3, 572: 1, 602: 2, 624: 3, 627: 1, 700: 1, 755: 1,
                763: 1, 790: 3}},
    "er_lt_personalized/1/immprr": {
        "theta": 7746, "stages_run": 2, "hit_stage": 2, "lb": 268.4455975570473,
        "mix": {15: 2, 29: 5, 45: 1, 49: 1, 83: 3, 150: 1, 180: 1, 220: 1, 257: 2,
                264: 1, 281: 3, 402: 2, 409: 3, 460: 3, 471: 3, 488: 3, 572: 2, 602: 2,
                624: 4, 700: 2, 755: 1, 790: 4}},
    "er_lt_personalized/2/immvsn": {
        "theta": 7480, "stages_run": 2, "hit_stage": 2, "lb": 277.9902563887127,
        "mix": {46: 2, 61: 2, 68: 1, 159: 3, 183: 3, 184: 1, 199: 1, 231: 3, 237: 2,
                246: 1, 262: 1, 284: 1, 348: 1, 377: 1, 394: 1, 438: 6, 448: 3, 474: 1,
                515: 1, 546: 2, 580: 1, 601: 1, 616: 1, 646: 1, 651: 1, 728: 4, 778: 1,
                783: 1, 787: 2}},
    "er_lt_personalized/2/immprr": {
        "theta": 7705, "stages_run": 2, "hit_stage": 2, "lb": 269.86854420666566,
        "mix": {46: 2, 61: 2, 159: 3, 183: 3, 231: 5, 237: 1, 262: 1, 284: 1, 340: 2,
                348: 2, 377: 1, 438: 7, 448: 4, 474: 1, 515: 3, 546: 2, 646: 1, 666: 2,
                728: 4, 783: 1, 787: 2}},
    "hub_ic_file/0/immvsn": {
        "theta": 6237, "stages_run": 2, "hit_stage": 2, "lb": 1809.1504812566388,
        "mix": {26: 1, 36: 14, 45: 13, 51: 11, 86: 1, 178: 10}},
    "hub_ic_file/0/immprr": {
        "theta": 6257, "stages_run": 2, "hit_stage": 2, "lb": 1803.557226895678,
        "mix": {36: 14, 45: 13, 51: 12, 178: 11}},
    "hub_ic_file/1/immvsn": {
        "theta": 6422, "stages_run": 2, "hit_stage": 2, "lb": 1757.055849003512,
        "mix": {71: 16, 83: 12, 149: 22}},
    "hub_ic_file/1/immprr": {
        "theta": 6422, "stages_run": 2, "hit_stage": 2, "lb": 1757.0434148168774,
        "mix": {71: 16, 83: 12, 149: 22}},
    "hub_ic_file/2/immvsn": {
        "theta": 6966, "stages_run": 2, "hit_stage": 2, "lb": 1619.9913311336354,
        "mix": {66: 26, 113: 10, 119: 14}},
    "hub_ic_file/2/immprr": {
        "theta": 7002, "stages_run": 2, "hit_stage": 2, "lb": 1611.6348535842958,
        "mix": {66: 26, 113: 12, 119: 12}},
}


def test_bench_outputs_pinned(tmp_path):
    observed = _observed(tmp_path)
    print(f"\n[bench pin] {len(observed)} solves, digest {_digest(observed)} "
          f"(pinned {_digest(PINNED)})")
    shown = json.dumps(observed, indent=1, sort_keys=True)
    assert observed.keys() == PINNED.keys(), shown
    for key, rec in observed.items():
        pin = PINNED[key]
        assert {k: v for k, v in rec.items() if k != "lb"} \
            == {k: v for k, v in pin.items() if k != "lb"}, f"{key} moved; observed:\n{shown}"
        assert math.isclose(rec["lb"], pin["lb"], rel_tol=1e-9), \
            f"{key} lower bound moved; observed:\n{shown}"
