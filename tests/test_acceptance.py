"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Every criterion is deterministic under its frozen seeds.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest
from scipy import stats as sps

from conftest import (node_rows, random_concave_table, random_graph, random_instance,
                      sweep_monotone_dr)

from limax.budgets import PartitionedBudget, TotalBudget, is_feasible
from limax.cli import ScenarioSpec, build_scenario, run_experiment
from limax.graph import assign_weighted_cascade, gen_erdos_renyi, write_edge_list
from limax.immprr import (GreedyState, lgreedy, lgreedy_delta, make_imm_params,
                          run_immprr)
from limax.immvsn import (VirtualNodeId, build_augmented, run_immvsn,
                          simulate_spread_virtual_seeds)
from limax.oracles import (LiveEdgeEnumeration, exact_opt, simulate_spread_mix)
from limax.rng import stream
from limax.rrset import g_hat, generate_collection
from limax.strategy import (IndependentActivation, LatticeConfig, StrategyMix)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1 ---------------------------------------------------------------------------

def test_01_oracle_agreement():
    """Mean of the RR estimate over 200 independent collections agrees with
    the exact oracle within 3 standard errors, on 50 random instances x 10
    lattice points."""
    t0 = time.perf_counter()
    violations = 0
    checks = 0
    for i in range(50):
        gen = np.random.default_rng(9000 + i)
        inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=3)
        enum = LiveEdgeEnumeration(inst.graph, inst.params)
        colls = [generate_collection(inst.graph, inst.params, inst.model, 1000,
                                     stream(9100 + i, c)) for c in range(200)]
        for _ in range(10):
            x = gen.integers(0, inst.lattice.budget_steps + 1,
                             size=inst.lattice.d)
            exact = enum.spread_given_h(inst.model.h_all(x))
            vals = np.array([g_hat(c, inst.model, x) for c in colls])
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            checks += 1
            if abs(vals.mean() - exact) > 3 * se + 1e-9:
                violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, "oracle agreement", violations == 0 and elapsed < 300,
             f"{checks} checks, {violations} outside 3se, {elapsed:.0f}s")


# -- 2 ---------------------------------------------------------------------------

def test_02_approximation_guarantee():
    """Both solvers reach (1 - 1/e - 0.3) * OPT in at least 95 of 100 seeded
    runs on exhaustively solvable instances."""
    t0 = time.perf_counter()
    target = 1 - 1 / math.e - 0.3
    ok_prr = ok_vsn = total = 0
    inst_id = gen_seed = 0
    while total < 100:
        gen = np.random.default_rng(5000 + gen_seed)
        gen_seed += 1
        inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=3)
        cons = TotalBudget(inst.lattice.budget_steps)
        _, opt = exact_opt(inst.graph, inst.params, inst.model, inst.lattice, cons)
        if opt < 0.05:
            continue
        enum = LiveEdgeEnumeration(inst.graph, inst.params)
        imm = make_imm_params(inst.graph.n, inst.lattice,
                              inst.lattice.budget_steps, 0.3, 1.0)
        for s in range(5):
            mix_p = run_immprr(inst.graph, inst.params, inst.model, inst.lattice,
                               cons, imm, stream(6000 + inst_id, s)).mix
            mix_v = run_immvsn(inst.graph, inst.params, inst.model, inst.lattice,
                               cons, imm, stream(7000 + inst_id, s)).mix
            if enum.spread_given_h(inst.model.h_all(mix_p.steps)) >= target * opt:
                ok_prr += 1
            if enum.spread_given_h(inst.model.h_all(mix_v.steps)) >= target * opt:
                ok_vsn += 1
            total += 1
        inst_id += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, "approximation ratio",
             ok_prr >= 95 and ok_vsn >= 95 and elapsed < 600,
             f"prr {ok_prr}/100, vsn {ok_vsn}/100, {elapsed:.0f}s")


# -- 3 ---------------------------------------------------------------------------

def test_03_delta_equivalence():
    """The list-walking greedy equals the plain greedy on the estimate exactly,
    and every marginal matches the naive difference within 1e-9."""
    worst = 0.0
    mismatches = 0
    for i in range(100):
        gen = np.random.default_rng(11_000 + i)
        inst = random_instance(gen, n_max=8, m_max=10, d_max=3, steps_max=4)
        coll = generate_collection(inst.graph, inst.params, inst.model, 120,
                                   stream(11_500 + i, 0))
        cons = TotalBudget(inst.lattice.budget_steps)
        state = GreedyState(coll, inst.model, inst.lattice, cons)
        eye = np.eye(inst.lattice.d, dtype=np.int64)
        for _ in range(inst.lattice.budget_steps):
            base = g_hat(coll, inst.model, state.x)
            gains = []
            for j in range(inst.lattice.d):
                naive = g_hat(coll, inst.model, state.x + eye[j]) - base
                delta = state.marginal(j)
                worst = max(worst, abs(naive - delta))
                gains.append(delta)
            state.advance(int(np.argmax(gains)))
        fast = lgreedy_delta(coll, inst.model, inst.lattice, cons)
        plain = lgreedy(lambda s: g_hat(coll, inst.model, s), inst.lattice, cons)
        if fast != plain:
            mismatches += 1
    _verdict(3, "delta greedy equivalence",
             mismatches == 0 and worst <= 1e-9,
             f"100 instances, worst marginal dev {worst:.2e}")


# -- 4 ---------------------------------------------------------------------------

def test_04_reduction_fidelity():
    """Spread of a mix under lattice semantics equals the spread of its prefix
    virtual seeds in the augmented graph, within 3 standard errors at 1e5
    Monte-Carlo runs, for 20 fixed mixes."""
    bad = 0
    for i in range(20):
        gen = np.random.default_rng(12_000 + i)
        inst = random_instance(gen, n_max=6, m_max=8, d_max=2, steps_max=2)
        aug = build_augmented(inst.graph, inst.params, inst.model, inst.lattice)
        x = StrategyMix(gen.integers(0, inst.lattice.budget_steps + 1,
                                     size=inst.lattice.d))
        seeds = [VirtualNodeId(j, t)
                 for j in range(inst.lattice.d)
                 for t in range(1, int(x.steps[j]) + 1)]
        lim = simulate_spread_mix(inst.graph, inst.params, inst.model, x,
                                  100_000, stream(12_600 + i, 0))
        via = simulate_spread_virtual_seeds(aug, seeds, 100_000,
                                            stream(12_600 + i, 1))
        if abs(lim.mean - via.mean) > 3 * math.hypot(lim.se, via.se) + 1e-9:
            bad += 1
    _verdict(4, "virtual-node reduction fidelity", bad == 0,
             f"20 mixes, {bad} outside 3se")


# -- 5 ---------------------------------------------------------------------------

def test_05_prefix_dominance():
    """For concave curves the prefix of each size maximizes the exact
    activation probability over all same-size virtual seed subsets (K <= 5,
    exhaustive)."""
    bad = 0
    for i in range(30):
        gen = np.random.default_rng(13_000 + i)
        K = int(gen.integers(2, 6))
        row = random_concave_table(gen, K)
        weights = np.diff(row)
        for size in range(1, K + 1):
            prefix = weights[:size].sum()
            for combo in itertools.combinations(range(K), size):
                if weights[list(combo)].sum() > prefix + 1e-12:
                    bad += 1
    _verdict(5, "prefix dominance", bad == 0, "30 curves, sizes exhaustive")


# -- 6 ---------------------------------------------------------------------------

def test_06_sampler_distribution():
    """The hybrid RR kernel's arm sampler follows the analytic categorical
    law (chi-square p > 0.01 at 1e5 draws, 20 random curves): one call of
    ``aug.draw_arms`` draws a node's 1e5 arms, as the kernel draws a batch's."""
    from limax.graph import from_edges, uniform_ic
    rejections = 0
    for i in range(20):
        gen = np.random.default_rng(14_000 + i)
        K = int(gen.integers(2, 7))
        row = random_concave_table(gen, K, total_cap=0.85)
        lat = LatticeConfig(d=2, delta=1.0, budget_steps=K)
        graph = from_edges(1, [])
        model = IndependentActivation(1, lat, [0], [0], row[None, :])
        aug = build_augmented(graph, uniform_ic(graph, 0.5), model, lat)
        draws = 100_000
        _, flats = aug.draw_arms(np.zeros(draws, np.int64), stream(14_500 + i, 0))
        counts = np.append(np.bincount(flats, minlength=K), draws - len(flats))
        probs = np.concatenate((np.diff(row), [1.0 - row[-1]]))
        _, p = sps.chisquare(counts, probs * draws)
        if p <= 0.01:
            rejections += 1
    _verdict(6, "arm sampler distribution", rejections == 0,
             f"20 chi-square tests, {rejections} rejected")


# -- 7 ---------------------------------------------------------------------------

def test_07_submodularity_sweeps():
    """Node activation, the RR estimate, and the exact spread are monotone
    with diminishing returns over the full lattice box (d <= 3, K <= 4) on
    50 random instances."""
    mono = dr = 0
    for i in range(50):
        gen = np.random.default_rng(15_000 + i)
        inst = random_instance(gen, n_max=6, m_max=8, d_max=3, steps_max=4,
                               extra_steps=1)
        bound = inst.lattice.budget_steps - 1
        d = inst.lattice.d
        touched = [v for v in range(inst.graph.n)
                   if len(node_rows(inst.model, v)[0])][:2]
        for v in touched:
            m, s = sweep_monotone_dr(lambda st: inst.model.h(v, st), d, bound)
            mono += m
            dr += s
        coll = generate_collection(inst.graph, inst.params, inst.model, 150,
                                   stream(15_500 + i, 0))
        m, s = sweep_monotone_dr(lambda st: g_hat(coll, inst.model, st), d, bound)
        mono += m
        dr += s
        enum = LiveEdgeEnumeration(inst.graph, inst.params)
        m, s = sweep_monotone_dr(
            lambda st: enum.spread_given_h(inst.model.h_all(st)), d, bound)
        mono += m
        dr += s
    _verdict(7, "monotonicity and diminishing returns", mono == 0 and dr == 0,
             f"50 instances, {mono} monotonicity / {dr} DR violations")


# -- 8 ---------------------------------------------------------------------------

def test_08_partitioned_budgets():
    """Partitioned greedy respects every group cap and reaches
    (1/2 - 0.1) * OPT in at least 95 of 100 runs."""
    hits = total = infeasible = 0
    inst_id = gen_seed = 0
    while total < 100:
        gen = np.random.default_rng(16_000 + gen_seed)
        gen_seed += 1
        n = int(gen.integers(4, 8))
        m = int(gen.integers(4, 10))
        graph, params = random_graph(gen, n, m)
        caps = (int(gen.integers(1, 3)), int(gen.integers(1, 3)))
        lat = LatticeConfig(d=4, delta=1.0, budget_steps=sum(caps))
        nodes, strategies, tables = [], [], []
        for v in range(n):
            cnt = int(gen.integers(0, 3))
            for j in np.sort(gen.choice(4, size=cnt, replace=False)):
                nodes.append(v)
                strategies.append(j)
                tables.append(random_concave_table(gen, lat.budget_steps))
        model = IndependentActivation(n, lat, nodes, strategies,
                                      np.reshape(tables, (-1, lat.budget_steps + 1)))
        cons = PartitionedBudget(groups=[(0, 1), (2, 3)], caps=caps)
        _, opt = exact_opt(graph, params, model, lat, cons)
        if opt < 0.05:
            continue
        enum = LiveEdgeEnumeration(graph, params)
        imm = make_imm_params(n, lat, sum(caps), 0.3, 1.0)
        for s in range(2):
            for runner, key in ((run_immprr, 16_100), (run_immvsn, 16_200)):
                mix = runner(graph, params, model, lat, cons, imm,
                             stream(key + inst_id, s)).mix
                if not is_feasible(mix, cons):
                    infeasible += 1
                if enum.spread_given_h(model.h_all(mix.steps)) >= 0.4 * opt:
                    hits += 1
                total += 1
                if total == 100:
                    break
            if total == 100:
                break
        inst_id += 1
    _verdict(8, "partitioned budgets", infeasible == 0 and hits >= 95,
             f"{hits}/100 above (1/2 - 0.1) OPT, {infeasible} cap violations")


# -- 9 and 10 share one synthetic segmented-event instance -----------------------

@pytest.fixture(scope="module")
def big_instance():
    graph = gen_erdos_renyi(10_000, 50_000, stream(90, 0))
    params = assign_weighted_cascade(graph)
    spec = ScenarioSpec(name="segmented_event", delta=1.0, max_budget_steps=50,
                        d=200, top=2000, r_max=0.3)
    model, lattice = build_scenario(graph, spec, stream(90, 1))
    return graph, params, model, lattice


def test_09_performance_trend(big_instance):
    """On the n=1e4 segmented-event instance (k=50, eps=0.5) the virtual-node
    solver is no slower than the partial-coverage solver; both finish well
    under 10 minutes."""
    graph, params, model, lattice = big_instance
    cons = TotalBudget(50)
    imm = make_imm_params(graph.n, lattice, 50, 0.5, 1.0)
    # each solver's time is the median of three alternating solves on the
    # same streams, so one host stall cannot decide the comparison
    times_v, times_p = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        res_v = run_immvsn(graph, params, model, lattice, cons, imm, stream(90, 2))
        times_v.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        res_p = run_immprr(graph, params, model, lattice, cons, imm, stream(90, 3))
        times_p.append(time.perf_counter() - t0)
    t_vsn, t_prr = statistics.median(times_v), statistics.median(times_p)
    assert res_v.mix.total_steps == 50 and res_p.mix.total_steps == 50
    # the two solvers should also land on mixes of comparable quality
    est_v = simulate_spread_mix(graph, params, model, res_v.mix, 4000, stream(90, 4))
    est_p = simulate_spread_mix(graph, params, model, res_p.mix, 4000, stream(90, 5))
    gap_ok = abs(est_v.mean - est_p.mean) <= \
        0.05 * max(est_v.mean, est_p.mean) + 2 * math.hypot(est_v.se, est_p.se)
    _verdict(9, "virtual-node speedup", t_vsn <= t_prr and max(t_vsn, t_prr) < 600
             and gap_ok,
             f"immvsn {t_vsn:.3f}s vs immprr {t_prr:.3f}s, "
             f"spreads {est_v.mean:.0f}/{est_p.mean:.0f}, "
             f"theta {res_v.stats.theta}/{res_p.stats.theta}")


def test_10_spread_monotonicity(big_instance):
    """Evaluated spread of the virtual-node solver is nondecreasing in the
    budget k in {5, ..., 50} within one standard error."""
    graph, params, model, lattice = big_instance
    means, ses = [], []
    for i, k in enumerate(range(5, 55, 5)):
        imm = make_imm_params(graph.n, lattice, k, 0.5, 1.0)
        mix = run_immvsn(graph, params, model, lattice, TotalBudget(k), imm,
                         stream(91, i)).mix
        est = simulate_spread_mix(graph, params, model, mix, 8000, stream(92, i))
        means.append(est.mean)
        ses.append(est.se)
    drops = sum(1 for a, b, sa, sb in zip(means, means[1:], ses, ses[1:])
                if b < a - math.hypot(sa, sb))
    _verdict(10, "spread nondecreasing in k", drops == 0,
             "spreads " + " ".join(f"{m:.0f}" for m in means))


# -- 11 ---------------------------------------------------------------------------

def test_11_determinism(tmp_path):
    """A fixed master seed makes the full experiment CSV byte-identical
    across two runs, with every algorithm in the grid."""
    graph = gen_erdos_renyi(30, 90, stream(17_000, 0))
    gpath = tmp_path / "g.txt"
    write_edge_list(str(gpath), graph)
    cfg = {
        "dataset": "accept",
        "graph": {"path": str(gpath)},
        "params": "weighted_cascade",
        "scenario": "personalized",
        "delta": 0.1,
        "budgets": [0.5, 1.0],
        "algorithms": ["immvsn", "immprr", "ud", "cd", "hd", "mclg"],
        "epsilon": 0.5,
        "ell": 1.0,
        "seed": 99,
        "eval_runs": 300,
        "time_reps": 0,
        "baseline_theta": 400,
        "mclg_sims": 30,
        "hd_nodes": 10,
    }
    r1 = run_experiment(cfg)
    r2 = run_experiment(dict(cfg))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.write_csv(str(p1))
    r2.write_csv(str(p2))
    same = p1.read_bytes() == p2.read_bytes()
    _verdict(11, "seeded determinism",
             same and not r1.errors and len(r1.rows) == 12,
             f"{len(r1.rows)} cells, errors {r1.errors}")
