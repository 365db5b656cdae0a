"""limax benchmark: one seeded workload, timed end to end or per layer.

    python3 bench/run.py --workload er_ic_segmented --seed 1 --seconds 20 --trace 0

The workload's edge list is generated from ``--seed`` into ``.bench_work/``;
the program then sees only that file and the workload's config values, and
is driven through its public API the way ``limax run`` drives one budget
cell of ``algorithms: [immvsn, immprr]``: load, build parameters, build the
scenario, solve with ``run_immvsn`` and ``run_immprr``, and evaluate both
mixes with ``simulate_spread_mix``.  All calls run one after another in this
process (a closed loop with one caller and no worker threads).

``--trace 0`` repeats that cycle, on each of the run's graphs in turn, for
about ``--seconds`` seconds (at least once, with at least nine set-ups) and
reports medians of the end-to-end metrics.  Its timings are in reference
seconds (see ``HostSpeed``): each timed call's wall time, scaled by the
host's speed measured before, during and after it.
``--trace 1`` runs one untraced and one traced cycle, then times the public
calls of each layer on their own (see ``probe_layers``), and reports the
per-layer metrics in wall seconds; its spans go to
``.bench_work/<workload>-<seed>-spans.jsonl``.

Both modes check the outputs (see ``check_outputs``) and print, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The process exits non-zero if the program cannot be imported
or an operation raises.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from limax import (GreedyState, RRCollection, SpreadEstimate,  # noqa: E402
                   TotalBudget, assign_weighted_cascade, build_augmented,
                   generate_collection, g_hat, lgreedy_delta, load_edge_list,
                   make_imm_params, node_selection_virtual, run_immprr,
                   run_immvsn, sampling, simulate_spread_mix, stream,
                   validate_model)
from limax.cli import ScenarioSpec, build_scenario  # noqa: E402
from limax.graph import params_from_edge_values  # noqa: E402
from limax.immvsn import generate_hybrid_collection  # noqa: E402
from limax.rrset import RRSet  # noqa: E402

from workloads import WORKLOADS, Workload, generate  # noqa: E402

# stream keys under the workload seed; 0-2 match limax.cli's cell streams
KEY_SCENARIO, KEY_ALGO, KEY_EVAL = 0, 1, 2
KEY_CHECK_RR, KEY_HYBRID = 5, 6
MIN_SETUPS = 9
GRAPHS = 3  # edge lists per run; cycle i uses graph i mod GRAPHS
# HostSpeed's reference work: searches over a fixed random graph, and
# gathers from a table far larger than a core's L2 cache
REF_NODES, REF_OUT, REF_ROUNDS = 2000, 5, 4
REF_TABLE, REF_GATHERS = 8_000_000, 400_000
REF_PASSES = 3
PROBE_EVERY_S = 1.0  # in-call probes, on a timer signal
REF_SECONDS = 0.005  # one probe, median on the host of baseline.json
EVAL_CHUNKS = 4  # each mix is evaluated in this many equal calls
H_ALL_CALLS = 10

E2E_UNITS = {
    "setup_s": "s", "immvsn_s": "s", "immprr_s": "s",
    "eval_cascades_per_s": "1/s", "run_s": "s",
    "spread_immvsn": "nodes", "spread_immprr": "nodes",
    "peak_rss_mb": "MiB", "ops_ok_frac": "ratio",
}
LAYERS = ("graph", "strategy", "rrset", "immprr", "immvsn", "oracles")


class Aborted(RuntimeError):
    """An operation raised; the run cannot produce its metrics."""


class Ops:
    """Attempted and failed operations (set-ups, solves, evaluations, checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise Aborted(what) from exc

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Tracer:
    """Spans (name, start, end, parent, workload) kept in memory.

    A tracer with ``workload=None`` keeps nothing and only times the span it
    yields; that is the untraced mode.  Span names are ``<layer>.<call>``.
    """

    def __init__(self, workload: str | None):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload}
        if self.workload is not None:
            self._open.append(len(self.spans))
            self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.workload is not None:
                self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")


def dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


class HostSpeed:
    """Times calls in reference seconds, so that host speed drift cancels.

    On a shared host the same code runs up to 2x faster or slower in phases
    of seconds to minutes, in CPU time as much as in wall time, and a phase
    can cover a whole run, or change within a call.  So the host's speed is
    probed before and after every timed call, and every ``PROBE_EVERY_S``
    seconds during it from a ``SIGALRM`` handler, whose time is taken out of
    the call's.  Each stretch of the call between two probes is scaled by
    ``REF_SECONDS`` over the mean of those two probes: the seconds the call
    would take on a host where one probe takes ``REF_SECONDS``.

    A probe is the geometric mean of two passes that the host slows
    differently, as it does the program's parts: a randomised search over a
    small random graph (dict, set, list and random-number work in the
    interpreter, as in RR sampling) and a numpy gather from a 64 MB table
    (cache and memory traffic).  Together they track the program's calls
    better than either alone.  The reference work is the benchmark's own
    code, so a change to the program moves only the call's time.
    """

    def __init__(self):
        rng = random.Random(0)
        self._adj = [[rng.randrange(REF_NODES) for _ in range(REF_OUT)]
                     for _ in range(REF_NODES)]
        self._table = np.arange(REF_TABLE, dtype=np.int64)
        self._index = np.random.default_rng(0).integers(0, REF_TABLE, REF_GATHERS)
        self.nbytes = self._table.nbytes + self._index.nbytes
        self.probes: list[float] = []
        self._last: tuple[float, float] | None = None  # (probe, when it ended)

    def _search(self) -> float:
        rng, adj = random.Random(1), self._adj
        start = time.perf_counter()
        for root in range(REF_ROUNDS):
            seen, todo = {root}, [root]
            while todo:
                for v in adj[todo.pop()]:
                    if v not in seen and rng.random() < 0.9:
                        seen.add(v)
                        todo.append(v)
        return time.perf_counter() - start

    def _gather(self) -> float:
        start = time.perf_counter()
        int(self._table[self._index].sum())
        return time.perf_counter() - start

    def probe(self) -> float:
        """The host's current probe time (median of a few passes of each)."""
        t = math.sqrt(statistics.median(self._search() for _ in range(REF_PASSES))
                      * statistics.median(self._gather() for _ in range(REF_PASSES)))
        self.probes.append(t)
        self._last = (t, time.perf_counter())
        return t

    @contextmanager
    def timed(self):
        """Yields a dict that gets ``wall_s`` and the scaled ``s`` on exit.

        ``wall_s`` leaves out the in-call probes.  A probe that ended under
        10 ms ago (after the previous timed call) serves as this call's
        ``before``."""
        rec: dict[str, float] = {}
        recent = self._last is not None and time.perf_counter() - self._last[1] < 0.01
        marks = [(0.0, self._last[0] if recent else self.probe())]
        paused = 0.0

        def tick(signum, frame):
            nonlocal paused
            now = time.perf_counter()
            marks.append((now - start - paused, self.probe()))
            paused += time.perf_counter() - now

        old = signal.signal(signal.SIGALRM, tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield rec
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        rec["wall_s"] = time.perf_counter() - start - paused
        marks.append((rec["wall_s"], self.probe()))
        rec["s"] = REF_SECONDS * sum(
            (t1 - t0) * 2 / (p0 + p1) for (t0, p0), (t1, p1) in zip(marks, marks[1:]))


@dataclass
class Instance:
    graph: object
    params: object
    model: object
    lattice: object


@dataclass
class Cycle:
    inst: Instance
    mix_v: object
    mix_p: object
    theta_v: int
    theta_p: int
    est_v: object
    est_p: object
    times: dict  # reference seconds
    wall: dict   # the same timings in wall seconds


def build_params(w: Workload, graph):
    if w.params == "weighted_cascade":
        return assign_weighted_cascade(graph)
    return params_from_edge_values(graph, "LT" if w.params == "lt_file" else "IC")


def setup(w: Workload, path: str, seed: int, tracer: Tracer, ops: Ops) -> Instance:
    with ops.op("setup"), tracer.span("bench.setup"):
        with tracer.span("graph.load_edge_list"):
            graph = load_edge_list(path)
        with tracer.span("graph.params"):
            params = build_params(w, graph)
        with tracer.span("strategy.build_scenario"):
            spec = ScenarioSpec(name=w.scenario, delta=w.delta,
                                max_budget_steps=w.budget_steps, d=w.d,
                                top=w.top, r_max=w.r_max)
            model, lattice = build_scenario(graph, spec, stream(seed, KEY_SCENARIO))
    return Instance(graph, params, model, lattice)


def cycle(w: Workload, path: str, seed: int, i: int, tracer: Tracer, ops: Ops,
          speed: HostSpeed) -> Cycle:
    """One `limax run` cell pair: set-up, then solve and evaluate each cell.

    Cycle ``i`` of a run draws its own solver and evaluation streams, so the
    medians over a run also average over the solvers' randomness.  Like
    ``limax run``, it keeps only each solver's mix and theta, so the RR
    collections are freed before the next call.  ``run_s`` is the sum of
    the timed calls (everything in the cycle but the speed probes).
    """
    cons = TotalBudget(w.budget_steps)
    with tracer.span("bench.cycle"):
        with speed.timed() as t_setup:
            inst = setup(w, path, seed, tracer, ops)
        g, p, m, lat = inst.graph, inst.params, inst.model, inst.lattice
        with speed.timed() as t_v, ops.op("run_immvsn"), \
                tracer.span("immvsn.run_immvsn"):
            imm = make_imm_params(g.n, lat, w.budget_steps, w.epsilon, w.ell)
            res = run_immvsn(g, p, m, lat, cons, imm, stream(seed, KEY_ALGO, 0, i))
            mix_v, theta_v = res.mix, res.stats.theta
        est_v, evals_v = evaluate(w, inst, mix_v, 0, seed, i, tracer, ops, speed)
        with speed.timed() as t_p, ops.op("run_immprr"), \
                tracer.span("immprr.run_immprr"):
            imm = make_imm_params(g.n, lat, w.budget_steps, w.epsilon, w.ell)
            res = run_immprr(g, p, m, lat, cons, imm, stream(seed, KEY_ALGO, 1, i))
            mix_p, theta_p = res.mix, res.stats.theta
            del res
        est_p, evals_p = evaluate(w, inst, mix_p, 1, seed, i, tracer, ops, speed)
    timed = {"setup_s": t_setup, "immvsn_s": t_v, "immprr_s": t_p}
    evals = evals_v + evals_p
    times, wall = {}, {}
    for out, key in ((times, "s"), (wall, "wall_s")):
        out.update({name: t[key] for name, t in timed.items()})
        out["eval_chunks_s"] = [t[key] for t in evals]
        out["run_s"] = sum(out[name] for name in timed) + sum(out["eval_chunks_s"])
    return Cycle(inst, mix_v, mix_p, theta_v, theta_p, est_v, est_p, times, wall)


def evaluate(w: Workload, inst: Instance, mix, cell: int, seed: int, i: int,
             tracer: Tracer, ops: Ops,
             speed: HostSpeed) -> tuple[SpreadEstimate, list[dict]]:
    """Forward MC of one mix in EVAL_CHUNKS equal calls, so that the cascade
    rate has many short samples per run.  Returns the pooled estimate and
    each call's timing."""
    runs = w.eval_runs // EVAL_CHUNKS
    ests, timings = [], []
    for k in range(EVAL_CHUNKS):
        with speed.timed() as t, ops.op(f"eval cell {cell}"), \
                tracer.span("oracles.simulate_spread_mix"):
            ests.append(simulate_spread_mix(inst.graph, inst.params, inst.model,
                                            mix, runs, stream(seed, KEY_EVAL, cell, i, k)))
        timings.append(t)
    return SpreadEstimate(statistics.fmean(e.mean for e in ests),
                          math.hypot(*(e.se for e in ests)) / EVAL_CHUNKS,
                          runs * EVAL_CHUNKS), timings


def check_collection(c: Cycle, seed: int):
    """Independent RR collection at the immprr theta (the estimator check's
    sample, and the rrset layer's probe)."""
    inst = c.inst
    return generate_collection(inst.graph, inst.params, inst.model,
                               c.theta_p, stream(seed, KEY_CHECK_RR))


def check_outputs(w: Workload, c: Cycle, coll, ops: Ops) -> None:
    """Budget, solver agreement, and RR estimator against forward MC."""
    for name, mix in (("immvsn", c.mix_v), ("immprr", c.mix_p)):
        ops.check(mix.total_steps == w.budget_steps,
                  f"{name} mix spends {mix.total_steps} of {w.budget_steps} steps")
    ev, ep = c.est_v, c.est_p
    tol = 0.05 * max(ev.mean, ep.mean) + 2 * math.hypot(ev.se, ep.se)
    ops.check(abs(ev.mean - ep.mean) <= tol,
              f"spreads {ev.mean:.1f} vs {ep.mean:.1f} differ by more than {tol:.1f}")
    model = c.inst.model
    for name, mix, est in (("immvsn", c.mix_v, ev), ("immprr", c.mix_p, ep)):
        weights = coll.coverage_weights(model.h_all(mix.steps))
        rr_mean = g_hat(coll, model, mix)
        rr_se = coll.n * float(np.std(weights, ddof=1)) / math.sqrt(len(weights))
        bound = 4 * math.hypot(est.se, rr_se)
        ops.check(abs(rr_mean - est.mean) <= bound,
                  f"{name}: g_hat {rr_mean:.1f} vs forward MC {est.mean:.1f} "
                  f"differ by more than {bound:.1f}")


def prepare_input(w: Workload, seed: int, ops: Ops) -> list[str]:
    """The run's GRAPHS edge lists, drawn from ``seed``.  Graphs of one
    workload differ in solve cost and spread by several per cent, so a run
    measures several of them."""
    paths = []
    for j in range(GRAPHS):
        path = WORK / f"{w.name}-{seed}-{j}.txt"
        n, m = generate(w, [seed, j], str(path))
        # load_edge_list reads a missing path as inline data; fail loudly instead
        ops.check(path.is_file(), f"edge-list file {path} was not written")
        if not path.is_file():
            raise Aborted("no input file")
        with ops.op("load check"):
            g = load_edge_list(str(path))
        ops.check(g.n == n and g.m == m,
                  f"parsed n={g.n} m={g.m}, generated n={n} m={m}")
        paths.append(str(path))
    return paths


def measure_e2e(w: Workload, paths: list[str], seed: int, seconds: float,
                ops: Ops) -> dict:
    tracer, speed = Tracer(None), HostSpeed()
    start = time.perf_counter()
    times: list[dict] = []
    walls: list[dict] = []
    spreads: list[tuple[float, float]] = []
    while True:
        last = None  # free the previous cycle's instance first
        i = len(times)
        last = cycle(w, paths[i % GRAPHS], seed, i, tracer, ops, speed)
        times.append(last.times)
        walls.append(last.wall)
        spreads.append((last.est_v.mean, last.est_p.mean))
        # start another cycle only if half of it, and the set-ups still
        # owed, fit in the window: runs then last ``seconds`` on average
        now = time.perf_counter()
        owed = max(0, MIN_SETUPS - len(times) - 1) * statistics.median(
            t["setup_s"] for t in walls)
        if now + (now - start) / len(times) / 2 + owed > start + seconds:
            break
    setups = [t["setup_s"] for t in times]
    while len(setups) < MIN_SETUPS:
        with speed.timed() as t:
            setup(w, paths[len(setups) % GRAPHS], seed, tracer, ops)
        setups.append(t["s"])
    check_outputs(w, last, check_collection(last, seed), ops)

    def med(key, runs=times):
        return statistics.median(t[key] for t in runs)

    print(f"{len(times)} cycles; wall-second medians: " + ", ".join(
        f"{k} {med(k, walls):.4g}" for k in ("immvsn_s", "immprr_s", "run_s"))
        + f"; speed probe {statistics.median(speed.probes):.4g} s", file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "immvsn_s": med("immvsn_s"),
        "immprr_s": med("immprr_s"),
        "eval_cascades_per_s": (w.eval_runs // EVAL_CHUNKS) / statistics.median(
            s for t in times for s in t["eval_chunks_s"]),
        "run_s": med("run_s"),
        "spread_immvsn": statistics.median(v for v, _ in spreads),
        "spread_immprr": statistics.median(p for _, p in spreads),
        # the probe's arrays live for the whole run: take them out
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - speed.nbytes) / 2**20,
    }


def probe_layers(w: Workload, c: Cycle, seed: int, tracer: Tracer, ops: Ops,
                 speed: HostSpeed):
    """Time each layer's public calls on their own, on the cycle's instance.

    The rrset probe's collection is also the estimator check's sample, so
    the output checks run here, before it is freed.  The parts of each
    solve are also timed in reference seconds, so that their share of the
    cycle's solve time does not depend on the host's speed in between.
    """
    inst = c.inst
    g, p, model, lat = inst.graph, inst.params, inst.model, inst.lattice
    cons = TotalBudget(w.budget_steps)
    out: dict[str, tuple[float, str]] = {}
    with ops.op("layer probes"), tracer.span("bench.probe"):
        with tracer.span("strategy.validate_model") as s:
            validate_model(model, lat)
        out["strategy.validate_s"] = (dur(s), "s")
        with tracer.span("strategy.h_all") as s:
            for _ in range(H_ALL_CALLS):
                model.h_all(c.mix_p.steps)
        out["strategy.h_all_s"] = (dur(s) / H_ALL_CALLS, "s")

        with tracer.span("rrset.generate_collection") as s:
            coll = check_collection(c, seed)
        widths = sum(rr.width for rr in coll.sets)
        members = sum(len(rr.members) for rr in coll.sets)
        out["rrset.sample_s"] = (dur(s), "s")
        out["rrset.edges_examined"] = (widths, "count")
        out["rrset.sets_per_s"] = (coll.theta / dur(s), "sets/s")
        out["rrset.edges_examined_per_s"] = (widths / dur(s), "edges/s")
        out["rrset.width_per_set"] = (widths / coll.theta, "edges")
        out["rrset.members_per_set"] = (members / coll.theta, "nodes")
        fresh = RRCollection(g, p, model)
        with tracer.span("rrset.RRCollection.add") as s:
            for rr in coll.sets:
                fresh.add(rr)
        out["rrset.index_s"] = (dur(s), "s")
        del fresh
        with tracer.span("rrset.g_hat") as s:
            g_hat(coll, model, c.mix_p)
        out["rrset.coverage_s"] = (dur(s), "s")
        # memory of a whole collection: members, indexes and frozen arrays
        tracemalloc.start()
        try:
            copy = RRCollection(g, p, model)
            for rr in coll.sets:
                copy.add(RRSet(rr.root, rr.members.copy(), rr.width))
            copy.coverage_weights(model.h_all(c.mix_p.steps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del copy
        out["rrset.peak_alloc_mb"] = (peak / 2**20, "MiB")
        check_outputs(w, c, coll, ops)
        del coll

        imm = make_imm_params(g.n, lat, w.budget_steps, w.epsilon, w.ell)
        with speed.timed() as t_sample, tracer.span("immprr.sampling"):
            sc, stats = sampling(g, p, model, lat, cons, imm,
                                 stream(seed, KEY_ALGO, 1, 0))
        out["immprr.sampling_s"] = (t_sample["wall_s"], "s")
        with tracer.span("immprr.GreedyState") as s:
            GreedyState(sc, model, lat, cons)
        out["immprr.index_s"] = (dur(s), "s")
        with speed.timed() as t_select, tracer.span("immprr.lgreedy_delta"):
            lgreedy_delta(sc, model, lat, cons)
        out["immprr.select_s"] = (t_select["wall_s"], "s")
        del sc
        out["immprr.theta"] = (stats.theta, "count")
        out["immprr.stages_run"] = (stats.stages_run, "count")
        out["immprr.lower_bound"] = (stats.lower_bound, "nodes")
        spanned = t_sample["s"] + t_select["s"]
        immprr_s = c.times["immprr_s"]
        out["immprr.residual_s"] = (immprr_s - spanned, "s")
        out["immprr.span_share"] = (spanned / immprr_s, "ratio")

        with speed.timed() as t_augment, tracer.span("immvsn.build_augmented"):
            aug = build_augmented(g, p, model, lat)
        out["immvsn.augment_s"] = (t_augment["wall_s"], "s")
        with speed.timed() as t_sample, \
                tracer.span("immvsn.generate_hybrid_collection"):
            hc = generate_hybrid_collection(aug, c.theta_v, stream(seed, KEY_HYBRID))
        out["immvsn.sample_s"] = (t_sample["wall_s"], "s")
        out["immvsn.sets_per_s"] = (hc.theta / t_sample["wall_s"], "sets/s")
        out["immvsn.useful_set_share"] = (len(hc.virtual_sets) / hc.theta, "ratio")
        with speed.timed() as t_select, tracer.span("immvsn.node_selection_virtual"):
            node_selection_virtual(hc, lat, cons)
        out["immvsn.select_s"] = (t_select["wall_s"], "s")
        del hc, aug
        out["immvsn.theta"] = (c.theta_v, "count")
        spanned = t_augment["s"] + t_sample["s"] + t_select["s"]
        immvsn_s = c.times["immvsn_s"]
        out["immvsn.residual_s"] = (immvsn_s - spanned, "s")
        out["immvsn.span_share"] = (spanned / immvsn_s, "ratio")
    return out


def measure_layers(w: Workload, path: str, seed: int, ops: Ops) -> dict:
    """Per-layer metrics on the run's first graph."""
    speed = HostSpeed()
    untraced_run_s = cycle(w, path, seed, 0, Tracer(None), ops, speed).times["run_s"]
    tracer = Tracer(f"{w.name}-{seed}")
    c = cycle(w, path, seed, 0, tracer, ops, speed)
    probes = probe_layers(w, c, seed, tracer, ops, speed)

    by_name: dict[str, float] = {}
    for s in tracer.spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + dur(s)
    inst = c.inst
    eval_s = sum(c.wall["eval_chunks_s"])
    out = {
        "graph.load_s": (by_name["graph.load_edge_list"], "s"),
        "graph.load_edges_per_s": (inst.graph.m / by_name["graph.load_edge_list"], "edges/s"),
        "graph.params_s": (by_name["graph.params"], "s"),
        "graph.edges": (inst.graph.m, "count"),
        "strategy.scenario_s": (by_name["strategy.build_scenario"], "s"),
        **probes,
        "oracles.eval_s": (eval_s, "s"),
        "oracles.cascades_per_s": (2 * w.eval_runs / eval_s, "1/s"),
    }
    self_times = tracer.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_times[layer], "s")
    # in reference seconds, so that host drift between the two cycles cancels
    out["trace.run_s"] = (c.times["run_s"], "s")
    out["trace.overhead_s"] = (c.times["run_s"] - untraced_run_s, "s")
    out["host.probe_s"] = (statistics.median(speed.probes), "s")
    tracer.write(WORK / f"{w.name}-{seed}-spans.jsonl")
    return out


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    ops = Ops()
    metrics: dict[str, dict] = {}
    try:
        paths = prepare_input(w, seed, ops)
        if trace:
            for name, (value, unit) in measure_layers(w, paths[0], seed, ops).items():
                metrics[name] = {"value": float(value), "unit": unit}
        else:
            values = measure_e2e(w, paths, seed, seconds, ops)
            values["ops_ok_frac"] = 1.0 - ops.failed / ops.attempted
            for name, value in values.items():
                metrics[name] = {"value": float(value), "unit": E2E_UNITS[name]}
    except Aborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
    return {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
