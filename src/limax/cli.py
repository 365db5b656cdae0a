"""Experiment runner and command-line entry points.

Subcommands:

* ``run <config.yaml>`` -- execute an experiment grid (algorithms x budgets)
  and write a CSV report.
* ``gen-graph <model>`` -- write a synthetic edge-list file.
* ``oracle <instance.yaml>`` -- exact spread / exact optimum of a small
  instance, as JSON on stdout.
* ``validate <config.yaml>`` -- build the configured scenario and report
  activation-curve violations.

A single master seed drives everything: each experiment cell derives its
own streams by a counter-based split, so any cell can be reproduced alone.
The CSV schema is fixed (dataset, scenario, algorithm, epsilon, k, delta,
spread, spread_se, runtime_s, theta, seed); provenance (config hash, seed)
rides along as leading comment lines.  With ``time_reps: 0`` the runtime
column is left empty and reports become byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .baselines import cd, hd, mclg, ud
from .budgets import PartitionedBudget, TotalBudget, total_steps
from .graph import (DirectedGraph, assign_weighted_cascade, from_edges,
                    gen_erdos_renyi, load_edge_list, params_from_edge_values,
                    uniform_ic, write_edge_list)
from .immprr import make_imm_params, run_immprr
from .immvsn import run_immvsn
from .oracles import exact_g, exact_opt
from .oracles import simulate_spread_mix
from .rng import stream
from .rrset import generate_collection
from .strategy import (IndependentActivation, LatticeConfig, StrategyMix,
                       make_personalized, make_segmented_event, validate_model)

__all__ = ["ConfigError", "ScenarioSpec", "build_scenario", "run_experiment",
           "Report", "main"]

CSV_FIELDS = ["dataset", "scenario", "algorithm", "epsilon", "k", "delta",
              "spread", "spread_se", "runtime_s", "theta", "seed"]

# stream key namespaces under the master seed
_KEY_SCENARIO = 0
_KEY_ALGO = 1
_KEY_EVAL = 2
_KEY_BASELINE_RR = 3
_KEY_GRAPH = 4


class ConfigError(ValueError):
    pass


def _require(spec: dict, key: str, where: str):
    if key not in spec:
        raise ConfigError(f"{where} needs {key!r}")
    return spec[key]


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative scenario description from the config file."""

    name: str
    delta: float
    max_budget_steps: int
    d: int = 200
    top: int = 2000
    r_max: float = 0.3


def build_scenario(graph: DirectedGraph, spec: ScenarioSpec,
                   rng) -> tuple[IndependentActivation, LatticeConfig]:
    """Instantiate a named scenario family on a graph.

    ``personalized``: one private discount strategy per node (d = n).
    ``segmented_event``: d event types over the best-connected nodes; each
    targeted node draws its event type uniformly and a success rate uniform
    in [0, r_max].
    """
    if spec.name == "personalized":
        lattice = LatticeConfig(d=graph.n, delta=spec.delta,
                                budget_steps=spec.max_budget_steps)
        return make_personalized(graph.n, lattice), lattice
    if spec.name == "segmented_event":
        lattice = LatticeConfig(d=spec.d, delta=spec.delta,
                                budget_steps=spec.max_budget_steps)
        degrees = graph.in_degrees() + graph.out_degrees()
        model = make_segmented_event(degrees, lattice, spec.top, spec.r_max, rng)
        return model, lattice
    raise ConfigError(f"unknown scenario family {spec.name!r}")


# --- config loading -----------------------------------------------------------

def _load_config(path: str) -> tuple[dict, str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = yaml.safe_load(text)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    return cfg, text


def _config_hash(cfg: dict) -> str:
    # the output path has no bearing on results; keep it out of provenance
    canon = json.dumps({k: v for k, v in cfg.items() if k != "output"},
                       sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _build_graph(cfg: dict, seed: int) -> DirectedGraph:
    spec = cfg.get("graph")
    if isinstance(spec, str):
        return load_edge_list(spec)
    if isinstance(spec, dict) and "path" in spec:
        return load_edge_list(spec["path"], header=spec.get("header", "auto"))
    if isinstance(spec, dict) and "edges" in spec:
        return from_edges(int(_require(spec, "nodes", "graph")),
                          [tuple(e) for e in spec["edges"]])
    if isinstance(spec, dict) and "generate" in spec:
        gen = spec["generate"]
        if gen.get("model", "er") != "er":
            raise ConfigError(f"unknown graph generator {gen.get('model')!r}")
        nodes, edges = (int(_require(gen, key, "graph.generate")) for key in ("nodes", "edges"))
        return gen_erdos_renyi(nodes, edges, stream(seed, _KEY_GRAPH))
    raise ConfigError("config needs a 'graph' entry (path, edges, or generate)")


def _build_params(cfg: dict, graph: DirectedGraph):
    spec = cfg.get("params", "weighted_cascade")
    if spec == "weighted_cascade":
        return assign_weighted_cascade(graph)
    if spec == "from_file":
        return params_from_edge_values(graph)
    if isinstance(spec, dict) and spec.get("kind") == "uniform_ic":
        return uniform_ic(graph, float(_require(spec, "p", "params")))
    raise ConfigError(f"unknown params spec {spec!r}")


def _budget_grid(cfg: dict, delta: float):
    constraint_spec = cfg.get("constraint", "total")
    if constraint_spec == "total":
        budgets = cfg.get("budgets")
        if not budgets:
            raise ConfigError("config needs 'budgets' (list of k values)")
        cells = []
        for k in budgets:
            steps = int(round(float(k) / delta))
            cells.append((float(k), TotalBudget(steps)))
        return cells
    constraint = _partitioned(constraint_spec)
    return [(sum(constraint.caps) * delta, constraint)]


def _partitioned(spec) -> PartitionedBudget:
    if not isinstance(spec, dict):
        raise ConfigError(f"unknown constraint spec {spec!r}")
    return PartitionedBudget(_require(spec, "groups", "constraint"),
                             _require(spec, "caps", "constraint"))


def _scenario(cfg: dict, graph: DirectedGraph, cells,
              seed: int) -> tuple[IndependentActivation, LatticeConfig]:
    """The configured scenario, tabulated up to the grid's largest step count."""
    opts = cfg.get("scenario_options", {}) or {}
    spec = ScenarioSpec(
        name=str(cfg.get("scenario", "personalized")),
        delta=float(cfg.get("delta", 1.0)),
        max_budget_steps=max((total_steps(c) for _, c in cells), default=0),
        d=int(opts.get("d", 200)), top=int(opts.get("top", 2000)),
        r_max=float(opts.get("r_max", 0.3)))
    return build_scenario(graph, spec, stream(seed, _KEY_SCENARIO))


@dataclass
class Report:
    comments: list[str]
    rows: list[list[str]]
    errors: list[str] = field(default_factory=list)

    def write_csv(self, path) -> None:
        out = io.StringIO()
        for c in self.comments:
            out.write(f"# {c}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(self.rows)
        data = out.getvalue()
        if path == "-":
            sys.stdout.write(data)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)


def _run_cell(alg: str, k: float, constraint, graph, params, model, lattice,
              cfg: dict, seed: int, a_idx: int, c_idx: int):
    """Run one (algorithm, budget) cell; returns (mix, theta_str)."""
    epsilon = float(cfg.get("epsilon", 0.5))
    ell = float(cfg.get("ell", 1.0))
    rng = stream(seed, _KEY_ALGO, a_idx, c_idx)
    if alg == "immprr":
        imm = make_imm_params(graph.n, lattice, total_steps(constraint), epsilon, ell)
        res = run_immprr(graph, params, model, lattice, constraint, imm, rng,
                         force=bool(cfg.get("force", False)))
        return res.mix, str(res.stats.theta) if res.stats else "0"
    if alg == "immvsn":
        imm = make_imm_params(graph.n, lattice, total_steps(constraint), epsilon, ell)
        res = run_immvsn(graph, params, model, lattice, constraint, imm, rng)
        return res.mix, str(res.stats.theta) if res.stats else "0"
    if alg == "mclg":
        sims = int(cfg.get("mclg_sims", 10000))
        return mclg(graph, params, model, lattice, constraint, sims, rng), ""
    if alg in ("ud", "cd"):
        theta = int(cfg.get("baseline_theta", 5000))
        coll = generate_collection(graph, params, model, theta,
                                   stream(seed, _KEY_BASELINE_RR, a_idx, c_idx))
        start = ud(graph, params, model, lattice, k, coll, rng)
        if alg == "ud":
            return start, str(theta)
        return cd(graph, params, model, lattice, k, start, coll), str(theta)
    if alg == "hd":
        m_nodes = int(cfg.get("hd_nodes", 100))
        return hd(graph, lattice, k, min(m_nodes, graph.n)), ""
    raise ConfigError(f"unknown algorithm {alg!r}")


def run_experiment(config: dict) -> Report:
    """Execute every (algorithm, budget) cell and collect the CSV report.

    Each cell is evaluated by forward simulation (``eval_runs`` cascades)
    and timed as the mean of ``time_reps`` identical re-runs; a failing
    cell is recorded in ``report.errors`` and the run continues.
    """
    seed = int(config.get("seed", 0))
    dataset = str(config.get("dataset", "unnamed"))
    delta = float(config.get("delta", 1.0))
    scenario_name = str(config.get("scenario", "personalized"))
    algorithms = list(config.get("algorithms", []))
    eval_runs = int(config.get("eval_runs", 10000))
    time_reps = int(config.get("time_reps", 5))

    graph = _build_graph(config, seed)
    params = _build_params(config, graph)
    cells = _budget_grid(config, delta)
    model, lattice = _scenario(config, graph, cells, seed)

    epsilon = float(config.get("epsilon", 0.5))
    report = Report(comments=[
        f"limax {__version__} experiment report",
        f"config_sha256={_config_hash(config)}",
        f"seed={seed}",
    ], rows=[])
    for a_idx, alg in enumerate(algorithms):
        for c_idx, (k, constraint) in enumerate(cells):
            try:
                elapsed = []
                for _ in range(max(time_reps, 1)):
                    t0 = time.perf_counter()
                    mix, theta_str = _run_cell(alg, k, constraint, graph, params,
                                               model, lattice, config, seed,
                                               a_idx, c_idx)
                    elapsed.append(time.perf_counter() - t0)
                runtime_str = f"{sum(elapsed) / len(elapsed):.6f}" if time_reps > 0 else ""
                est = simulate_spread_mix(graph, params, model, mix, eval_runs,
                                          stream(seed, _KEY_EVAL, a_idx, c_idx))
                report.rows.append([
                    dataset, scenario_name, alg, repr(epsilon), repr(float(k)),
                    repr(delta), f"{est.mean:.6f}", f"{est.se:.6f}",
                    runtime_str, theta_str, str(seed),
                ])
            except Exception as exc:  # cell failures must not kill the run
                report.errors.append(f"{alg} k={k}: {exc!r}")
    return report


# --- oracle instances ---------------------------------------------------------

def _model_from_instance(cfg: dict, graph: DirectedGraph, lattice: LatticeConfig,
                         seed: int):
    spec = cfg.get("model")
    if isinstance(spec, dict) and "tables" in spec:
        width = lattice.budget_steps + 1
        nodes, strategies, tables = [], [], []
        for v, row in spec["tables"].items():
            for j, vals in row.items():
                nodes.append(int(v))
                strategies.append(int(j))
                # a short curve holds its last value
                vals = np.asarray(vals[:width], dtype=np.float64)
                tables.append(np.pad(vals, (0, width - len(vals)), mode="edge"))
        return IndependentActivation(graph.n, lattice, nodes, strategies,
                                     np.reshape(tables, (-1, width)))
    if isinstance(spec, dict) and "scenario" in spec:
        sc = ScenarioSpec(name=spec["scenario"], delta=lattice.delta,
                          max_budget_steps=lattice.budget_steps,
                          d=int(spec.get("d", lattice.d)),
                          top=int(spec.get("top", 2000)),
                          r_max=float(spec.get("r_max", 0.3)))
        model, _ = build_scenario(graph, sc, stream(seed, _KEY_SCENARIO))
        return model
    raise ConfigError("oracle instance needs model.tables or model.scenario")


def _cmd_oracle(args) -> int:
    cfg, _ = _load_config(args.instance)
    seed = int(cfg.get("seed", 0))
    graph = _build_graph(cfg, seed)
    params = _build_params(cfg, graph)
    delta = float(cfg.get("delta", 1.0))
    steps = int(cfg.get("budget_steps", 0))
    cspec = cfg.get("constraint", "total")
    constraint = TotalBudget(steps) if cspec == "total" else _partitioned(cspec)
    d = int(cfg.get("d", graph.n))
    lattice = LatticeConfig(d=d, delta=delta, budget_steps=steps)
    model = _model_from_instance(cfg, graph, lattice, seed)
    lattice = model.lattice
    mode = cfg.get("mode", "g")
    if mode == "g":
        x = StrategyMix(np.array(_require(cfg, "x", "oracle mode 'g'"), dtype=np.int64))
        print(json.dumps({"g": exact_g(graph, params, model, x)}))
    elif mode == "opt":
        mix, opt = exact_opt(graph, params, model, lattice, constraint)
        print(json.dumps({"opt_steps": mix.steps.tolist(), "opt": opt}))
    else:
        raise ConfigError(f"unknown oracle mode {mode!r}")
    return 0


# --- entry points -------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg, _ = _load_config(args.config)
    for key, val in (("seed", args.seed), ("epsilon", args.epsilon),
                     ("eval_runs", args.eval_runs), ("time_reps", args.time_reps),
                     ("output", args.output)):
        if val is not None:
            cfg[key] = val
    if args.force:
        cfg["force"] = True
    report = run_experiment(cfg)
    report.write_csv(cfg.get("output", "-"))
    for err in report.errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if report.errors else 0


def _cmd_gen_graph(args) -> int:
    rng = stream(args.seed, _KEY_GRAPH)
    if args.model == "er":
        if args.edges is None:
            raise ConfigError("er generator needs --edges")
        g = gen_erdos_renyi(args.nodes, args.edges, rng)
    elif args.model == "complete":
        g = from_edges(args.nodes, [(u, v) for u in range(args.nodes)
                                    for v in range(args.nodes) if u != v])
    else:
        raise ConfigError(f"unknown graph model {args.model!r}")
    write_edge_list(args.out, g)
    print(f"wrote {g.n} nodes, {g.m} edges to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    cfg, _ = _load_config(args.config)
    seed = int(cfg.get("seed", 0))
    graph = _build_graph(cfg, seed)
    cells = _budget_grid(cfg, float(cfg.get("delta", 1.0)))
    model, lattice = _scenario(cfg, graph, cells, seed)
    violations = validate_model(model, lattice)
    for v in violations:
        print(f"node {v.node} strategy {v.strategy}: {v.kind} ({v.detail})")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 2
    print("ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="limax",
                                     description="lattice influence maximization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--eval-runs", dest="eval_runs", type=int)
    p_run.add_argument("--time-reps", dest="time_reps", type=int)
    p_run.add_argument("--output")
    p_run.add_argument("--force", action="store_true",
                       help="run even if activation curves fail validation")
    p_run.set_defaults(fn=_cmd_run)

    p_gen = sub.add_parser("gen-graph", help="write a synthetic edge list")
    p_gen.add_argument("model", choices=["er", "complete"])
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--edges", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen_graph)

    p_oracle = sub.add_parser("oracle", help="exact spread/optimum of a small instance")
    p_oracle.add_argument("instance")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_val = sub.add_parser("validate", help="check a config's activation curves")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
