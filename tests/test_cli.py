import json
import subprocess
import sys

import pytest
import yaml

from conftest import node_rows

from limax.cli import (ConfigError, ScenarioSpec, build_scenario, main,
                       run_experiment)
from limax.graph import gen_erdos_renyi, load_edge_list, write_edge_list
from limax.rng import stream


@pytest.fixture
def small_graph_file(tmp_path):
    g = gen_erdos_renyi(40, 120, stream(555, 0))
    path = tmp_path / "g.txt"
    write_edge_list(str(path), g)
    return path, g


def _base_config(graph_path, out_path, **over):
    cfg = {
        "dataset": "unit",
        "graph": {"path": str(graph_path)},
        "params": "weighted_cascade",
        "scenario": "segmented_event",
        "scenario_options": {"d": 4, "top": 20, "r_max": 0.3},
        "delta": 1.0,
        "budgets": [2, 3],
        "algorithms": ["immvsn"],
        "epsilon": 0.5,
        "ell": 1.0,
        "seed": 5,
        "eval_runs": 500,
        "time_reps": 0,
        "output": str(out_path),
    }
    cfg.update(over)
    return cfg


def test_build_scenario_personalized(small_graph_file):
    _, g = small_graph_file
    spec = ScenarioSpec(name="personalized", delta=0.1, max_budget_steps=10)
    model, lattice = build_scenario(g, spec, stream(0, 0))
    assert lattice.d == g.n
    assert all(node_rows(model, v)[0].tolist() == [v] for v in range(g.n))


def test_build_scenario_segmented_defaults(small_graph_file):
    _, g = small_graph_file
    spec = ScenarioSpec(name="segmented_event", delta=1.0, max_budget_steps=5)
    model, lattice = build_scenario(g, spec, stream(0, 1))
    assert lattice.d == 200
    touched = [v for v in range(g.n) if len(node_rows(model, v)[0])]
    assert len(touched) == min(g.n, 2000)
    for v in touched:
        r = node_rows(model, v)[1][0, 1]
        assert 0.0 <= r <= 0.3


def test_build_scenario_unknown_family(small_graph_file):
    _, g = small_graph_file
    with pytest.raises(ConfigError):
        build_scenario(g, ScenarioSpec(name="nope", delta=1.0, max_budget_steps=1),
                       stream(0, 2))


def test_empty_algorithm_list_header_only(small_graph_file, tmp_path):
    path, _ = small_graph_file
    cfg = _base_config(path, tmp_path / "o.csv", algorithms=[])
    report = run_experiment(cfg)
    assert report.rows == [] and report.errors == []
    report.write_csv(str(tmp_path / "o.csv"))
    lines = (tmp_path / "o.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data == ["dataset,scenario,algorithm,epsilon,k,delta,spread,"
                    "spread_se,runtime_s,theta,seed"]


def test_budget_sweep_row_count(small_graph_file, tmp_path):
    path, _ = small_graph_file
    cfg = _base_config(path, tmp_path / "o.csv",
                       budgets=[1, 2, 3], algorithms=["hd_invalid"])
    # unknown algorithm: every cell fails but the run continues
    report = run_experiment(cfg)
    assert len(report.errors) == 3 and report.rows == []

    cfg = _base_config(path, tmp_path / "o.csv", budgets=[1, 2, 3],
                       algorithms=["immvsn", "immprr"])
    report = run_experiment(cfg)
    assert len(report.rows) == 6
    assert [r[4] for r in report.rows] == ["1.0", "2.0", "3.0"] * 2


def test_ten_budget_sweep_rows(small_graph_file, tmp_path):
    path, _ = small_graph_file
    cfg = _base_config(path, tmp_path / "o.csv",
                       budgets=list(range(1, 11)), eval_runs=100)
    report = run_experiment(cfg)
    assert len(report.rows) == 10  # one row per budget per algorithm


def test_identical_config_identical_csv(small_graph_file, tmp_path):
    path, _ = small_graph_file
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = _base_config(path, out1)
    run_experiment(cfg).write_csv(str(out1))
    cfg2 = _base_config(path, out2)
    run_experiment(cfg2).write_csv(str(out2))
    # the output path is not part of the report, so the bytes must match
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_main_run_and_gen(tmp_path, capsys):
    gpath = tmp_path / "er.txt"
    assert main(["gen-graph", "er", "--nodes", "30", "--edges", "60",
                 "--seed", "3", "--out", str(gpath)]) == 0
    g = load_edge_list(str(gpath))
    assert g.n == 30 and g.m == 60

    cfg_path = tmp_path / "exp.yaml"
    out_path = tmp_path / "res.csv"
    cfg = _base_config(gpath, out_path, budgets=[2], eval_runs=200)
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(cfg_path)]) == 0
    rows = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2  # header + one cell


def test_cli_validate_and_oracle(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    gpath = tmp_path / "er.txt"
    main(["gen-graph", "er", "--nodes", "20", "--edges", "40",
          "--seed", "1", "--out", str(gpath)])
    cfg = _base_config(gpath, tmp_path / "res.csv")
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(cfg_path)]) == 0
    capsys.readouterr()

    inst = {
        "graph": {"nodes": 3, "edges": [[0, 1], [1, 2]]},
        "params": {"kind": "uniform_ic", "p": 1.0},
        "delta": 1.0,
        "budget_steps": 2,
        "d": 2,
        "model": {"tables": {0: {0: [0.0, 0.5, 0.75]},
                             2: {1: [0.0, 0.3, 0.51]}}},
        "mode": "opt",
    }
    ipath = tmp_path / "inst.yaml"
    ipath.write_text(yaml.safe_dump(inst))
    assert main(["oracle", str(ipath)]) == 0
    out = json.loads(capsys.readouterr().out)
    # seeding node 0 with prob 0.75 cascades down the certain chain of 3
    assert out["opt_steps"] == [2, 0]
    assert out["opt"] == pytest.approx(2.25)


def test_partitioned_constraint_config(small_graph_file, tmp_path):
    path, _ = small_graph_file
    cfg = _base_config(path, tmp_path / "o.csv", algorithms=["immvsn", "immprr"])
    del cfg["budgets"]
    cfg["constraint"] = {"groups": [[0, 1], [2, 3]], "caps": [1, 2]}
    report = run_experiment(cfg)
    assert report.errors == []
    assert len(report.rows) == 2
    assert all(r[4] == "3.0" for r in report.rows)  # k = (1 + 2) * delta


def test_file_carried_edge_probabilities(tmp_path):
    # a probability-annotated edge list flows through params: from_file
    lines = ["4 4"] + [f"{u} {v} {p}" for u, v, p in
                       [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (0, 3, 0.6)]]
    gpath = tmp_path / "weighted.txt"
    gpath.write_text("\n".join(lines) + "\n")
    cfg = _base_config(gpath, tmp_path / "o.csv", params="from_file",
                       scenario_options={"d": 2, "top": 4, "r_max": 0.3},
                       budgets=[1], eval_runs=200)
    report = run_experiment(cfg)
    assert report.errors == [] and len(report.rows) == 1


def test_cli_exit_code_on_bad_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: nope\n")
    assert main(["run", str(bad)]) == 1


@pytest.mark.parametrize("command, over, key", [
    ("run", {"graph": {"generate": {"nodes": 50}}}, "'edges'"),
    ("validate", {"graph": {"generate": {"edges": 50}}}, "'nodes'"),
    ("run", {"graph": {"edges": [[0, 1]]}}, "'nodes'"),
    ("validate", {"constraint": {"groups": [[0, 1]]}}, "'caps'"),
    ("run", {"constraint": {"caps": [1]}}, "'groups'"),
    ("run", {"params": {"kind": "uniform_ic"}}, "'p'"),
    ("run", {"constraint": {"groups": [[0, 1], [2, 3]], "caps": [1.5, 2]}},
     "cap 0 (1.5) is not an integer"),
])
def test_missing_config_key_is_reported(small_graph_file, tmp_path, capsys,
                                        command, over, key):
    path, _ = small_graph_file
    cfg = _base_config(path, tmp_path / "o.csv", **over)
    if "constraint" in over:
        del cfg["budgets"]
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_oracle_without_x_is_reported(tmp_path, capsys):
    inst = {"graph": {"nodes": 2, "edges": [[0, 1]]}, "budget_steps": 1,
            "d": 1, "model": {"tables": {0: {0: [0.0, 0.5]}}}, "mode": "g"}
    ipath = tmp_path / "inst.yaml"
    ipath.write_text(yaml.safe_dump(inst))
    assert main(["oracle", str(ipath)]) == 1
    assert capsys.readouterr().err == "error: oracle mode 'g' needs 'x'\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "limax.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-graph" in proc.stdout
