from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ampcg
from ampcg import (
    ChainGraph,
    Dataset,
    ExperimentConfig,
    SeparationQuery,
    graph_from_dict,
    graph_to_dict,
    implied_distribution,
    random_parameters,
    read_dataset,
    read_graph,
    read_parameters,
    run_experiment,
    sample,
    separated,
    write_covariance,
    write_dataset,
    write_graph,
    write_parameters,
)
from ampcg.cli import main


class TestGraphJson:
    def test_roundtrip(self, six_node_graph, tmp_path):
        path = tmp_path / "g.json"
        write_graph(six_node_graph, path)
        assert read_graph(path) == six_node_graph

    def test_roundtrip_with_labels(self, tmp_path):
        g = ChainGraph(2, directed={(0, 1)}, labels=("rain", "mud"))
        path = tmp_path / "g.json"
        write_graph(g, path)
        back = read_graph(path)
        assert back == g and back.labels == ("rain", "mud")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            graph_from_dict({"p": 2, "directed": [], "undirected": [], "extra": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            graph_from_dict({"p": 2, "directed": []})

    def test_semidirected_cycle_named(self):
        payload = {
            "p": 3,
            "labels": ["X1", "X2", "X3"],
            "directed": [[0, 1], [2, 0]],
            "undirected": [[1, 2]],
        }
        with pytest.raises(ValueError, match="semidirected cycle"):
            graph_from_dict(payload)
        try:
            graph_from_dict(payload)
        except ValueError as exc:
            assert "X" in str(exc) and "->" in str(exc)

    def test_dict_shape(self, six_node_graph):
        payload = graph_to_dict(six_node_graph)
        assert set(payload) == {"p", "labels", "directed", "undirected"}
        assert payload["labels"] == [f"X{j}" for j in range(1, 7)]


class TestOtherFormats:
    def test_dataset_roundtrip(self, tmp_path):
        data = Dataset(np.array([[1.5, -2.25], [0.125, 3.0]]), labels=("a", "b"))
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert back.labels == ("a", "b")
        assert np.array_equal(back.values, data.values)

    def test_parameters_roundtrip(self, six_node_graph, tmp_path):
        params = random_parameters(six_node_graph, seed=1)
        path = tmp_path / "p.json"
        write_parameters(params, path)
        back = read_parameters(path)
        assert back.graph == six_node_graph
        assert np.allclose(back.beta, params.beta)
        assert np.allclose(back.sigma, params.sigma)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_dataset(path)


class TestExperiments:
    def test_population_identify_recovers(self, tmp_path):
        cfg = ExperimentConfig(p=4, seeds=(1, 2, 3), out_dir=str(tmp_path / "exp"))
        report = run_experiment(cfg)
        assert report.recovery == {"population": 1.0}
        with open(tmp_path / "exp" / "report.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3 and all(row["exact"] == "True" for row in rows)
        payload = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert payload["recovery"]["population"] == 1.0

    def test_deterministic_modulo_runtime(self, tmp_path):
        cfg = ExperimentConfig(p=3, seeds=(5, 6), n_list=(200,))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows]
        assert strip(a.rows) == strip(b.rows)

    def test_errors_recorded_not_raised(self):
        # a 13-node identify run trips the class-traversal cap per row
        cfg = ExperimentConfig(p=13, seeds=(1,), method="identify")
        report = run_experiment(cfg)
        assert len(report.rows) == 1
        assert "CapacityError" in report.rows[0]["error"]
        assert report.recovery["population"] == 0.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(p=3, seeds=())

    def test_worker_pool_matches_sequential(self):
        strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows]
        # the two-phase config runs faithful draws and skeleton recovery in the workers
        for kwargs in ({"p": 3}, {"p": 6, "method": "two-phase"}):
            cfg_seq = ExperimentConfig(seeds=(7, 8), workers=1, **kwargs)
            cfg_par = ExperimentConfig(seeds=(7, 8), workers=2, **kwargs)
            assert strip(run_experiment(cfg_seq).rows) == strip(run_experiment(cfg_par).rows)

    def test_two_phase_method(self):
        cfg = ExperimentConfig(p=4, seeds=(11, 12), method="two-phase")
        assert run_experiment(cfg).recovery == {"population": 1.0}

    def test_greedy_method(self):
        cfg = ExperimentConfig(p=3, seeds=(13,), method="greedy")
        report = run_experiment(cfg)
        assert report.rows[0]["error"] == ""
        assert report.rows[0]["margin"] == ""  # greedy reports no margin


class TestCli:
    def test_generate_sep_magnify(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        assert main(["generate", "--p", "4", "--seed", "3", "--out", str(gpath)]) == 0
        g = read_graph(gpath)
        assert g.p == 4
        assert main(["sep", "--graph", str(gpath), "--a", "X1", "--b", "X2"]) == 0
        out = capsys.readouterr().out
        assert "separated: " in out
        assert main(["magnify", "--graph", str(gpath)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 8

    def test_sep_enumerate_csv(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(3, directed={(0, 1)}), gpath)
        assert main(["sep", "--graph", str(gpath), "--enumerate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "j,k,C,separated"
        assert len(lines) == 1 + 6  # 3 pairs x 2 conditioning sets
        assert any(line.startswith("X1,X2,,False") for line in lines[1:])

    def test_sep_enumerate_matches_single_queries(self, tmp_path, capsys, six_node_graph):
        g = ChainGraph(6, six_node_graph.directed, six_node_graph.undirected, labels=tuple("abcdef"))
        gpath = tmp_path / "g.json"
        write_graph(g, gpath)
        assert main(["sep", "--graph", str(gpath), "--enumerate"]) == 0
        want = ["j,k,C,separated"]
        for j, k in itertools.combinations(range(6), 2):
            rest = [x for x in range(6) if x not in (j, k)]
            for r in range(len(rest) + 1):
                for cond in itertools.combinations(rest, r):
                    q = SeparationQuery(frozenset({j}), frozenset({k}), frozenset(cond))
                    cell = ";".join("abcdef"[x] for x in cond)
                    want.append(f"{'abcdef'[j]},{'abcdef'[k]},{cell},{separated(g, q)}")
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_sep_enumerate_capacity_error(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(7, directed={(0, 1)}), gpath)
        assert main(["sep", "--graph", str(gpath), "--enumerate"]) == 2
        assert capsys.readouterr().err.startswith("error capacity_error: ")

    def test_fit_and_identify(self, tmp_path, capsys):
        truth = ChainGraph(2, directed={(0, 1)})
        gpath = tmp_path / "g.json"
        write_graph(truth, gpath)
        cov = np.array([[1.0, 1.0], [1.0, 2.0]])
        cpath = tmp_path / "cov.json"
        write_covariance(cov, cpath)
        fpath = tmp_path / "fit.json"
        assert main(["fit", "--graph", str(gpath), "--population", str(cpath), "--out", str(fpath)]) == 0
        payload = json.loads(fpath.read_text())
        assert set(payload) == {"params", "loglik", "error_variances", "iterations", "converged", "dispersion"}
        assert payload["dispersion"] < 1e-9
        ipath = tmp_path / "ident.json"
        assert main(["identify", "--class-rep", str(gpath), "--population", str(cpath), "--out", str(ipath)]) == 0
        chosen = graph_from_dict(json.loads(ipath.read_text())["chosen"])
        assert chosen == truth

    def test_learn_greedy(self, tmp_path):
        truth = ChainGraph(2, directed={(0, 1)})
        from ampcg import rescale_equal_variances

        params = rescale_equal_variances(random_parameters(truth, seed=5), 1.0)
        data = sample(implied_distribution(params), 5000, seed=6, labels=("X1", "X2"))
        dpath = tmp_path / "d.csv"
        write_dataset(data, dpath)
        opath = tmp_path / "learned.json"
        assert main(["learn", "--data", str(dpath), "--method", "greedy", "--out", str(opath)]) == 0
        assert read_graph(opath).p == 2

    def test_experiment_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        code = main([
            "experiment", "--p", "3", "--seeds", "1,2", "--method", "identify",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "report.csv").exists() and (out_dir / "report.json").exists()
        assert "recovery[population] = 1.000" in capsys.readouterr().out

    def test_experiment_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"p": 3, "seeds": [1, 2], "method": "identify"}))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "report.json").exists()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": 3, "seeds": [1], "bogus": True}))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert "unknown field" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["sep", "--graph", str(tmp_path / "nope.json"), "--a", "X1", "--b", "X2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error io_error:") and err.count("\n") == 1

    def test_invalid_graph_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 3, "directed": [[0, 1], [2, 0]], "undirected": [[1, 2]]}))
        assert main(["sep", "--graph", str(path), "--a", "X1", "--b", "X2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input_error:") and "semidirected cycle" in err

    def test_fit_collinear_column_is_input_error(self, tmp_path, capsys):
        values = np.random.default_rng(4).normal(size=(100, 3))
        values[:, 2] = values[:, 0] + values[:, 1]
        dpath = tmp_path / "d.csv"
        write_dataset(Dataset(values, labels=("u", "v", "w")), dpath)
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(3, directed={(0, 2), (1, 2)}), gpath)
        out = tmp_path / "f.json"
        assert main(["fit", "--graph", str(gpath), "--data", str(dpath), "--equal-var", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input_error: column w ") and err.count("\n") == 1
        assert not out.exists()

    def test_two_phase_singular_covariance_names_node(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        write_covariance(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), cpath)
        out = tmp_path / "g.json"
        assert main(["learn", "--method", "two-phase", "--population", str(cpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input_error: node 1 ") and err.count("\n") == 1
        assert not out.exists()

    def test_conflicting_inputs_rejected(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(2), gpath)
        assert main(["fit", "--graph", str(gpath), "--out", str(tmp_path / "f.json")]) == 2
        assert capsys.readouterr().err.startswith("error input_error:")

    def test_console_entry_point(self, tmp_path):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(2, directed={(0, 1)}), gpath)
        # the child finds the package where this process did, installed or not
        source = str(Path(ampcg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ampcg", "sep", "--graph", str(gpath), "--a", "0", "--b", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "separated: false"
