from __future__ import annotations

import csv
import itertools
import json
import math
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
    random_chain_graph,
    random_parameters,
    read_covariance,
    read_dataset,
    read_graph,
    read_parameters,
    rescale_equal_variances,
    run_experiment,
    sample,
    write_covariance,
    write_dataset,
    write_graph,
    write_parameters,
)
from ampcg import cli, io
from ampcg.cli import main

from .conftest import near_collinear_input
from .oracles import brute_force_separated

# `ampcg` runs on the six-node fixture, by name; their output is pinned in data/six_node_cli.json
_SIX_NODE_RUNS = {
    "identify-population": ["identify", "--class-rep", "g.json", "--population", "c.json"],
    "identify-data": ["identify", "--class-rep", "g.json", "--data", "d.csv"],
    "fit": ["fit", "--graph", "g.json", "--data", "d.csv"],
    "fit-equal-var": ["fit", "--graph", "g.json", "--data", "d.csv", "--equal-var"],
    "learn-two-phase": ["learn", "--data", "d.csv", "--method", "two-phase"],
}


# `ampcg experiment` runs whose report.json is pinned in data/experiment_reports.json, apart from
# each row's runtime_s and the config's out_dir; the first is the argv the experiment-two-phase benchmark builds
_EXPERIMENT_RUNS = {
    "two-phase-p6": ["experiment", "--method", "two-phase", "--p", "6", "--seeds", "1,2,3", "--workers", "1"],
    "config-file": ["experiment", "--config", "exp.json"],
}


def _assert_close(got, want, where="") -> None:
    """got equals want, floats to a relative 1e-9, everything else exactly."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_close(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _strict_json(path: Path):
    """The JSON at path, read by a parser that rejects Infinity and NaN as strict JSON parsers do."""

    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


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

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"directed": [[0, 1.5]]}, "graph field 'directed': node index 1.5 in [0, 1.5] is not an integer"),
            ({"directed": [[True, 1]]}, "graph field 'directed': node index True in [True, 1] is not an integer"),
            ({"directed": 5}, "graph field 'directed' must be a list of node pairs, got int"),
            ({"undirected": [[0, 1, 1]]}, "graph field 'undirected' must be a list of node pairs, got entry [0, 1, 1]"),
            ({"labels": "ab"}, "graph field 'labels' must be a list of strings, got 'ab'"),
        ],
        ids=["node-a-float", "node-a-bool", "edges-an-int", "edge-not-a-pair", "labels-a-string"],
    )
    def test_malformed_field_rejected_by_name(self, tmp_path, capsys, fields, message):
        payload = {"p": 2, "directed": [], "undirected": [], **fields}
        with pytest.raises(ValueError) as exc:
            graph_from_dict(payload)
        assert str(exc.value) == message
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        assert main(["sep", "--graph", str(path), "--a", "0", "--b", "1"]) == 2
        assert capsys.readouterr().err == f"error input_error: {message}\n"

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

    def test_covariance_labels_are_read_and_must_name_every_row(self, tmp_path):
        path = tmp_path / "c.json"
        write_covariance(np.eye(2), path, labels=("a", "b"))
        assert np.array_equal(read_covariance(path), np.eye(2))
        path.write_text(json.dumps({"cov": np.eye(2).tolist(), "labels": ["a"]}))
        with pytest.raises(ValueError, match="covariance has 1 labels for 2 rows"):
            read_covariance(path)

    @pytest.mark.parametrize("labels", ["ab", [1, 2]], ids=["a-string", "integers"])
    def test_covariance_labels_must_be_strings(self, tmp_path, capsys, labels):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"cov": [[1.0, 0.5], [0.5, 1.0]], "labels": labels}))
        message = f"covariance field 'labels' must be a list of strings, got {labels!r}"
        with pytest.raises(ValueError) as exc:
            read_covariance(path)
        assert str(exc.value) == message
        out = tmp_path / "g.json"
        assert main(["learn", "--population", str(path), "--method", "two-phase", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error input_error: {message}\n"
        assert not out.exists()

    def test_repeated_labels_are_rejected_by_name(self, tmp_path):
        with pytest.raises(ValueError, match="label 'a' names more than one column"):
            Dataset(np.eye(3), labels=("a", "a", "b"))
        path = tmp_path / "d.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(ValueError, match="label 'a' names more than one column"):
            read_dataset(path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"cov": np.eye(2).tolist(), "labels": ["u", "u"]}))
        with pytest.raises(ValueError, match="label 'u' names more than one covariance row"):
            read_covariance(path)

    def test_dataset_names_a_non_finite_entry_by_its_default_label(self):
        values = np.ones((3, 2))
        values[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite entry inf in column X2, data row 3"):
            Dataset(values)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_dataset(path)


class TestStrictJson:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_raises_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "out" / "x.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            io._write_json({"x": [1.0, value]}, path)
        assert not path.exists()

    def test_one_member_class_writes_strict_json(self, tmp_path, capsys):
        # a one-node graph's class has one member, so there is no runner-up and the margin is infinite
        gpath, dpath = tmp_path / "g.json", tmp_path / "d.csv"
        assert main(["generate", "--p", "1", "--seed", "1", "--out", str(gpath), "--data-out", str(dpath)]) == 0
        assert _strict_json(gpath)["p"] == 1
        assert ampcg.identify_in_class(read_graph(gpath), read_dataset(dpath)).margin == math.inf
        ipath = tmp_path / "ident.json"
        assert main(["identify", "--class-rep", str(gpath), "--data", str(dpath), "--out", str(ipath)]) == 0
        payload = _strict_json(ipath)
        assert payload["class_size"] == 1 and payload["margin"] is None
        out_dir = tmp_path / "exp"
        assert main(["experiment", "--p", "1", "--seeds", "1", "--out-dir", str(out_dir)]) == 0
        rows = _strict_json(out_dir / "report.json")["rows"]
        assert [row["margin"] for row in rows] == [""] and rows[0]["error"] == ""


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

    def test_negative_seed_rejected_by_name_before_any_run(self):
        with pytest.raises(ValueError, match=r"^seeds must be non-negative, got -3$"):
            ExperimentConfig(p=4, seeds=(1, -3, -5))

    def test_worker_pool_matches_sequential(self):
        strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows]
        # the two-phase config runs faithful draws and skeleton recovery in the workers
        for kwargs in ({"p": 3}, {"p": 6, "method": "two-phase"}):
            cfg_seq = ExperimentConfig(seeds=(7, 8), workers=1, **kwargs)
            cfg_par = ExperimentConfig(seeds=(7, 8), workers=2, **kwargs)
            assert strip(run_experiment(cfg_seq).rows) == strip(run_experiment(cfg_par).rows)

    def test_two_phase_method(self):
        # p=12 is the class cap, up to which faithful draws check every separation and skeleton recovery runs
        for p, seeds in ((4, (11, 12)), (10, (1, 2, 3)), (12, (1, 2, 3))):
            cfg = ExperimentConfig(p=p, seeds=seeds, method="two-phase")
            assert run_experiment(cfg).recovery == {"population": 1.0}, p

    def test_greedy_method(self):
        # at p=5 some states have own predictors on both nodes of a one-edge component
        for p, seeds in ((3, (13,)), (5, (1, 2, 3))):
            cfg = ExperimentConfig(p=p, seeds=seeds, method="greedy")
            report = run_experiment(cfg)
            assert report.rows[0]["error"] == "", p
            assert report.rows[0]["margin"] == "", p  # greedy reports no margin


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

    def test_generate_draws_the_graph_of_its_seed(self, tmp_path, capsys):
        # the graph's seed goes through compose_seed, whose one-entry seed draws the bare seed's stream
        for seed in (0, 3, 2**40 + 1):
            gpath = tmp_path / f"g{seed}.json"
            assert main(["generate", "--p", "7", "--seed", str(seed), "--out", str(gpath)]) == 0
            assert read_graph(gpath) == random_chain_graph(7, 0.4, 0.3, seed=seed)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["experiment", "--p", "4", "--seeds", "1,-3"], "error input_error: seeds must be non-negative, got -3"),
            (["generate", "--p", "3", "--seed", "-2"], "error input_error: seed must be non-negative, got -2"),
            (["learn", "--method", "greedy", "--seed", "-1"], "error input_error: seed must be non-negative, got -1"),
        ],
        ids=["experiment", "generate", "learn-greedy"],
    )
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, argv, message):
        data = tmp_path / "d.csv"
        write_dataset(Dataset(np.random.default_rng(1).normal(size=(40, 3))), data)
        out = tmp_path / "out"
        flags = {"experiment": ["--out-dir", str(out)], "generate": ["--out", str(out)]}
        argv = argv + flags.get(argv[0], ["--data", str(data), "--out", str(out)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        assert not out.exists()  # nothing solved, nothing written

    def test_generate_writes_parameters_and_data(self, tmp_path, capsys):
        paths = {name: tmp_path / name for name in ("g.json", "params.json", "d.csv")}
        code = main([
            "generate", "--p", "5", "--seed", "1", "--sigma2", "2.5", "--out", str(paths["g.json"]),
            "--params-out", str(paths["params.json"]), "--data-out", str(paths["d.csv"]), "--n", "40",
        ])
        assert code == 0
        assert "dataset (40 rows)" in capsys.readouterr().out
        g = read_graph(paths["g.json"])
        params = read_parameters(paths["params.json"])
        data = read_dataset(paths["d.csv"])
        assert params.graph == g and data.n == 40
        assert data.labels == tuple(g.node_label(j) for j in range(g.p))
        assert np.allclose(np.diag(params.sigma), 2.5, rtol=1e-12)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "0"], "error input_error: n must be >= 1\n"),
            (["--sigma2", "-1"], "error input_error: sigma2 must be positive and finite, got -1.0\n"),
        ],
        ids=["no-rows", "negative-sigma2"],
    )
    def test_failing_generate_writes_nothing(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--p", "3", "--out", "g.json", "--params-out", "p.json", "--data-out", "d.csv"]
        assert main([*argv, *flags]) == 2
        assert capsys.readouterr() == ("", message)
        assert not list(tmp_path.iterdir())

    def test_sep_takes_indices_and_rejects_out_of_range(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(3, directed={(0, 1), (1, 2)}), gpath)
        assert main(["sep", "--graph", str(gpath), "--a", "0", "--b", "2", "--c", "1"]) == 0
        assert capsys.readouterr().out == "separated: true\n"
        assert main(["sep", "--graph", str(gpath), "--a", "0", "--b", "3"]) == 2
        assert capsys.readouterr().err.startswith("error input_error: node index 3 out of range for p=3")

    def test_sep_enumerate_csv(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(3, directed={(0, 1)}), gpath)
        assert main(["sep", "--graph", str(gpath), "--enumerate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "j,k,C,separated"
        assert len(lines) == 1 + 6  # 3 pairs x 2 conditioning sets
        assert any(line.startswith("X1,X2,,False") for line in lines[1:])

    def test_sep_enumerate_matches_single_queries(self, tmp_path, capsys, six_node_graph):
        graphs = [
            ChainGraph(6, six_node_graph.directed, six_node_graph.undirected, labels=tuple("abcdef")),
            random_chain_graph(7, 0.4, 0.3, seed=7),
            random_chain_graph(8, 0.4, 0.3, seed=8),
        ]
        for g in graphs:
            gpath = tmp_path / "g.json"
            write_graph(g, gpath)
            assert main(["sep", "--graph", str(gpath), "--enumerate"]) == 0
            want = ["j,k,C,separated"]
            for j, k in itertools.combinations(range(g.p), 2):
                rest = [x for x in range(g.p) if x not in (j, k)]
                for r in range(len(rest) + 1):
                    for cond in itertools.combinations(rest, r):
                        q = SeparationQuery(frozenset({j}), frozenset({k}), frozenset(cond))
                        cell = ";".join(g.node_label(x) for x in cond)
                        want.append(f"{g.node_label(j)},{g.node_label(k)},{cell},{brute_force_separated(g, q)}")
            assert capsys.readouterr().out == "\n".join(want) + "\n", g

    def test_sep_enumerate_capacity_error(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(13, directed={(0, 1)}), gpath)
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

    def test_identify_flags_a_nonconverged_fit(self, tmp_path, capsys):
        g = random_chain_graph(5, 0.6, 0.6, seed=99)  # no member of its class is a DAG
        gpath = tmp_path / "g.json"
        write_graph(g, gpath)
        dpath = tmp_path / "d.csv"
        # every member's fit, the representative's too, stops at the round cap on these six rows
        write_dataset(Dataset(np.random.default_rng(595).normal(size=(6, 5))), dpath)
        cpath = tmp_path / "c.json"
        write_covariance(implied_distribution(random_parameters(g, seed=1)).cov, cpath)
        for source, path, converged in (("--data", dpath, False), ("--population", cpath, True)):
            out = tmp_path / "ident.json"
            assert main(["identify", "--class-rep", str(gpath), source, str(path), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert payload["converged"] is converged
            assert all(row["converged"] is converged and "gap" in row for row in payload["table"])
            assert ("converged=False" in capsys.readouterr().out) is not converged
            # the representative's own fit, as `ampcg fit` reports it
            assert main(["fit", "--graph", str(gpath), source, str(path), "--out", str(out)]) == 0
            assert json.loads(out.read_text())["converged"] is converged
            assert ("converged=False" in capsys.readouterr().out) is not converged

    def test_six_node_outputs_are_pinned(self, tmp_path, monkeypatch, capsys, six_node_graph):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        monkeypatch.chdir(tmp_path)
        write_graph(six_node_graph, "g.json")
        write_covariance(implied_distribution(params).cov, "c.json")
        write_dataset(sample(implied_distribution(params), 400, seed=32), "d.csv")
        pinned = json.loads((Path(__file__).parent / "data" / "six_node_cli.json").read_text())
        assert sorted(pinned) == sorted(_SIX_NODE_RUNS)
        for name, argv in _SIX_NODE_RUNS.items():
            out = f"{name}.json"
            assert main([*argv, "--out", out]) == 0, name
            assert capsys.readouterr().out.replace(out, "<out>") == pinned[name]["stdout"], name
            _assert_close(json.loads(Path(out).read_text()), pinned[name]["json"], name)

    @pytest.mark.parametrize("command", ["fit", "identify"])
    @pytest.mark.parametrize("source", ["--data", "--population"])
    def test_input_labels_in_another_order_are_input_error(self, tmp_path, capsys, command, source):
        g = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})  # X1 -> X2 - X3
        params = rescale_equal_variances(random_parameters(g, seed=4), 1.0)
        swap = [1, 0, 2]
        dist = implied_distribution(params)
        gpath, path, out = tmp_path / "g.json", tmp_path / "input", tmp_path / "out.json"
        write_graph(g, gpath)
        if source == "--data":
            data = sample(dist, 200, seed=5)
            write_dataset(Dataset(data.values[:, swap], labels=("X2", "X1", "X3")), path)
        else:
            write_covariance(dist.cov[np.ix_(swap, swap)], path, labels=("X2", "X1", "X3"))
        flag = "--graph" if command == "fit" else "--class-rep"
        assert main([command, flag, str(gpath), source, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input_error: column X2 stands where the graph has node X1")
        assert err.count("\n") == 1
        assert not out.exists()
        # in the graph's order the same input runs
        if source == "--data":
            write_dataset(Dataset(data.values, labels=("X1", "X2", "X3")), path)
        else:
            write_covariance(dist.cov, path, labels=("X1", "X2", "X3"))
        assert main([command, flag, str(gpath), source, str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "cells, message",
        [
            (("1.0", "nan", "2.0"), "error input_error: dataset has a non-finite entry nan in column b, data row 2"),
            (("1.0", "abc", "2.0"), "error input_error: column b, data row 2: 'abc' is not a number"),
            (("1.0", "2.0"), "error input_error: data row 2 ends before column c"),
        ],
        ids=["nan", "not-a-number", "short-row"],
    )
    def test_dataset_fault_names_the_cell(self, tmp_path, capsys, cells, message):
        dpath, gpath, out = tmp_path / "d.csv", tmp_path / "g.json", tmp_path / "f.json"
        dpath.write_text("a,b,c\n0.5,1.5,-1.0\n" + ",".join(cells) + "\n3.0,1.0,2.0\n")
        write_graph(ChainGraph(3, directed={(0, 1)}), gpath)
        assert main(["fit", "--graph", str(gpath), "--data", str(dpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_fit_of_a_near_collinear_dataset(self, tmp_path, capsys):
        g, data = near_collinear_input(87)
        dpath, gpath, out = tmp_path / "d.csv", tmp_path / "g.json", tmp_path / "f.json"
        write_dataset(data, dpath)
        write_graph(g, gpath)
        assert main(["fit", "--graph", str(gpath), "--data", str(dpath), "--out", str(out)]) == 0, capsys.readouterr().err
        assert json.loads(out.read_text())["converged"] is True

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

    def test_learn_two_phase_flags_a_nonconverged_fit(self, tmp_path, capsys):
        # the recovered class has one member, with an undirected edge, and its fit stops at the
        # round cap on these 15 rows
        rng = np.random.default_rng([15, 75])
        values = rng.normal(size=(15, 4)) @ (np.eye(4) + np.triu(3 * rng.normal(size=(4, 4)), 1))
        dpath = tmp_path / "d.csv"
        write_dataset(Dataset(values), dpath)
        g = ChainGraph(3, directed={(1, 0)}, undirected={(0, 2)})
        cpath = tmp_path / "c.json"
        write_covariance(implied_distribution(random_parameters(g, seed=1)).cov, cpath)
        for source, path, converged in (("--data", dpath, False), ("--population", cpath, True)):
            out = tmp_path / "learned.json"
            assert main(["learn", source, str(path), "--method", "two-phase", "--out", str(out)]) == 0
            assert ("converged=False" in capsys.readouterr().out) is not converged

    @pytest.mark.parametrize("method", ["greedy", "two-phase"])
    @pytest.mark.parametrize("source", ["--data", "--population"])
    def test_learn_keeps_the_input_labels(self, tmp_path, capsys, method, source):
        g = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        dist = implied_distribution(rescale_equal_variances(random_parameters(g, seed=4), 1.0))
        labels = ("rain", "mud", "wet")
        path, out = tmp_path / "input", tmp_path / "learned.json"
        if source == "--data":
            write_dataset(Dataset(sample(dist, 2000, seed=5).values, labels=labels), path)
        else:
            write_covariance(dist.cov, path, labels=labels)
        assert main(["learn", source, str(path), "--method", method, "--out", str(out)]) == 0
        learned = read_graph(out)
        assert learned.labels == labels
        printed = capsys.readouterr().out
        # labels leave the hash alone, and a covariance without labels keeps X1..Xp
        write_covariance(dist.cov, path)
        assert main(["learn", "--population", str(path), "--method", method, "--out", str(out)]) == 0
        assert read_graph(out).labels == ("X1", "X2", "X3")
        if source == "--population":
            assert capsys.readouterr().out == printed
            assert read_graph(out) == learned

    @pytest.mark.parametrize("method", ["greedy", "two-phase"])
    def test_learned_graph_fits_its_own_data(self, tmp_path, capsys, method):
        g = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        dist = implied_distribution(rescale_equal_variances(random_parameters(g, seed=4), 1.0))
        dpath, gpath, out = tmp_path / "d.csv", tmp_path / "learned.json", tmp_path / "fit.json"
        write_dataset(Dataset(sample(dist, 2000, seed=5).values, labels=("X2", "X1", "X3")), dpath)
        assert main(["learn", "--data", str(dpath), "--method", method, "--out", str(gpath)]) == 0
        # a graph labelled X1, X2, X3 would fail fit's check for the graph's labels in another order
        assert main(["fit", "--graph", str(gpath), "--data", str(dpath), "--out", str(out)]) == 0, capsys.readouterr().err
        assert json.loads(out.read_text())["params"]["graph"]["labels"] == ["X2", "X1", "X3"]

    @pytest.mark.parametrize("command", ["fit", "identify", "learn"])
    def test_every_input_command_takes_data_or_population_but_not_both(self, tmp_path, capsys, command):
        gpath, cpath, dpath = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "d.csv"
        g = ChainGraph(2, directed={(0, 1)})
        write_graph(g, gpath)
        write_covariance(np.array([[1.0, 1.0], [1.0, 2.0]]), cpath)
        write_dataset(sample(implied_distribution(random_parameters(g, seed=1)), 50, seed=2), dpath)
        graph = {"fit": ["--graph", str(gpath)], "identify": ["--class-rep", str(gpath)], "learn": []}[command]
        out = ["--out", str(tmp_path / "out.json")]
        assert main([command, *graph, "--data", str(dpath), *out]) == 0
        assert main([command, *graph, "--population", str(cpath), *out]) == 0
        capsys.readouterr()
        assert main([command, *graph, "--data", str(dpath), "--population", str(cpath), *out]) == 2
        assert capsys.readouterr().err == "error input_error: give either --data or --population, not both\n"
        assert main([command, *graph, *out]) == 2
        assert capsys.readouterr().err == "error input_error: one of --data or --population is required\n"

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

    def test_experiment_flags_override_the_config_file(self, tmp_path, capsys):
        cfg_path, out_dir = tmp_path / "c.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"p": 3, "seeds": [1], "sigma2": 2.0}))
        argv = ["experiment", "--config", str(cfg_path), "--method", "two-phase", "--p", "5", "--out-dir", str(out_dir)]
        assert main(argv) == 0
        report = json.loads((out_dir / "report.json").read_text())
        config = report["config"]
        assert (config["method"], config["p"], config["seeds"], config["sigma2"]) == ("two-phase", 5, [1], 2.0)
        assert [row["true_graph"]["p"] for row in report["rows"]] == [5]

    def test_experiment_flags_have_no_defaults(self):
        # a flag left out is absent, so ExperimentConfig's default (or the config file's value) stands
        args = cli._build_parser().parse_args(["experiment"])
        assert sorted(vars(args)) == ["command", "config", "func"] and args.config is None
        args = cli._build_parser().parse_args(["experiment", "--p", "4", "--method", "greedy"])
        assert (args.p, args.method) == (4, "greedy") and not hasattr(args, "workers")

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["--p", "3", "--seeds", "1,x"], None, "error input_error: invalid literal for int() with base 10: 'x'"),
            (["--p", "3", "--seeds", "1", "--n-list", "5,y"], None, "error input_error: invalid literal for int() with base 10: 'y'"),
            (["--seeds", "1,2"], None, "error input_error: --p and --seeds are required without --config"),
            (["--p", "3"], None, "error input_error: --p and --seeds are required without --config"),
            ([], {"p": 3, "seeds": [1], "bogus": True}, "error input_error: unknown field(s) in experiment config: ['bogus']"),
            ([], {"seeds": [1]}, "error input_error: missing field(s) in experiment config: ['p']"),
            ([], 5, "error input_error: experiment config must be a JSON object, got int"),
            ([], ["p", "seeds"], "error input_error: experiment config must be a JSON object, got list"),
            (["--p", "x", "--seeds", "1"], None, "error input_error: argument --p: invalid int value: 'x'"),
            ([], {"p": "3", "seeds": [1]}, "error input_error: p must be an integer, got '3'"),
            ([], {"p": 2.5, "seeds": [1]}, "error input_error: p must be an integer, got 2.5"),
            ([], {"p": 3, "seeds": [1], "sigma2": "2"}, "error input_error: sigma2 must be a number, got '2'"),
            ([], {"p": 3, "seeds": [1], "workers": 1.5}, "error input_error: workers must be an integer, got 1.5"),
            ([], {"p": 3, "seeds": 7}, "error input_error: seeds must be a list of integers, got int"),
            ([], {"p": 3, "seeds": [1], "n_list": [0]}, "error input_error: n_list must be >= 1, got 0"),
        ],
        ids=[
            "bad-seeds",
            "bad-n-list",
            "missing-p",
            "missing-seeds",
            "unknown-field",
            "config-without-p",
            "config-not-an-object",
            "config-a-list",
            "argparse-bad-int",
            "config-p-a-string",
            "config-p-a-float",
            "config-sigma2-a-string",
            "config-workers-a-float",
            "config-seeds-an-int",
            "config-n-list-zero",
        ],
    )
    def test_experiment_failure_is_one_error_line(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv = ["--config", str(tmp_path / "c.json"), *argv]
        out_dir = tmp_path / "out"
        assert main(["experiment", *argv, "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        assert not out_dir.exists()

    def test_experiment_reports_are_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("exp.json").write_text(json.dumps({"p": 3, "seeds": [1, 2], "method": "identify"}))
        pinned = json.loads((Path(__file__).parent / "data" / "experiment_reports.json").read_text())
        assert sorted(pinned) == sorted(_EXPERIMENT_RUNS)
        for name, argv in _EXPERIMENT_RUNS.items():
            assert main([*argv, "--out-dir", name]) == 0, name
            report = json.loads(Path(name, "report.json").read_text())
            assert report["config"].pop("out_dir") == name
            for row in report["rows"]:
                assert row.pop("runtime_s") >= 0
            _assert_close(report, pinned[name], name)

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["sep", "--a", "X1"], "error input_error: the following arguments are required: --graph"),
            (["generate", "--p", "3", "--seed", "y", "--out", "g.json"], "error input_error: argument --seed: "),
            (["learn", "--data", "d.csv", "--method", "bad", "--out", "o.json"], "error input_error: argument --method: "),
            (["experiment", "--p", "3", "--seeds", "1", "--method", "bogus"], "error input_error: argument --method: "),
            (["fit", "--graph", "g.json", "--data", "d.csv", "--out", "f.json", "--bogus"], "error input_error: "),
            (["bogus"], "error input_error: argument command: "),
            ([], "error input_error: the following arguments are required: command"),
        ],
        ids=[
            "missing-flag",
            "bad-type",
            "learn-choice",
            "experiment-choice",
            "unknown-flag",
            "unknown-command",
            "no-command",
        ],
    )
    def test_argparse_rejection_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv, start):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(start) and captured.err.count("\n") == 1 and captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ampcg learn")

    def test_learn_on_repeated_labels_is_one_error_line(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("a,a,b\n1,2,3\n2,1,0.5\n3,3,1\n0.5,1,2\n")
        out = tmp_path / "learned.json"
        assert main(["learn", "--data", str(tmp_path / "d.csv"), "--method", "two-phase", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error input_error: label 'a' names more than one column\n" and captured.out == ""
        assert not out.exists()

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

    def test_identify_population_outside_the_class_is_input_error(self, tmp_path, capsys):
        chain = ChainGraph(3, directed={(0, 1), (1, 2)})
        cpath = tmp_path / "c.json"
        write_covariance(implied_distribution(random_parameters(chain, seed=2)).cov, cpath)
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(3, directed={(0, 1)}), gpath)
        out = tmp_path / "ident.json"
        assert main(["identify", "--class-rep", str(gpath), "--population", str(cpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input_error: covariance is not a distribution") and err.count("\n") == 1
        assert "X1 and X2" in err and not out.exists()

    def test_conflicting_inputs_rejected(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(2), gpath)
        assert main(["fit", "--graph", str(gpath), "--out", str(tmp_path / "f.json")]) == 2
        assert capsys.readouterr().err.startswith("error input_error:")
        cpath, dpath = tmp_path / "c.json", tmp_path / "d.csv"
        write_covariance(np.eye(2), cpath)
        write_dataset(Dataset(np.random.default_rng(1).normal(size=(10, 2))), dpath)
        both = ["--data", str(dpath), "--population", str(cpath)]
        assert main(["fit", "--graph", str(gpath), *both, "--out", str(tmp_path / "f.json")]) == 2
        assert capsys.readouterr().err.startswith("error input_error: give either --data or --population")

    def test_fit_equal_var_at_a_degenerate_correlation_is_numeric_error(self, tmp_path, capsys):
        cov = np.diag([1e6, 1e6, 1e-6, 1e-6, 1e6])
        cov[2, 3] = cov[3, 2] = 0.5e-6
        cpath, gpath, out = tmp_path / "c.json", tmp_path / "g.json", tmp_path / "f.json"
        write_covariance(cov, cpath)
        write_graph(ChainGraph(5, undirected={(2, 3)}), gpath)
        args = ["fit", "--graph", str(gpath), "--population", str(cpath), "--equal-var", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error numeric_error: ") and "X3 and X4" in err and err.count("\n") == 1
        assert not out.exists()

    def test_one_parser_serves_back_to_back_calls(self, tmp_path, monkeypatch, capsys):
        runs = [
            ["generate", "--p", "4", "--seed", "3", "--out", "g.json", "--params-out", "params.json"],
            ["generate", "--p", "3", "--out", "h.json"],
            ["sep", "--graph", "g.json", "--a", "X1", "--b", "X2", "--c", "X3,X4"],
            ["sep", "--graph", "g.json", "--a", "X1", "--b", "X2"],
            ["sep", "--graph", "g.json", "--enumerate"],
            ["magnify", "--graph", "h.json"],
            ["learn", "--population", "c.json", "--method", "two-phase", "--out", "two.json"],
            ["learn", "--population", "c.json", "--out", "greedy.json"],
            ["experiment", "--p", "3", "--seeds", "1,2", "--method", "two-phase"],
            ["experiment", "--p", "3", "--seeds", "4"],
            ["sep", "--graph", "missing.json", "--a", "X1", "--b", "X2"],
            ["sep", "--a", "X1"],  # argparse rejects it: no --graph
        ]

        def run_all(workdir, fresh):
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            collider = ChainGraph(3, directed={(0, 1), (2, 1)})
            write_covariance(implied_distribution(random_parameters(collider, seed=2)).cov, "c.json")
            got = []
            for argv in runs:
                if fresh:
                    cli._build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                got.append((code, *capsys.readouterr()))
            files = {path.name: path.read_text() for path in sorted(workdir.iterdir())}
            return got, files

        fresh = run_all(tmp_path / "fresh", fresh=True)
        shared = run_all(tmp_path / "shared", fresh=False)
        assert shared == fresh
        assert [code for code, _out, _err in shared[0]] == [0] * 10 + [2, 2]
        assert cli._build_parser() is cli._build_parser()

    def test_console_entry_point(self, tmp_path):
        gpath = tmp_path / "g.json"
        write_graph(ChainGraph(2, directed={(0, 1)}), gpath)
        # the child finds the package where this process did, installed or not
        source = str(Path(ampcg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
        run = lambda *argv: subprocess.run([sys.executable, "-m", "ampcg", *argv], capture_output=True, text=True, env=env)
        proc = run("sep", "--graph", str(gpath), "--a", "0", "--b", "1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "separated: false"
        # a command line argparse rejects is one error line and exit code 2 from the process too
        proc = run("experiment", "--p", "x", "--seeds", "1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error input_error:")
