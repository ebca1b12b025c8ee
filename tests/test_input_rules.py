"""The input rules at every entry point that takes the input: integers, node sets, labels and the node-count cap.

An integer is a `numbers.Integral` that is not a bool (`seeds._integer`); a
node set holds integers in 0..p-1 (`graphs._node_indices`); labels are a
list or tuple of distinct strings, one per node, column or covariance row
(`graphs._node_labels`). A float is never truncated, a bool is never a
node and a bare string is never split into labels; a numpy integer is
the plain int it equals.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from ampcg import (
    CapacityError,
    ChainGraph,
    Dataset,
    ExperimentConfig,
    GaussianDistribution,
    MagnifiedGraph,
    SearchConfig,
    SeparationQuery,
    Triplex,
    compose_seed,
    condition,
    determined_closure,
    equivalence_class,
    fit_component,
    gaussian_ci,
    graph_from_dict,
    implied_distribution,
    ipf,
    magnify,
    moment_matrix,
    orientations,
    random_chain_graph,
    random_parameters,
    read_covariance,
    relatives,
    sample,
    separated,
    separated_magnified,
    skeleton_recovery,
    write_covariance,
)
from ampcg.separation import _separations

_G = ChainGraph(3, directed={(0, 1), (1, 2)})
_COV = implied_distribution(random_parameters(_G, seed=1)).cov
_DIST = GaussianDistribution(np.zeros(3), _COV)

# entry point -> (call on one node index or count, a valid value, an out-of-range value)
_NODE_INPUTS = {
    "ChainGraph-count": (lambda v: ChainGraph(v, directed={(0, 1)}), 3, 0),
    "ChainGraph-directed": (lambda v: ChainGraph(3, directed={(0, v)}), 1, 3),
    "ChainGraph-undirected": (lambda v: ChainGraph(3, undirected={(v, 0)}), 1, -1),
    "random_chain_graph": (lambda v: random_chain_graph(v, 0.5, 0.3, seed=4), 4, 0),
    "MagnifiedGraph": (lambda v: MagnifiedGraph(magnify(_G).base, (v, 4, 5)), 3, 6),
    "relatives": (lambda v: relatives(_G, {v}, "parents"), 1, 3),
    "determined_closure": (lambda v: determined_closure(magnify(_G), {v}), 1, 6),
    "separated": (lambda v: separated(_G, SeparationQuery({0}, {2}, {v})), 1, 3),
    "separated_magnified": (lambda v: separated_magnified(magnify(_G), SeparationQuery({v}, {2})), 0, 3),
    "gaussian_ci": (lambda v: gaussian_ci(_COV, v, 2), 0, 3),
    "gaussian_ci-given": (lambda v: gaussian_ci(_COV, 0, 2, {v}), 1, -1),
    "condition": (lambda v: condition(_DIST, [v], [0.5]).cov, 1, 3),
    "fit_component": (lambda v: fit_component(_COV, _G, {v}).sigma, 1, 3),
    "ipf": (lambda v: ipf(_COV, [(0, v)]).sigma, 1, 3),
    "orientations-target": (lambda v: list(orientations(3, {(0, 1), (1, 2)}, {Triplex(0, 1, v)})), 2, 3),
    "moment_matrix": (lambda v: moment_matrix(_COV, v)[0], 3, 2),
}


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b and type(a) is type(b)


@pytest.mark.parametrize("entry", list(_NODE_INPUTS))
@pytest.mark.parametrize("bad", ["a-float", "a-bool", "out-of-range"])
def test_node_index_or_count_is_rejected_naming_it(entry, bad):
    call, good, outside = _NODE_INPUTS[entry]
    value = {"a-float": good + 0.5, "a-bool": True, "out-of-range": outside}[bad]
    with pytest.raises(ValueError) as raised:  # GraphStructureError is a ValueError
        call(value)
    assert repr(value) in str(raised.value)


@pytest.mark.parametrize("entry", list(_NODE_INPUTS))
def test_a_numpy_integer_node_is_the_plain_int(entry):
    call, good, _outside = _NODE_INPUTS[entry]
    assert _same(call(np.int64(good)), call(good))


# entry point -> (call on one integer, a valid value): a float or a bool is rejected by name
_INTEGER_INPUTS = {
    "sample-n": (lambda v: sample(_DIST, v, seed=2).values, 5),
    "SearchConfig-restarts": (lambda v: SearchConfig(restarts=v), 2),
    "compose_seed": (lambda v: compose_seed(v, 2), 7),
    "compose_seed-sequence": (lambda v: compose_seed((1, v)), 7),
    "ExperimentConfig-p": (lambda v: ExperimentConfig(p=v, seeds=(1,)), 3),
    "ExperimentConfig-seeds": (lambda v: ExperimentConfig(p=3, seeds=(v,)), 1),
    "ExperimentConfig-n_list": (lambda v: ExperimentConfig(p=3, seeds=(1,), n_list=(v,)), 10),
    "ExperimentConfig-workers": (lambda v: ExperimentConfig(p=3, seeds=(1,), workers=v), 1),
}


@pytest.mark.parametrize("entry", list(_INTEGER_INPUTS))
@pytest.mark.parametrize("value", [2.0, True], ids=["a-float", "a-bool"])
def test_integer_input_is_rejected_naming_it(entry, value):
    call, _good = _INTEGER_INPUTS[entry]
    with pytest.raises(ValueError, match=f"integer, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("entry", list(_INTEGER_INPUTS))
def test_a_numpy_integer_is_the_plain_int(entry):
    call, good = _INTEGER_INPUTS[entry]
    assert _same(call(np.int64(good)), call(good))


def test_a_sequence_of_seeds_is_any_iterable_but_a_string():
    want = compose_seed([1, 2], 3)
    assert compose_seed((1, 2), 3) == compose_seed(np.array([1, 2]), 3) == compose_seed(range(1, 3), 3) == want
    with pytest.raises(ValueError, match="^seed must be an integer, got '12'$"):
        compose_seed("12")


def test_restarts_out_of_range_is_named():
    with pytest.raises(ValueError, match="^restarts must be a positive integer, got 0$"):
        SearchConfig(restarts=0)


def test_numpy_counts_are_stored_as_ints():
    assert type(ChainGraph(np.int64(2)).p) is int
    cfg = ExperimentConfig(p=np.int64(3), seeds=(np.int64(1),), workers=np.int64(1))
    assert type(cfg.p) is int and type(cfg.workers) is int and type(cfg.seeds[0]) is int


def _read_covariance_with(labels, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"cov": np.eye(2).tolist(), "labels": labels}))
    return read_covariance(path)


# entry point -> call on labels for two nodes, columns or covariance rows
_LABEL_INPUTS = {
    "ChainGraph": lambda labels, tmp_path: ChainGraph(2, labels=labels),
    "graph_from_dict": lambda labels, tmp_path: graph_from_dict(
        {"p": 2, "directed": [], "undirected": [], "labels": labels}
    ),
    "Dataset": lambda labels, tmp_path: Dataset(np.eye(2), labels=labels),
    "sample": lambda labels, tmp_path: sample(GaussianDistribution(np.zeros(2), np.eye(2)), 3, seed=0, labels=labels),
    "write_covariance": lambda labels, tmp_path: write_covariance(np.eye(2), tmp_path / "c.json", labels=labels),
    "read_covariance": _read_covariance_with,
}


@pytest.mark.parametrize("entry", list(_LABEL_INPUTS))
@pytest.mark.parametrize(
    "labels, message",
    [
        ("ab", "must be a list of strings, got 'ab'"),
        (["a", 1], r"must be a list of strings, got \['a', 1\]"),
        (["a", "a"], "label 'a' names more than one "),
        (["a"], r"expected 2 labels, one per [a-z ]+, got 1$|^covariance has 1 labels for 2 rows$"),
    ],
    ids=["a-bare-string", "a-non-string", "repeated", "wrong-count"],
)
def test_bad_labels_are_rejected(entry, labels, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        _LABEL_INPUTS[entry](labels, tmp_path)


@pytest.mark.parametrize("entry", list(_LABEL_INPUTS))
def test_a_tuple_of_strings_is_taken(entry, tmp_path):
    _LABEL_INPUTS[entry](("a", "b"), tmp_path)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: equivalence_class(ChainGraph(13)), "equivalence-class enumeration"),
        (lambda: _separations(ChainGraph(13)), "separation enumeration"),
        (lambda: skeleton_recovery(np.eye(13)), "skeleton recovery"),
    ],
    ids=["equivalence_class", "separations", "skeleton_recovery"],
)
def test_the_node_count_cap_names_the_enumeration(call, what):
    with pytest.raises(CapacityError, match=f"^{what} capped at p=12, got p=13$"):
        call()
