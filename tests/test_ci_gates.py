"""The gates of `tools/ci_gates.py` on hand-made run results: no benchmark runs here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ci_gates.py"
_SPEC = importlib.util.spec_from_file_location("ci_gates", _PATH)
ci_gates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ci_gates)

_LAYERS = ("search.identify_in_class", "estimation.fit", "graphs.equivalence_class", "graphs.is_chain_graph")


def _result(exact_rate=1.0, failed=0, outer_rounds=0, nonconverged=0, **calls):
    metrics = {"exact_rate": {"value": exact_rate, "unit": "share"}}
    for layer in _LAYERS:
        value = calls.get(layer.split(".")[1], 48 * (2 if layer == "graphs.is_chain_graph" else 1))
        metrics[f"{layer}.calls"] = {"value": value, "unit": "count"}
    metrics["estimation.fit.outer_rounds"] = {"value": outer_rounds, "unit": "count"}
    metrics["estimation.fit.nonconverged"] = {"value": nonconverged, "unit": "count"}
    return {"correct": failed == 0, "attempted": 48, "failed": failed, "metrics": metrics}


def _gates(workload, seed, traced):
    (gates,) = [g for w, s, t, g in ci_gates.RUNS if (w, s, t) == (workload, seed, traced)]
    return gates


def test_the_gates_are_the_workflows_with_one_added():
    passing = _result()
    lines = [
        f"{w} {s} {t}: {text}" for w, s, t, gates in ci_gates.RUNS for ok, text in ci_gates.check(gates, passing) if ok
    ]
    assert lines == [
        "identify-data 1 False: correct True and failed 0 == 0",
        "identify-data 1 False: exact_rate 1.0 >= 0.854",
        "greedy-data 1 False: correct True and failed 0 == 0",
        "greedy-data 1 False: exact_rate 1.0 >= 0.85",
        "experiment-two-phase 1 False: correct True and failed 0 == 0",
        "experiment-two-phase 1 False: exact_rate 1.0 == 1.0",
        "greedy-data 2 False: correct True and failed 0 == 0",
        "greedy-data 2 False: exact_rate 1.0 >= 0.8",
        "greedy-data 3 False: correct True and failed 0 == 0",
        "greedy-data 3 False: exact_rate 1.0 >= 0.85",
        "experiment-two-phase 2 False: correct True and failed 0 == 0",
        "experiment-two-phase 2 False: exact_rate 1.0 == 1.0",
        "identify-data 1 True: correct True",
        "identify-data 1 True: estimation.fit.calls 48 == search.identify_in_class.calls 48",
        "identify-data 1 True: graphs.equivalence_class.calls 48 == search.identify_in_class.calls 48",
        "identify-data 1 True: graphs.is_chain_graph.calls 96 >= search.identify_in_class.calls 48",
        "identify-data 1 True: graphs.is_chain_graph.calls 96 == estimation.fit.calls + graphs.equivalence_class.calls 96",
        "identify-data 1 True: estimation.fit.outer_rounds 0 == 0",
        "identify-data 1 True: estimation.fit.nonconverged 0 == 0",
        "greedy-data 1 True: correct True",
        "experiment-two-phase 1 True: correct True",
        "experiment-two-phase 1 True: graphs.equivalence_class.calls 48 == search.identify_in_class.calls 48",
        "experiment-two-phase 1 True: graphs.is_chain_graph.calls 96 >= search.identify_in_class.calls 48",
    ]


@pytest.mark.parametrize(
    "run, result",
    [
        (("identify-data", 1, False), _result(exact_rate=40 / 48)),
        (("greedy-data", 2, False), _result(exact_rate=0.75)),
        (("experiment-two-phase", 1, False), _result(exact_rate=59 / 60)),
        (("greedy-data", 1, False), _result(failed=1)),
        (("identify-data", 1, True), _result(fit=49)),
        (("identify-data", 1, True), _result(equivalence_class=47)),
        (("experiment-two-phase", 1, True), _result(is_chain_graph=0)),
        (("identify-data", 1, True), "run exited 1"),
        # the representatives' GLS/IPF rounds at seed 1 before a DAG member was fit instead
        (("identify-data", 1, True), _result(outer_rounds=46)),
        (("identify-data", 1, True), _result(nonconverged=1)),
        # fit's params checked their graph again, as before they were built on the trusted path
        (("identify-data", 1, True), _result(is_chain_graph=144)),
        # one more miss at seed 3 than the 17 of 20 the descent and the edge sweeps both reach
        (("greedy-data", 3, False), _result(exact_rate=0.8)),
    ],
)
def test_a_planted_regression_fails_a_gate(run, result):
    outcomes = ci_gates.check(_gates(*run), result)
    assert not all(ok for ok, _ in outcomes)


def test_a_missing_metric_fails_its_gate():
    result = _result()
    del result["metrics"]["graphs.is_chain_graph.calls"]
    outcomes = ci_gates.check(_gates("identify-data", 1, True), result)
    assert [ok for ok, _ in outcomes] == [True, True, True, False, False, True, True]


def test_the_workflow_runs_only_the_local_commands():
    # every CI check runs locally too: a step of its own in the workflow would be a check tier-1 lacks
    workflow = _PATH.parent.parent / ".github" / "workflows" / "tests.yml"
    runs = [line.split("run:", 1)[1].strip() for line in workflow.read_text().splitlines() if "run:" in line]
    assert runs == [
        'python -m pip install -e ".[test]"',
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=10",
        "python3 tools/ci_gates.py",
    ]
