"""Every benchmark gate of CI in one command: the benchmark smoke and the traced smoke.

Run from anywhere in a checkout:

    python3 tools/ci_gates.py

Each run is ``perfbench/run.py`` in a child process, at ``--seconds 3``
for the smoke and ``--trace 1`` for the traced smoke; the gates read the
JSON object on its last line. The script prints one line per gate, PASS
or FAIL with the values it compared, and exits 1 if any gate fails. A run
that exits non-zero or prints no JSON fails every gate it carries.
"""

from __future__ import annotations

import json
import operator
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = 3
IDENTIFY = "search.identify_in_class"
_OPS = {"==": operator.eq, ">=": operator.ge}


def _value(result: dict, name: str):
    return result["metrics"][name]["value"]


def _correct(result: dict) -> tuple[bool, str]:
    ok = result["correct"] is True and result["failed"] == 0
    return ok, f"correct {result['correct']} and failed {result['failed']} == 0"


def _traced_correct(result: dict) -> tuple[bool, str]:
    return result["correct"] is True, f"correct {result['correct']}"


def _exact_rate(op: str, bound: float):
    def gate(result: dict) -> tuple[bool, str]:
        rate = _value(result, "exact_rate")
        return _OPS[op](rate, bound), f"exact_rate {rate} {op} {bound}"

    return gate


def _zero(metric: str):
    def gate(result: dict) -> tuple[bool, str]:
        value = _value(result, metric)
        return value == 0, f"{metric} {value} == 0"

    return gate


def _calls(layer: str, op: str, *others: str):
    """`layer`'s call count against the sum of the `others`' call counts."""

    def gate(result: dict) -> tuple[bool, str]:
        a, b = _value(result, f"{layer}.calls"), sum(_value(result, f"{other}.calls") for other in others)
        return _OPS[op](a, b), f"{layer}.calls {a} {op} {' + '.join(f'{other}.calls' for other in others)} {b}"

    return gate


# (workload, seed, traced, gates)
RUNS = (
    # 41 of 48 exact recoveries at seed 1: a cheaper ranking statistic must not lose any
    ("identify-data", 1, False, (_correct, _exact_rate(">=", 0.854))),
    # 17 of 20 at seed 1: the scorer's singleton residual total T0 must not lose any, and no move
    # greedy leaves unscored on its bound may have been the best one
    ("greedy-data", 1, False, (_correct, _exact_rate(">=", 0.85))),
    # exact population identification (criterion 7) through the two-phase pipeline
    ("experiment-two-phase", 1, False, (_correct, _exact_rate("==", 1.0))),
    # 16 of 20 at seed 2: no move left unscored on its bound was the best one
    ("greedy-data", 2, False, (_correct, _exact_rate(">=", 0.8))),
    # 17 of 20 at seed 3: the edge sweeps must choose as the descent they replace on tree-shaped components
    ("greedy-data", 3, False, (_correct, _exact_rate(">=", 0.85))),
    # 19 of 20 at seed 4: each multi-node component bounded at its decomposable maximum leaves more
    # moves unscored, and none of them may have been the best one
    ("greedy-data", 4, False, (_correct, _exact_rate(">=", 0.95))),
    # more class shapes through the bitmask class enumeration and route search: exact at population
    ("experiment-two-phase", 2, False, (_correct, _exact_rate("==", 1.0))),
    # each identification fits one member through the public estimation.fit; every identification
    # lists its class once through graphs.equivalence_class, which checks its graph through
    # graphs.is_chain_graph; a graph is checked once per public entry point, so those two calls
    # check every graph there is (the fit's params are not checked again); every class here has a
    # DAG member, the one fit, so the fit is closed form: no GLS/IPF round runs and none stops at
    # its cap
    (
        "identify-data",
        1,
        True,
        (
            _traced_correct,
            _calls("estimation.fit", "==", IDENTIFY),
            _calls("graphs.equivalence_class", "==", IDENTIFY),
            _calls("graphs.is_chain_graph", ">=", IDENTIFY),
            _calls("graphs.is_chain_graph", "==", "estimation.fit", "graphs.equivalence_class"),
            _zero("estimation.fit.outer_rounds"),
            _zero("estimation.fit.nonconverged"),
        ),
    ),
    ("greedy-data", 1, True, (_traced_correct,)),
    (
        "experiment-two-phase",
        1,
        True,
        (
            _traced_correct,
            _calls("graphs.equivalence_class", "==", IDENTIFY),
            _calls("graphs.is_chain_graph", ">=", IDENTIFY),
        ),
    ),
)


def _argv(workload: str, seed: int, traced: bool) -> list:
    mode = ["--trace", "1"] if traced else ["--seconds", str(SMOKE_SECONDS)]
    return [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed), *mode]


def run(workload: str, seed: int, traced: bool) -> dict | str:
    """The run's last-line JSON object, or a string saying why there is none."""
    done = subprocess.run(_argv(workload, seed, traced), cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return f"run exited {done.returncode}"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "run printed no JSON result"


def check(gates: tuple, result: dict | str) -> list:
    """(passed, what was compared) per gate; a missing result or metric fails the gate."""
    if isinstance(result, str):
        return [(False, result)] * len(gates)
    out = []
    for gate in gates:
        try:
            out.append(gate(result))
        except (KeyError, TypeError) as exc:
            out.append((False, f"no {exc} in the result"))
    return out


def main() -> int:
    failed = 0
    for workload, seed, traced, gates in RUNS:
        name = f"{workload} seed {seed}{' traced' if traced else ''}"
        for ok, text in check(gates, run(workload, seed, traced)):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {text}", flush=True)
            failed += not ok
    print(f"{failed} gate(s) failed" if failed else "every gate passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
