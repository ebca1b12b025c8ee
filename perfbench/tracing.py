"""Per-layer tracing of ampcg from outside the library.

Each traced function is replaced, for the duration of a ``with
Tracer().patched()`` block, by a timing wrapper in every namespace that
callers look it up in: the defining module and each ``ampcg`` module that
copied the name with ``from .x import f``. The wrapper counts calls, adds
the call's self time (its duration minus the time of traced calls made
inside it) and reads work counts off the returned value. Nothing in the
library changes; leaving the block restores every original attribute.

``TRACED`` is also the layer map: each entry names the end-to-end metric
and workload that a change to that function should move.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Traced:
    name: str
    module: str
    attr: str
    moves: str
    counts: dict = field(default_factory=dict)  # metric name -> f(result) -> number


def _row_errors(report) -> int:
    return sum(1 for row in report.rows if row["error"])


TRACED = (
    Traced(
        "graphs.equivalence_class",
        "ampcg.graphs",
        "equivalence_class",
        "problems_per_s on experiment-two-phase",
        {"graphs.equivalence_class.members": len},
    ),
    Traced("graphs.markov_equivalent", "ampcg.graphs", "markov_equivalent", "problems_per_s on experiment-two-phase"),
    Traced("graphs.is_chain_graph", "ampcg.graphs", "is_chain_graph", "problems_per_s on greedy-data"),
    Traced(
        "separation.all_separations",
        "ampcg.separation",
        "all_separations",
        "setup_s and problems_per_s on experiment-two-phase",
    ),
    Traced(
        "sem.faithful_parameters",
        "ampcg.sem",
        "faithful_parameters",
        "setup_s and problems_per_s on experiment-two-phase; calls/draws is the useful share",
        {"sem.faithful_parameters.draws": lambda result: result[1]},
    ),
    Traced("sem.gaussian_ci", "ampcg.sem", "gaussian_ci", "problems_per_s on experiment-two-phase"),
    Traced(
        "search.skeleton_recovery",
        "ampcg.search",
        "skeleton_recovery",
        "problems_per_s on experiment-two-phase",
    ),
    Traced(
        "search.identify_in_class",
        "ampcg.search",
        "identify_in_class",
        "problems_per_s on identify-data and experiment-two-phase",
    ),
    Traced(
        "search.greedy_search",
        "ampcg.search",
        "greedy_search",
        "problems_per_s, problem_s_p50 and peak_rss_mb on greedy-data",
    ),
    Traced(
        "estimation.fit",
        "ampcg.estimation",
        "fit",
        "problems_per_s on identify-data and greedy-data",
        {
            "estimation.fit.outer_rounds": lambda result: result.iterations,
            "estimation.fit.nonconverged": lambda result: int(not result.converged),
        },
    ),
    Traced("estimation.fit_component", "ampcg.estimation", "fit_component", "problems_per_s on experiment-two-phase"),
    Traced(
        "estimation.ipf",
        "ampcg.estimation",
        "ipf",
        "problems_per_s on experiment-two-phase",
        {
            "estimation.ipf.sweeps": lambda result: result.iterations,
            "estimation.ipf.nonconverged": lambda result: int(not result.converged),
        },
    ),
    # The equal-variance fit's L-BFGS: scipy.optimize.minimize as estimation looks it up.
    Traced(
        "estimation.lbfgs",
        "scipy.optimize",
        "minimize",
        "problems_per_s on identify-data and greedy-data",
        {"estimation.lbfgs.iterations": lambda result: result.nit},
    ),
    Traced(
        "estimation.penalized_score",
        "ampcg.estimation",
        "penalized_score",
        "problems_per_s, problem_s_p50 and peak_rss_mb on greedy-data",
    ),
    Traced(
        "experiments.run_experiment",
        "ampcg.experiments",
        "run_experiment",
        "problems_per_s and failed_frac on experiment-two-phase",
        {"experiments.row_errors": _row_errors},
    ),
    Traced("io.graph_hash", "ampcg.io", "graph_hash", "problems_per_s on experiment-two-phase"),
    Traced("cli.main", "ampcg.cli", "main", "problems_per_s and failed_frac on experiment-two-phase"),
)


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for t in TRACED:
        units[f"{t.name}.calls"] = "count"
        units[f"{t.name}.self_s"] = "s"
        units.update(dict.fromkeys(t.counts, "count"))
    return units


def _namespaces(home: str) -> list:
    names = [home] + sorted(n for n in sys.modules if n == "ampcg" or n.startswith("ampcg."))
    return [sys.modules[n] for n in dict.fromkeys(names)]


class Tracer:
    """Call counts, self seconds and work counts per traced function."""

    def __init__(self):
        self.values = dict.fromkeys(metric_units(), 0)
        self._open: list[float] = []  # per open traced call: seconds spent in traced children

    def _wrap(self, t: Traced, fn: Callable) -> Callable:
        calls, self_s = f"{t.name}.calls", f"{t.name}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.values[calls] += 1
                self.values[self_s] += elapsed - children
            for name, count in t.counts.items():
                self.values[name] += count(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        replaced = []
        try:
            for t in TRACED:
                fn = getattr(importlib.import_module(t.module), t.attr)
                wrapper = self._wrap(t, fn)
                for namespace in _namespaces(t.module):
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            replaced.append((namespace, key, value))
                            setattr(namespace, key, wrapper)
            yield self
        finally:
            for namespace, key, value in reversed(replaced):
                setattr(namespace, key, value)

    def counts(self) -> dict:
        """The metrics that must repeat exactly: everything but self time."""
        return {k: v for k, v in self.values.items() if not k.endswith(".self_s")}
