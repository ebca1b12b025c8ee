"""The benchmark workloads: seeded inputs, the call under test, and its check.

Each workload makes a fixed set of problems from the run's seed. The two
library workloads take their models from one fixed catalogue, drawn once
by the library's own ``random_chain_graph`` and ``random_parameters``; the
seed relabels every model's nodes and draws its samples and the greedy
restart seed. The cost of a recovery problem is set by the size of the
truth's equivalence class and, through the iterations its fits need, by
the parameters, and both are heavy tailed; fixing the models keeps that
mix the same across seeds and across commits.

The experiment workload cannot fix shapes, because the CLI draws its graph
from the experiment seed. It stratifies instead: each catalogue slot takes
the first experiment seed whose graph has as many edges outside triplexes
as the slot's catalogue graph, which on a sample of 100 p=6 problems
accounted for two thirds of the variance in problem time.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ampcg import cli, graphs, search
from ampcg.graphs import ChainGraph, random_chain_graph
from ampcg.sem import (
    GaussianDistribution,
    compose_seed,
    implied_distribution,
    random_parameters,
    rescale_equal_variances,
    sample,
)

# Taken before any tracer patches the modules, so the checks stay out of the trace.
_markov_equivalent = graphs.markov_equivalent
_is_chain_graph = graphs.is_chain_graph

CATALOGUE_SEED = 1806_08156
WARMUP_P = 3
GREEDY_RESTARTS = 2


@dataclass(frozen=True, eq=False)
class Problem:
    truth: ChainGraph
    data: object
    search_seed: int


def _relabel(g: ChainGraph, perm) -> ChainGraph:
    return ChainGraph(
        g.p,
        frozenset((int(perm[a]), int(perm[b])) for a, b in g.directed),
        frozenset((int(perm[a]), int(perm[b])) for a, b in g.undirected),
    )


@dataclass(frozen=True)
class Recovery:
    """identify_in_class or greedy_search on catalogue models."""

    name: str
    method: str  # "identify" or "greedy"
    p: int
    n: int
    count: int

    @property
    def size(self) -> str:
        return f"p={self.p} n={self.n}"

    def problems(self, seed: int, p: int | None = None) -> list:
        p = p or self.p
        out = []
        for i in range(self.count):
            shape = random_chain_graph(p, 0.4, 0.3, seed=compose_seed(CATALOGUE_SEED, p, i))
            params = rescale_equal_variances(random_parameters(shape, seed=compose_seed(CATALOGUE_SEED, p, i, 1)))
            rng = np.random.default_rng(compose_seed(seed, p, i))
            perm = rng.permutation(p)
            truth = _relabel(shape, perm)
            old = np.argsort(perm)  # old[new label] = catalogue label
            cov = implied_distribution(params).cov
            dist = GaussianDistribution(mean=np.zeros(p), cov=cov[np.ix_(old, old)])
            data = sample(dist, self.n, seed=compose_seed(seed, p, i, 2))
            out.append(Problem(truth, data, int(rng.integers(2**31))))
        return out

    def warmup(self, seed: int) -> list:
        return self.problems(seed, p=WARMUP_P)[:1]

    def solve(self, problem: Problem, workdir: Path):
        if self.method == "identify":
            return search.identify_in_class(problem.truth, problem.data).chosen
        cfg = search.SearchConfig(restarts=GREEDY_RESTARTS, seed=problem.search_seed)
        return search.greedy_search(problem.data, cfg)

    def check(self, problem: Problem, chosen: ChainGraph, workdir: Path) -> tuple[bool, bool]:
        """(output passes the check, output is exactly the truth)."""
        exact = chosen == problem.truth
        if self.method == "greedy":
            return _is_chain_graph(chosen), exact
        return _markov_equivalent(chosen, problem.truth), exact


# The CLI's defaults for --edge-prob and --undirected-frac, and the way
# run_experiment derives each seed's graph from them.
_EXPERIMENT_DENSITY = (0.4, 0.3)


def _free_edges(g: ChainGraph) -> int:
    """Edges in no triplex: a cheap stand-in for the size of g's equivalence class."""
    fixed = set()
    for t in graphs.triplexes(g):
        fixed |= {(min(t.j, t.k), max(t.j, t.k)), (min(t.k, t.l), max(t.k, t.l))}
    return len(graphs.adjacencies(g) - fixed)


@dataclass(frozen=True)
class Experiment:
    """``ampcg experiment --method two-phase`` in-process, one seed per call."""

    name: str
    p: int
    count: int

    @property
    def size(self) -> str:
        return f"p={self.p} population"

    def problems(self, seed: int, p: int | None = None) -> list:
        """One experiment seed per catalogue slot, drawn until its graph has the slot's stratum."""
        p = p or self.p
        rng = np.random.default_rng(compose_seed(seed, p))
        out = []
        for i in range(self.count):
            want = _free_edges(random_chain_graph(p, *_EXPERIMENT_DENSITY, seed=compose_seed(CATALOGUE_SEED, p, i, 0)))
            while True:
                exp_seed = int(rng.integers(2**31))
                if _free_edges(random_chain_graph(p, *_EXPERIMENT_DENSITY, seed=compose_seed(exp_seed, 0))) == want:
                    break
            out.append((p, exp_seed))
        return out

    def warmup(self, seed: int) -> list:
        return self.problems(seed, p=WARMUP_P)[:1]

    def solve(self, problem: tuple, workdir: Path) -> int:
        p, exp_seed = problem
        argv = ["experiment", "--method", "two-phase", "--p", str(p), "--seeds", str(exp_seed)]
        argv += ["--workers", "1", "--out-dir", str(workdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, problem: tuple, code: int, workdir: Path) -> tuple[bool, bool]:
        with open(workdir / "report.json", encoding="utf-8") as handle:
            report = json.load(handle)
        rows = report["rows"]
        exact = [bool(row["exact"]) for row in rows]
        passed = (
            code == 0
            and [row["seed"] for row in rows] == [problem[1]]
            and not any(row["error"] for row in rows)
            and report["recovery"] == {"population": sum(exact) / len(rows)}
        )
        return passed, all(exact)


WORKLOADS = {
    w.name: w
    for w in (
        Recovery(
            "identify-data",
            "identify",
            p=4,
            n=1000,
            count=48,
        ),
        Recovery(
            "greedy-data",
            "greedy",
            p=4,
            n=2000,
            count=20,
        ),
        Experiment(
            "experiment-two-phase",
            p=6,
            count=60,
        ),
    )
}
