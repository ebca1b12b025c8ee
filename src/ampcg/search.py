"""Structure identification and search.

Two layers: picking the true graph out of a known Markov equivalence class
(every member is fit; on exact population input the winner is the member
whose fitted error variances are flattest, on data the winner maximizes
the equal-variance penalized score), and full greedy hill climbing over
chain-graph space guided by that score. Both score through one
`EqualVarianceScorer` per input: the second moment is validated once, and
the score decomposes over chain components, so each singleton's residual
sum of squares is computed once per (node, parent set) and reused by every
graph that contains it; only components with undirected edges need a
numeric solve. A small conditional-independence
skeleton-plus-triplex recovery is included so the two-phase strategy
(recover the class, then orient inside it) is runnable end to end; it
assumes faithful input and is deliberately minimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import stats

from .estimation import EqualVarianceScorer, _fit, fit_score, moment_matrix
from .graphs import (
    CapacityError,
    ChainGraph,
    Triplex,
    canonical_key,
    equivalence_class,
    is_chain_graph,
    random_chain_graph,
    triplexes,
)
from .sem import Dataset, _partial_correlation, compose_seed
from .separation import pairwise_queries

__all__ = [
    "ALL_OPERATORS",
    "IdentifyResult",
    "MemberFit",
    "SearchConfig",
    "SkeletonResult",
    "greedy_search",
    "identify_in_class",
    "skeleton_recovery",
    "two_phase",
]

ALL_OPERATORS = (
    "add_dir",
    "del_dir",
    "rev_dir",
    "add_undir",
    "del_undir",
    "dir_to_undir",
    "undir_to_dir",
)


_MAX_STEPS = 500  # greedy moves per chain
_POPULATION_N_EFF = 1e5  # sample size the score assumes for covariance input


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 5
    operators: tuple = ALL_OPERATORS
    seed: int = 0

    def __post_init__(self):
        if not self.operators:
            raise ValueError("operator set must be non-empty")
        unknown = set(self.operators) - set(ALL_OPERATORS)
        if unknown:
            raise ValueError(f"unknown operators: {sorted(unknown)}")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True, eq=False)
class MemberFit:
    graph: ChainGraph
    dispersion: float
    score: float | None
    loglik: float
    converged: bool


@dataclass(frozen=True, eq=False)
class IdentifyResult:
    chosen: ChainGraph
    class_size: int
    table: tuple
    margin: float


@dataclass(frozen=True, eq=False)
class SkeletonResult:
    graph: ChainGraph
    consistent: bool


def _n_eff(data_or_cov) -> float:
    return float(data_or_cov.n) if isinstance(data_or_cov, Dataset) else _POPULATION_N_EFF


def _size(data_or_cov) -> int:
    return data_or_cov.p if isinstance(data_or_cov, Dataset) else len(np.atleast_1d(data_or_cov))


def identify_in_class(class_rep: ChainGraph, data_or_cov, class_cap: int = 12) -> IdentifyResult:
    """Pick one member of class_rep's Markov equivalence class.

    Population covariance input: every member reproduces the input exactly,
    so the member with the smallest fitted-variance spread (zero only for
    the generating graph, under equal error variances) is chosen; the input
    is validated once and every member is fit on it unconstrained. Dataset
    input: the equal-variance penalized score decides; every member is
    scored by one `EqualVarianceScorer`, and its fitted error variances are
    equal by construction, so its dispersion is 0. Ties break toward fewer
    directed edges, then a fixed lexicographic order.
    """
    members = equivalence_class(class_rep, cap=class_cap)
    rows = []
    if not isinstance(data_or_cov, Dataset):
        s, n = moment_matrix(data_or_cov, class_rep.p)
        for member in members:
            result = _fit(s, n, member)
            rows.append(MemberFit(member, result.dispersion, None, result.loglik, result.converged))
        rows.sort(key=lambda r: (r.dispersion, len(r.graph.directed), canonical_key(r.graph)))
        margin = math.inf if len(rows) == 1 else rows[1].dispersion - rows[0].dispersion
    else:
        n_eff = _n_eff(data_or_cov)
        scorer = EqualVarianceScorer(data_or_cov, class_rep.p)
        for member in members:
            loglik, converged = scorer.loglik(member)
            score = fit_score(loglik, member, n_eff, equal_variances=True)
            rows.append(MemberFit(member, 0.0, score, loglik, converged))
        rows.sort(key=lambda r: (-r.score, len(r.graph.directed), canonical_key(r.graph)))
        margin = math.inf if len(rows) == 1 else rows[0].score - rows[1].score
    return IdentifyResult(
        chosen=rows[0].graph,
        class_size=len(members),
        table=tuple(rows),
        margin=float(margin),
    )


def _neighbor_graphs(g: ChainGraph, operators: Iterable[str]) -> list:
    candidates = set()
    operators = set(operators)
    pairs = list(itertools.combinations(range(g.p), 2))
    if "add_dir" in operators or "add_undir" in operators:
        for a, b in pairs:
            if g.adjacent(a, b):
                continue
            if "add_dir" in operators:
                candidates.add(ChainGraph(g.p, g.directed | {(a, b)}, g.undirected, labels=g.labels))
                candidates.add(ChainGraph(g.p, g.directed | {(b, a)}, g.undirected, labels=g.labels))
            if "add_undir" in operators:
                candidates.add(ChainGraph(g.p, g.directed, g.undirected | {(a, b)}, labels=g.labels))
    for a, b in g.directed:
        without = g.directed - {(a, b)}
        if "del_dir" in operators:
            candidates.add(ChainGraph(g.p, without, g.undirected, labels=g.labels))
        if "rev_dir" in operators:
            candidates.add(ChainGraph(g.p, without | {(b, a)}, g.undirected, labels=g.labels))
        if "dir_to_undir" in operators:
            candidates.add(
                ChainGraph(g.p, without, g.undirected | {(min(a, b), max(a, b))}, labels=g.labels)
            )
    for a, b in g.undirected:
        without = g.undirected - {(a, b)}
        if "del_undir" in operators:
            candidates.add(ChainGraph(g.p, g.directed, without, labels=g.labels))
        if "undir_to_dir" in operators:
            candidates.add(ChainGraph(g.p, g.directed | {(a, b)}, without, labels=g.labels))
            candidates.add(ChainGraph(g.p, g.directed | {(b, a)}, without, labels=g.labels))
    valid = [h for h in candidates if h != g and is_chain_graph(h)]
    valid.sort(key=lambda h: (len(h.directed), canonical_key(h)))
    return valid


def greedy_search(data_or_cov, cfg: SearchConfig | None = None) -> ChainGraph:
    """Hill climbing over chain graphs under the equal-variance penalized score.

    One chain starts from the empty graph and the remaining restarts from
    random chain graphs; each chain repeatedly moves to the best strictly
    improving single-edge change and stops at a local optimum. The best
    graph across chains wins. Deterministic given the seed.

    The input is validated once, before any candidate is scored, and every
    candidate is scored by one `EqualVarianceScorer`: a neighbour shares
    most of its (node, parent set) residual sums of squares with the graphs
    already scored, so a DAG candidate costs a few cache lookups, and only
    candidates with undirected edges run a numeric solve. Scores are also
    cached per graph across chains.
    """
    cfg = cfg or SearchConfig()
    p = _size(data_or_cov)
    n_eff = _n_eff(data_or_cov)
    scorer = EqualVarianceScorer(data_or_cov, p)
    cache: dict[ChainGraph, float] = {}

    def score(h: ChainGraph) -> float:
        if h not in cache:
            cache[h] = scorer.score(h, n_eff)
        return cache[h]

    best_graph = None
    best_key = None
    for chain in range(cfg.restarts):
        if chain == 0:
            g = ChainGraph(p)
        else:
            g = random_chain_graph(p, 0.4, 0.3, seed=compose_seed(cfg.seed, chain))
        current = score(g)
        for _ in range(_MAX_STEPS):
            improved = None
            improved_score = current
            for h in _neighbor_graphs(g, cfg.operators):
                s = score(h)
                if s > improved_score:
                    improved, improved_score = h, s
            if improved is None:
                break
            g, current = improved, improved_score
        key = (-current, len(g.directed), canonical_key(g))
        if best_key is None or key < best_key:
            best_graph, best_key = g, key
    return best_graph


def _ci_decider(data_or_cov, alpha_tol: float | None):
    p = _size(data_or_cov)
    s, n = moment_matrix(data_or_cov, p)
    if n is not None:
        alpha = 0.01 if alpha_tol is None else alpha_tol
        crit = float(stats.norm.ppf(1.0 - alpha / 2.0))

        def indep(j: int, k: int, cond: tuple) -> bool:
            r = max(-0.999999, min(0.999999, _partial_correlation(s, j, k, cond)))
            z = 0.5 * math.log((1.0 + r) / (1.0 - r))
            dof = n - len(cond) - 3
            if dof <= 0:
                return True
            return math.sqrt(dof) * abs(z) <= crit

        return indep, p
    tol = 1e-8 if alpha_tol is None else alpha_tol

    def indep(j: int, k: int, cond: tuple) -> bool:
        return abs(_partial_correlation(s, j, k, cond)) < tol

    return indep, p


def _is_triplex_config(into_center: tuple) -> bool:
    # into_center: per side, '>' arrow into center, '<' arrow out, '-' undirected
    a, b = into_center
    if "<" in (a, b):
        return False
    return ">" in (a, b)


def _orient_to_match(p: int, adjacency: set, target: frozenset) -> ChainGraph | None:
    """Backtracking assignment of edge types reproducing the target triplexes."""
    edges = sorted(adjacency)
    edge_index = {e: i for i, e in enumerate(edges)}
    neighbors: dict[int, set] = {v: set() for v in range(p)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    triples = []
    for k in range(p):
        for j, l in itertools.combinations(sorted(neighbors[k]), 2):
            if (min(j, l), max(j, l)) not in adjacency:
                triples.append((j, k, l))
    by_edge: dict[int, list] = {i: [] for i in range(len(edges))}
    for t_idx, (j, k, l) in enumerate(triples):
        by_edge[edge_index[(min(j, k), max(j, k))]].append(t_idx)
        by_edge[edge_index[(min(l, k), max(l, k))]].append(t_idx)
    assignment: list[str | None] = [None] * len(edges)

    def side_mark(j: int, k: int) -> str:
        # mark of edge {j, k} as seen at center k
        e = (min(j, k), max(j, k))
        val = assignment[edge_index[e]]
        if val == "--":
            return "-"
        if (val == "ab" and e[1] == k) or (val == "ba" and e[0] == k):
            return ">"
        return "<"

    def triple_ok(t_idx: int) -> bool:
        j, k, l = triples[t_idx]
        for other in ((j, k), (l, k)):
            if assignment[edge_index[(min(other), max(other))]] is None:
                return True
        want = Triplex(min(j, l), k, max(j, l)) in target
        return _is_triplex_config((side_mark(j, k), side_mark(l, k))) == want

    def build() -> ChainGraph:
        directed = set()
        undirected = set()
        for (a, b), val in zip(edges, assignment):
            if val == "--":
                undirected.add((a, b))
            elif val == "ab":
                directed.add((a, b))
            else:
                directed.add((b, a))
        return ChainGraph(p, frozenset(directed), frozenset(undirected))

    def backtrack(i: int) -> ChainGraph | None:
        if i == len(edges):
            g = build()
            return g if is_chain_graph(g) else None
        for val in ("--", "ab", "ba"):
            assignment[i] = val
            if all(triple_ok(t) for t in by_edge[i]):
                found = backtrack(i + 1)
                if found is not None:
                    return found
        assignment[i] = None
        return None

    found = backtrack(0)
    if found is not None:
        assert triplexes(found) == target
    return found


def skeleton_recovery(data_or_cov, alpha_tol: float | None = None, cap: int = 8) -> SkeletonResult:
    """Recover an equivalence-class representative from independences alone.

    Adjacency: two nodes stay adjacent when no conditioning set renders
    them independent. Triplexes: a common neighbor of a non-adjacent pair
    is a triplex center exactly when it lies outside the recorded
    separating set. A representative with those adjacencies and triplexes
    is then assembled by backtracking. On exact faithful population input
    the result is Markov equivalent to the generating graph; inconsistent
    finite-sample answers fall back to the undirected skeleton, flagged.
    """
    indep, p = _ci_decider(data_or_cov, alpha_tol)
    if p > cap:
        raise CapacityError(f"skeleton recovery capped at p={cap}, got p={p}")
    sepset: dict[tuple, tuple] = {}
    for j, k, cond in pairwise_queries(p):
        if (j, k) not in sepset and indep(j, k, cond):
            sepset[(j, k)] = cond  # the smallest separating set, first in query order
    adjacency = set(itertools.combinations(range(p), 2)) - set(sepset)
    neighbors: dict[int, set] = {v: set() for v in range(p)}
    for a, b in adjacency:
        neighbors[a].add(b)
        neighbors[b].add(a)
    target = set()
    for (j, l), cond in sepset.items():
        for k in neighbors[j] & neighbors[l]:
            if k not in cond:
                target.add(Triplex(min(j, l), k, max(j, l)))
    oriented = _orient_to_match(p, adjacency, frozenset(target))
    if oriented is not None:
        return SkeletonResult(graph=oriented, consistent=True)
    fallback = ChainGraph(p, frozenset(), frozenset(adjacency))
    return SkeletonResult(graph=fallback, consistent=False)


def two_phase(data_or_cov, class_cap: int = 12) -> IdentifyResult:
    """Recover the equivalence class from independences, then orient inside it."""
    rep = skeleton_recovery(data_or_cov)
    return identify_in_class(rep.graph, data_or_cov, class_cap=class_cap)
