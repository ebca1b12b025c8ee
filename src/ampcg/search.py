"""Structure identification and search.

Two layers: picking the true graph out of a known Markov equivalence class,
and full greedy hill climbing over chain-graph space guided by the
equal-variance penalized score. Greedy search, and identification on
data, score through one `EqualVarianceScorer` per input: the second moment
is validated once, and the score decomposes over chain components, so each
singleton's residual sum of squares is computed once per (node, parent
set) and reused by every graph that contains it; only components with
undirected edges need a numeric solve. Identification on a population
covariance fits nothing. The covariance must be a distribution of the
class's model, so every member reproduces it exactly; each member's error
variances are then its nodes' residual variances given their parents, and
the member whose variances are flattest wins. Every row of that table
carries the input's own maximum log-likelihood, which every member
attains, and `converged` is True. A small conditional-independence
skeleton-plus-triplex recovery is included so the two-phase strategy
(recover the class, then orient inside it) is runnable end to end; it
assumes faithful input and is deliberately minimal, and it decides no
independence itself: it reads `sem._independences`, the same table and
rule that faithful parameter draws use. Both the class and
the recovered representative come from one enumerator,
`graphs.orientations`: the class is all it yields, the representative its
first graph. Equivalence classes are enumerated up to 12 nodes and
conditioning sets swept up to 8; larger inputs raise `CapacityError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .estimation import EqualVarianceScorer, _split, fit_score, gaussian_average_loglik, moment_matrix
from .graphs import (
    CapacityError,
    ChainGraph,
    Triplex,
    canonical_key,
    equivalence_class,
    is_chain_graph,
    orientations,
    random_chain_graph,
    triplexes,
)
from .sem import Dataset, _independences, _mask, compose_seed
from .separation import pairwise_queries

__all__ = [
    "IdentifyResult",
    "MemberFit",
    "SearchConfig",
    "SkeletonResult",
    "greedy_search",
    "identify_in_class",
    "skeleton_recovery",
    "two_phase",
]

_MAX_STEPS = 500  # greedy moves per chain
_POPULATION_N_EFF = 1e5  # sample size the score assumes for covariance input
_SKELETON_CAP = 8  # largest node count whose conditioning sets are swept


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
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


def identify_in_class(class_rep: ChainGraph, data_or_cov) -> IdentifyResult:
    """Pick one member of class_rep's Markov equivalence class.

    Population covariance input must be a distribution of the class's
    model: then every member reproduces it exactly, so each node's error is
    independent of its parents and its variance is the node's residual
    variance given its parents, read off the input in closed form with no
    fit. The member whose error variances are flattest (smallest
    `dispersion`, zero only for the generating graph under equal error
    variances) is chosen. The input is validated once and each (node,
    parent set) regression is solved once for the whole class. Every row's
    `loglik` is the input's own maximum, which every member attains, and
    `converged` is True, as no iteration runs. Dataset input: the
    equal-variance penalized score decides; every member is scored by one
    `EqualVarianceScorer`, and its fitted error variances are equal by
    construction, so its dispersion is 0. Ties break toward fewer directed
    edges, then a fixed lexicographic order. Classes are enumerated up to
    12 nodes; beyond that `CapacityError` is raised.
    """
    members = equivalence_class(class_rep)
    rows = []
    if not isinstance(data_or_cov, Dataset):
        s, _ = moment_matrix(data_or_cov, class_rep.p)
        loglik = gaussian_average_loglik(s, s)
        nodes = [frozenset({j}) for j in range(class_rep.p)]
        regressions: dict = {}
        for member in members:
            singles, _ = _split(s, None, member, nodes, regressions)
            logs = np.log([piece.sigma[0, 0] for piece in singles])
            rows.append(MemberFit(member, float(logs.max() - logs.min()), None, loglik, True))
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


def _neighbor_graphs(g: ChainGraph) -> list:
    """Every chain graph one edge addition, deletion, reversal or type change away from g."""
    candidates = set()
    for a, b in itertools.combinations(range(g.p), 2):
        if not g.adjacent(a, b):
            candidates.add(ChainGraph(g.p, g.directed | {(a, b)}, g.undirected, labels=g.labels))
            candidates.add(ChainGraph(g.p, g.directed | {(b, a)}, g.undirected, labels=g.labels))
            candidates.add(ChainGraph(g.p, g.directed, g.undirected | {(a, b)}, labels=g.labels))
    for a, b in g.directed:
        without = g.directed - {(a, b)}
        candidates.add(ChainGraph(g.p, without, g.undirected, labels=g.labels))
        candidates.add(ChainGraph(g.p, without | {(b, a)}, g.undirected, labels=g.labels))
        candidates.add(
            ChainGraph(g.p, without, g.undirected | {(min(a, b), max(a, b))}, labels=g.labels)
        )
    for a, b in g.undirected:
        without = g.undirected - {(a, b)}
        candidates.add(ChainGraph(g.p, g.directed, without, labels=g.labels))
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
            for h in _neighbor_graphs(g):
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


def skeleton_recovery(data_or_cov) -> SkeletonResult:
    """Recover an equivalence-class representative from independences alone.

    Adjacency: two nodes stay adjacent when no conditioning set renders
    them independent. Triplexes: a common neighbor of a non-adjacent pair
    is a triplex center exactly when it lies outside the recorded
    separating set. The representative is the first chain graph
    `orientations` yields with those adjacencies and triplexes. On exact
    faithful population input the result is Markov equivalent to the
    generating graph; inconsistent finite-sample answers, for which no
    chain graph fits, fall back to the undirected skeleton, flagged.
    The input is validated, then every independence query is read off one
    `sem._independences` table: |partial correlation| < 1e-8 on a
    covariance, a two-sided Fisher-z test at level 0.01 on data. Inputs
    over 8 nodes raise `CapacityError` before that table is built.
    """
    p = _size(data_or_cov)
    s, n = moment_matrix(data_or_cov, p)
    if p > _SKELETON_CAP:
        raise CapacityError(f"skeleton recovery capped at p={_SKELETON_CAP}, got p={p}")
    indep = _independences(s, n)
    sepset: dict[tuple, tuple] = {}
    for j, k, cond in pairwise_queries(p):
        if (j, k) not in sepset and indep[_mask(cond), j, k]:
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
    oriented = next(orientations(p, adjacency, target), None)
    if oriented is not None:
        assert triplexes(oriented) == target
        return SkeletonResult(graph=oriented, consistent=True)
    fallback = ChainGraph(p, frozenset(), frozenset(adjacency))
    return SkeletonResult(graph=fallback, consistent=False)


def two_phase(data_or_cov) -> IdentifyResult:
    """Recover the equivalence class from independences, then orient inside it."""
    rep = skeleton_recovery(data_or_cov)
    return identify_in_class(rep.graph, data_or_cov)
