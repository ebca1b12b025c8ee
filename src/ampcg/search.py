"""Structure identification and search.

Two layers: picking the true graph out of a known Markov equivalence class,
and full greedy hill climbing over chain-graph space guided by the
equal-variance penalized score. Greedy search, and identification on
data, score through one `EqualVarianceScorer` per input: the second moment
is validated once, and the score decomposes over chain components, so each
component is built once and reused by every graph that contains it (a
singleton's residual sum of squares per (node, parent set), a multi-node
component per parent sets and edges). A lone two-node, one-edge component
is solved in closed form, and its record keeps everything but the
singletons' residual total, so scoring it again is one small root solve;
only graphs with more undirected edges run a numeric descent. Greedy
search scores each single-edge move against its incumbent: the move edits
the incumbent's parent tuples and undirected edges for one node pair, one
walk from that pair rules out a semidirected cycle, and a graph is built
only for the move taken. Identification on a population covariance fits
nothing. The covariance must be a distribution of the class's model, so
every member reproduces it exactly; each member's error variances are
then its nodes' residual variances given their parents, and the member
whose variances are flattest wins. Every row of that table
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

from .estimation import EqualVarianceScorer, _bic, _split, fit_score, gaussian_average_loglik, moment_matrix
from .graphs import (
    CapacityError,
    ChainGraph,
    Triplex,
    _returns_with_arrow,
    canonical_key,
    equivalence_class,
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
            singles, _ = _split(s, None, member._parents, member.undirected, nodes, regressions)
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


def _mark(children: list, neighbors: list, a: int, b: int, state: str | None) -> None:
    """Put the edge state None, '->', '<-' or '--' on the pair (a, b) of mutable child and neighbour sets."""
    for x, y in ((a, b), (b, a)):
        children[x].discard(y)
        neighbors[x].discard(y)
    if state == "->":
        children[a].add(b)
    elif state == "<-":
        children[b].add(a)
    elif state == "--":
        neighbors[a].add(b)
        neighbors[b].add(a)


def _moves(g: ChainGraph):
    """(parent tuples, undirected edges) of every chain graph whose edge state differs from g's on one pair.

    Pairs (a, b) run in order and each pair's states in the order none,
    a -> b, b -> a, a - b, skipping g's own. Dropping an edge leaves a chain
    graph; any other state can only close a semidirected cycle through the
    pair, so one `_returns_with_arrow` walk from a decides it. Only the two
    parent tuples and the undirected edge of the pair are edited; no graph
    is built.
    """
    children = [set(x) for x in g._children]
    neighbors = [set(x) for x in g._neighbors]
    for a, b in itertools.combinations(range(g.p), 2):
        own = g.edge_between(a, b)
        into_a = tuple(x for x in g._parents[a] if x != b)
        into_b = tuple(x for x in g._parents[b] if x != a)
        undirected = g.undirected - {(a, b)}
        for state in (None, "->", "<-", "--"):
            if state == own:
                continue
            _mark(children, neighbors, a, b, state)
            if state is None or not _returns_with_arrow(children, neighbors, a):
                parents = list(g._parents)
                parents[a] = tuple(sorted(into_a + (b,))) if state == "<-" else into_a
                parents[b] = tuple(sorted(into_b + (a,))) if state == "->" else into_b
                yield tuple(parents), (undirected | {(a, b)} if state == "--" else undirected)
        _mark(children, neighbors, a, b, own)


def _graph(p: int, parents: tuple, undirected: frozenset) -> ChainGraph:
    return ChainGraph(p, [(j, k) for k, into in enumerate(parents) for j in into], undirected)


def _rank(g: ChainGraph) -> tuple:
    """Tie-break among equal scores: fewer directed edges, then `canonical_key`."""
    return len(g.directed), canonical_key(g)


def greedy_search(data_or_cov, cfg: SearchConfig | None = None) -> ChainGraph:
    """Hill climbing over chain graphs under the equal-variance penalized score.

    One chain starts from the empty graph and the remaining restarts from
    random chain graphs; each chain repeatedly moves to the best strictly
    improving single-edge change and stops at a local optimum. Equal
    scores go to fewer directed edges, then the lower `canonical_key`. The
    best graph across chains wins. Deterministic given the seed.

    A move is scored against the incumbent without building a graph: it
    edits the incumbent's parent tuples and undirected edges for one node
    pair, one walk from the pair rules out a semidirected cycle (see
    `_moves`), and a `ChainGraph` is built only for the winning move and
    for exact ties. The input is validated once, before any move is
    scored, and every move is scored by one `EqualVarianceScorer`
    (`state_loglik`): a move shares most of its components with the graphs
    already scored, so a DAG costs a few cache lookups, a graph whose only
    undirected edge joins a component already seen costs one small root
    solve, and only graphs with two or more undirected edges run a numeric
    descent. Scores are also cached per graph across chains.
    """
    cfg = cfg or SearchConfig()
    p = _size(data_or_cov)
    n_eff = _n_eff(data_or_cov)
    scorer = EqualVarianceScorer(data_or_cov, p)
    cache: dict[tuple, float] = {}

    def score(parents: tuple, undirected: frozenset) -> float:
        key = (parents, undirected)
        if key not in cache:
            loglik = scorer.state_loglik(parents, undirected)[0]
            cache[key] = _bic(loglik, sum(map(len, parents)) + len(undirected) + 1, n_eff)
        return cache[key]

    best_graph = None
    best_key = None
    for chain in range(cfg.restarts):
        if chain == 0:
            g = ChainGraph(p)
        else:
            g = random_chain_graph(p, 0.4, 0.3, seed=compose_seed(cfg.seed, chain))
        current = score(g._parents, g.undirected)
        for _ in range(_MAX_STEPS):
            improved = None
            improved_score = current
            for move in _moves(g):
                s = score(*move)
                if s > improved_score:
                    improved, improved_score = move, s
                elif s == improved_score and improved is not None:
                    if _rank(_graph(p, *move)) < _rank(_graph(p, *improved)):
                        improved = move
            if improved is None:
                break
            g, current = _graph(p, *improved), improved_score
        key = (-current, *_rank(g))
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
