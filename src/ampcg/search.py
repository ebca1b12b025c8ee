"""Structure identification and search.

Two layers: picking the true graph out of a known Markov equivalence class,
and full greedy hill climbing over chain-graph space guided by the
equal-variance penalized score. Markov-equivalent members share one model,
so identification reads the whole class off one covariance: a population
covariance itself, once `_check_population` has found it reproducible by
the class's model, or on data the implied covariance `cov` of one
unconstrained `fit` of the member with the fewest undirected edges, a DAG
fit in closed form whenever the class has one. Each member's error variances
are its nodes' residual variances given their parents on that covariance,
from `estimation._regression`, the one least-squares regression the
library has: each (node, parent set) is solved once per call, shared by
the members and the population check. The class is ranked in one array
pass: the members' residual variances form one members x p array, and
every member's spreads come from whole-array reductions of it. The member
whose variances are flattest wins; no equal-variance fit runs. Greedy
search reads the input only through one `EqualVarianceScorer`, which
validates it once, builds each chain component once for every graph that
contains it and keeps each state's score. Each step bounds every move
in closed form (`EqualVarianceScorer.bound`, the maximum of a relaxed
model that contains the equal-variance one) and scores moves exactly in
decreasing bound, stopping once a bound falls below the best score found;
the moves left unscored cannot win, so the step takes the move a scan of
every move takes. Ties are broken on the state itself (`_rank`), so a
search builds a graph only for the move it takes. Whether a move closes a
semidirected cycle is one `graphs._cycle_through` walk over copies of the
child and neighbour masks the incumbent keeps from its one build, the
walk that decides every cycle question in the library.
A small conditional-independence skeleton-plus-triplex recovery is
included so the two-phase strategy (recover the class, then orient
inside it) is runnable end to end; it
assumes faithful input and is deliberately minimal, and it decides no
independence itself: it reads `sem._independences`, the same table and
rule that faithful parameter draws use. Both the class and
the recovered representative come from one enumerator,
`graphs.orientations`: the class is all it yields, the representative its
first graph. Equivalence classes are enumerated and conditioning sets
swept up to `graphs.CLASS_CAP` (12) nodes, the library's one node-count
limit; larger inputs raise `CapacityError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .estimation import EqualVarianceScorer, _regression, fit, gaussian_average_loglik, moment_matrix
from .graphs import (
    CLASS_CAP,
    CapacityError,
    ChainGraph,
    Triplex,
    _cycle_through,
    equivalence_class,
    orientations,
    random_chain_graph,
    triplexes,
)
from .sem import Dataset, _independences, _off_pattern_dependence, compose_seed
from .separation import _query_table

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
_BOUND_SLACK = 1e-9  # relative rounding allowance when a move's bound rules it out


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        compose_seed(self.seed)  # a negative seed raises here, before any search


@dataclass(frozen=True, eq=False)
class MemberFit:
    graph: ChainGraph
    dispersion: float
    gap: float


@dataclass(frozen=True, eq=False)
class IdentifyResult:
    chosen: ChainGraph
    class_size: int
    table: tuple
    margin: float
    loglik: float
    converged: bool


@dataclass(frozen=True, eq=False)
class SkeletonResult:
    graph: ChainGraph
    consistent: bool


def _size(data_or_cov) -> int:
    return data_or_cov.p if isinstance(data_or_cov, Dataset) else len(np.atleast_1d(data_or_cov))


def identify_in_class(class_rep: ChainGraph, data_or_cov) -> IdentifyResult:
    """Pick one member of class_rep's Markov equivalence class.

    Markov-equivalent members share one model, so one covariance Σ̂ serves
    them all: a population covariance itself, or for a dataset the implied
    covariance of one unconstrained `fit` of the member with the fewest
    undirected edges, the first in canonical order on a tie. That member is
    a DAG whenever the class has one, whose fit is per-node least squares
    in closed form with `converged` True. Population
    covariance input must be a distribution of the class's model, or
    ValueError names the first pair of nodes that shows it is not (see
    `_check_population`). On Σ̂ each member's error variances v are its
    nodes' residual variances given their parents, read off in closed form
    (`estimation._regression`), with each (node, parent set) regression
    solved once for the whole class and the population check together.
    The members' v form one members x p array, reduced row by row in one
    pass. Each row carries two spreads of log v: `dispersion`, max minus
    min, and `gap`, log(mean v) - mean(log v), which for a DAG member is the
    likelihood-ratio statistic of equal against free error variances
    divided by n * p. Both are zero only when the member's error variances
    are equal. A covariance is exact, so the smallest `dispersion` wins
    (zero only for the generating graph under equal error variances); on a
    dataset the smallest `gap` wins. Ties break toward fewer directed edges,
    then `canonical_key` (`_rank`), and `margin` is the runner-up's
    statistic minus the winner's. The result's `loglik` and `converged`
    are Σ̂'s, which every member shares: the input's own maximum and True
    on a covariance, that member fit's on a dataset, read off that one
    `FitResult` with Σ̂ its `cov`; any member's converged fit gives the same
    Σ̂ and `loglik` up to rounding, and `converged` is False only when the
    class has no DAG member and that member's loop stopped at its round
    cap. The input is validated once, by
    `fit` or `moment_matrix`, and no equal-variance fit runs. Classes are
    enumerated up to 12 nodes; beyond that `CapacityError` is raised.
    """
    members = equivalence_class(class_rep)
    regressions: dict = {}
    on_data = isinstance(data_or_cov, Dataset)
    if on_data:
        # the member with the fewest undirected edges: a DAG whenever the class has one, fit in closed form
        member_fit = fit(data_or_cov, min(members, key=lambda g: len(g.undirected)))
        s, loglik, converged = member_fit.cov, member_fit.loglik, member_fit.converged
    else:
        s = moment_matrix(data_or_cov, class_rep.p)[0]
        _check_population(s, class_rep, regressions)
        loglik, converged = gaussian_average_loglik(s, s), True
    v = np.array(
        [[_regression(s, node, into, regressions)[1] for node, into in enumerate(g._parents)] for g in members]
    )
    logs = np.log(v)
    dispersion = (logs.max(axis=1) - logs.min(axis=1)).tolist()
    gap = (np.log(v.mean(axis=1)) - logs.mean(axis=1)).tolist()
    statistic = gap if on_data else dispersion
    # members come sorted by canonical_key, so a stable sort on (statistic, directed edges) keeps `_rank`'s order
    order = sorted(range(len(members)), key=lambda i: (statistic[i], len(members[i].directed)))
    margin = math.inf if len(order) == 1 else statistic[order[1]] - statistic[order[0]]
    return IdentifyResult(
        chosen=members[order[0]],
        class_size=len(members),
        table=tuple(MemberFit(members[i], dispersion[i], gap[i]) for i in order),
        margin=float(margin),
        loglik=loglik,
        converged=converged,
    )


def _check_population(s: np.ndarray, g: ChainGraph, regressions: dict) -> None:
    """Raise ValueError unless g's model can reproduce the covariance s.

    Each node is regressed on its parents in g (`_regression`, kept in
    `regressions` for the member loop), and the residuals
    E = (I - B) s (I - B)^T must show every pair of nodes without an
    undirected edge independent given the rest, by the rule that
    `SemParameters` applies to its error covariance
    (`sem._off_pattern_dependence`). The first pair that is not is named.
    """
    a = np.eye(g.p)
    for v, into in enumerate(g._parents):
        a[v, into] = -_regression(s, v, into, regressions)[0]
    dependent = _off_pattern_dependence(a @ s @ a.T, g.undirected)
    if dependent is not None:
        j, k, r = dependent
        raise ValueError(
            f"covariance is not a distribution of the class's model: the residuals of {g.node_label(j)} "
            f"and {g.node_label(k)} given their parents have partial correlation {r:.3g} "
            "without an undirected edge"
        )


def _moves(g: ChainGraph):
    """(parent tuples, undirected edges) of every chain graph whose edge state differs from g's on one pair.

    Pairs (a, b) run in order and each pair's states in the order none,
    a -> b, b -> a, a - b, skipping g's own. Dropping an edge leaves a chain
    graph; any other state can only close a semidirected cycle through the
    pair, so one `graphs._cycle_through` walk from a over copies of the
    child and neighbour bitmasks g keeps, with the pair's state put in,
    decides it. Only the two parent tuples and the undirected edge of the
    pair are edited; no graph is built.
    """
    children, neighbors = list(g._child_masks), list(g._neighbor_masks)
    for a, b in itertools.combinations(range(g.p), 2):
        own = g.edge_between(a, b)
        into_a = tuple(x for x in g._parents[a] if x != b)
        into_b = tuple(x for x in g._parents[b] if x != a)
        undirected = g.undirected - {(a, b)}
        kept = children[a], children[b], neighbors[a], neighbors[b]
        # the four masks with no edge on the pair
        bare = kept[0] & ~(1 << b), kept[1] & ~(1 << a), kept[2] & ~(1 << b), kept[3] & ~(1 << a)
        for state in (None, "->", "<-", "--"):
            if state == own:
                continue
            children[a] = bare[0] | (1 << b if state == "->" else 0)
            children[b] = bare[1] | (1 << a if state == "<-" else 0)
            neighbors[a] = bare[2] | (1 << b if state == "--" else 0)
            neighbors[b] = bare[3] | (1 << a if state == "--" else 0)
            if state is None or not _cycle_through(children, neighbors, a):
                parents = list(g._parents)
                parents[a] = tuple(sorted(into_a + (b,))) if state == "<-" else into_a
                parents[b] = tuple(sorted(into_b + (a,))) if state == "->" else into_b
                yield tuple(parents), (undirected | {(a, b)} if state == "--" else undirected)
        children[a], children[b], neighbors[a], neighbors[b] = kept


def _graph(p: int, parents: tuple, undirected: frozenset) -> ChainGraph:
    return ChainGraph(p, [(j, k) for k, into in enumerate(parents) for j in into], undirected)


def _rank(parents: tuple, undirected: frozenset) -> tuple:
    """Tie-break among equal scores: fewer directed edges, then `canonical_key`, read off the state."""
    directed = tuple(sorted((j, k) for k, into in enumerate(parents) for j in into))
    return len(directed), (len(parents), directed, tuple(sorted(undirected)))


def greedy_search(data_or_cov, cfg: SearchConfig | None = None) -> ChainGraph:
    """Hill climbing over chain graphs under the equal-variance penalized score.

    One chain starts from the empty graph and the remaining restarts from
    random chain graphs; each chain repeatedly moves to the best strictly
    improving single-edge change and stops at a local optimum. Equal
    scores go to fewer directed edges, then the lower `canonical_key`,
    both read off the state (`_rank`). The best graph across chains wins.
    Deterministic given the seed.

    A move edits the incumbent's parent tuples and undirected edges for one
    node pair, one walk from the pair rules out a semidirected cycle (see
    `_moves`), and one `EqualVarianceScorer` scores the state (`score`), so
    a `ChainGraph` is built only for the move taken. The input is validated
    once, before any move is scored.

    Each step first bounds every move (`EqualVarianceScorer.bound`): the
    score of a relaxed model in which the singletons share a variance of
    their own and each multi-node component has a free error covariance on
    all its parents. That model contains the equal-variance one, so no
    move scores above its bound beyond rounding. The step scores moves
    exactly in decreasing bound and stops at the first bound below the
    best score so far, the incumbent's to start with, by more than a
    relative rounding slack of 1e-9 (`_BOUND_SLACK`). Every move left
    unscored then scores below the best, so it neither wins nor ties, and
    the step takes the move a scan of every move takes, with the same
    tie-break.
    """
    cfg = cfg or SearchConfig()
    p = _size(data_or_cov)
    scorer = EqualVarianceScorer(data_or_cov, p)
    best_graph = None
    best_key = None
    for chain in range(cfg.restarts):
        if chain == 0:
            g = ChainGraph(p)
        else:
            g = random_chain_graph(p, 0.4, 0.3, seed=compose_seed(cfg.seed, chain))
        current = scorer.score(g._parents, g.undirected)[0]
        for _ in range(_MAX_STEPS):
            improved = None
            improved_score = current
            bounded = sorted(((scorer.bound(*move), move) for move in _moves(g)), key=itemgetter(0), reverse=True)
            for bound, move in bounded:
                if bound < improved_score - _BOUND_SLACK * max(1.0, abs(improved_score)):
                    break  # this move and every later one score below the best so far
                s = scorer.score(*move)[0]
                if s > improved_score or (
                    s == improved_score and improved is not None and _rank(*move) < _rank(*improved)
                ):
                    improved, improved_score = move, s
            if improved is None:
                break
            g, current = _graph(p, *improved), improved_score
        key = (-current, *_rank(g._parents, g.undirected))
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
    covariance, a two-sided Fisher-z test at level 0.01 on data. That table
    covers all 2^p conditioning sets, so inputs over `graphs.CLASS_CAP`
    (12) nodes raise `CapacityError` before it is built.
    """
    p = _size(data_or_cov)
    s, n = moment_matrix(data_or_cov, p)
    if p > CLASS_CAP:
        raise CapacityError(f"skeleton recovery capped at p={CLASS_CAP}, got p={p}")
    queries, masks, js, ks = _query_table(p)
    sepset: dict[tuple, tuple] = {}
    for i in np.flatnonzero(_independences(s, n)[masks, js, ks]):
        j, k, cond = queries[i]
        sepset.setdefault((j, k), cond)  # the smallest separating set, first in query order
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
