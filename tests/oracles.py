"""Independent reference implementations used only to check the library.

Everything here works from raw edge sets and plain numeric optimization,
on purpose: these functions share no code (and as little cleverness as
possible) with the implementations they vet. `brute_force_separated`
sweeps routes step by step over its own edge incidence lists and per-step
openness rule (`_incidence`, `_triplex_step`), so it vets the library's
bitmask reachability in `separated`; `literal_route_separated` checks the
rule itself from raw edge sets. `enumerate_chain_graphs`, which lists every chain graph on a
few nodes for the exhaustive tests, filters its candidates with the
library's `is_chain_graph`. `greedy_full_scan` is greedy search without
its bounds: it shares the library's scorer, moves and tie-break and vets
only the pruning. `equal_variance_bic` writes the equal-variance score out.
`saturated_bound` is the scorer's bound as it was before each component
entered at its decomposable maximum, every multi-node component's error
covariance free, written out by solves. `identify_in_class_loop` is
identification as a loop over the members, one row at a time; it shares
the library's covariance, regressions and tie-break and vets only the
array ranking. `one_edge_series_correlation`
is the power-series route of the one-edge equal-variance solve run on
every record, as it ran before records with own predictors on at most one
row took the closed-form cubic; it shares only the record's slices of the
second moment, so it vets the cubic route. `tree_equal_variance_numeric`
searches the edge correlations of states whose components are trees,
building each error correlation densely from them, so it vets the edge
sweeps' closed-form split of the objective.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np
from numpy.polynomial.polynomial import polyroots
from scipy import optimize

from ampcg import search
from ampcg.estimation import _BELOW_ONE, EqualVarianceScorer, _profile, _regression, fit, gaussian_average_loglik, moment_matrix
from ampcg.graphs import (
    CapacityError,
    ChainGraph,
    _node_indices,
    chain_components,
    equivalence_class,
    is_chain_graph,
    random_chain_graph,
)
from ampcg.sem import Dataset, compose_seed
from ampcg.separation import SeparationQuery

_HEAD, _TAIL, _UND = 0, 1, 2  # the kind of an edge's end at a node: arrowhead, tail, undirected


def edge_mark_at(directed: set, undirected: set, other: int, node: int) -> str:
    """Mark of the edge {other, node} as seen at node: '>', '<' or '-'."""
    if (other, node) in directed:
        return ">"
    if (node, other) in directed:
        return "<"
    if (min(other, node), max(other, node)) in undirected:
        return "-"
    raise KeyError((other, node))


def literal_route_separated(
    p: int,
    directed: set,
    undirected: set,
    a: set,
    b: set,
    c: set,
    max_edges: int,
) -> bool:
    """Enumerate every route up to max_edges edges and test openness literally.

    An interior occurrence is a triplex occurrence when neither incident
    edge leaves the node and at least one enters it; a route is open when
    every triplex occurrence is at a conditioned node and every
    non-triplex occurrence is not.
    """
    neighbors = {v: set() for v in range(p)}
    for j, k in directed:
        neighbors[j].add(k)
        neighbors[k].add(j)
    for j, k in undirected:
        neighbors[j].add(k)
        neighbors[k].add(j)

    def route_open(route: tuple) -> bool:
        for i in range(1, len(route) - 1):
            left = edge_mark_at(directed, undirected, route[i - 1], route[i])
            right = edge_mark_at(directed, undirected, route[i + 1], route[i])
            triplex = "<" not in (left, right) and ">" in (left, right)
            if triplex != (route[i] in c):
                return False
        return True

    stack = [(start,) for start in sorted(a)]
    while stack:
        route = stack.pop()
        if len(route) > 1 and route[-1] in b and route_open(route):
            return False
        if len(route) <= max_edges:
            for nxt in sorted(neighbors[route[-1]]):
                stack.append(route + (nxt,))
    return True


def enumerate_chain_graphs(p: int, cap: int = 5):
    """Yield every chain graph on p nodes (4^C(p,2) candidates filtered)."""
    if p > cap:
        raise CapacityError(f"exhaustive enumeration capped at p={cap}, got p={p}")
    pairs = list(itertools.combinations(range(p), 2))
    for states in itertools.product(range(4), repeat=len(pairs)):
        directed = set()
        undirected = set()
        for (a, b), state in zip(pairs, states):
            if state == 1:
                directed.add((a, b))
            elif state == 2:
                directed.add((b, a))
            elif state == 3:
                undirected.add((a, b))
        g = ChainGraph(p, frozenset(directed), frozenset(undirected))
        if is_chain_graph(g):
            yield g


def has_semidirected_cycle_matrix(p: int, directed: set, undirected: set) -> bool:
    """Cycle check by boolean reachability closure, no graph traversal."""
    reach = np.zeros((p, p), dtype=bool)
    for j, k in directed:
        reach[j, k] = True
    for j, k in undirected:
        reach[j, k] = True
        reach[k, j] = True
    for _ in range(p):
        reach = reach | (reach @ reach)
    return any(reach[k, j] for j, k in directed)


def triplex_scan(p: int, directed: set, undirected: set) -> set:
    """All (min, center, max) triplex triples, from first principles."""
    def adjacent(x, y):
        return (x, y) in directed or (y, x) in directed or (min(x, y), max(x, y)) in undirected

    found = set()
    for k in range(p):
        for j, l in itertools.combinations(range(p), 2):
            if j == k or l == k or adjacent(j, l):
                continue
            if not (adjacent(j, k) and adjacent(l, k)):
                continue
            marks = (
                edge_mark_at(directed, undirected, j, k),
                edge_mark_at(directed, undirected, l, k),
            )
            if "<" not in marks and ">" in marks:
                found.add((j, k, l))
    return found


def equivalence_class_brute(p: int, directed: set, undirected: set) -> set:
    """All valid orientations of the skeleton sharing the triplex set.

    Returns canonical (directed, undirected) frozen pairs. Exponential in
    the edge count; call only on small graphs.
    """
    skeleton = sorted(
        {(min(j, k), max(j, k)) for j, k in directed}
        | {(min(j, k), max(j, k)) for j, k in undirected}
    )
    want = triplex_scan(p, directed, undirected)
    out = set()
    for states in itertools.product(("ab", "ba", "--"), repeat=len(skeleton)):
        cand_dir: set = set()
        cand_und: set = set()
        for (x, y), state in zip(skeleton, states):
            if state == "ab":
                cand_dir.add((x, y))
            elif state == "ba":
                cand_dir.add((y, x))
            else:
                cand_und.add((x, y))
        if has_semidirected_cycle_matrix(p, cand_dir, cand_und):
            continue
        if triplex_scan(p, cand_dir, cand_und) != want:
            continue
        out.add((frozenset(cand_dir), frozenset(cand_und)))
    return out


def ggm_mle_numeric(s: np.ndarray, pattern: list) -> np.ndarray:
    """Covariance MLE under a concentration zero pattern, by direct optimization.

    Minimizes -logdet(K) + trace(K S) over the free entries of K with an
    analytic gradient; returns the fitted covariance inverse(K).
    """
    m = s.shape[0]
    pairs = sorted({(min(a, b), max(a, b)) for a, b in pattern})
    free = [(i, i) for i in range(m)] + pairs

    def unpack(theta):
        k = np.zeros((m, m))
        for (i, j), val in zip(free, theta):
            k[i, j] = val
            k[j, i] = val
        return k

    def objective(theta):
        k = unpack(theta)
        vals = np.linalg.eigvalsh(k)
        if vals[0] <= 1e-12:
            return 1e12 + float(np.sum(theta**2)), np.asarray(theta, float)
        sign, logdet = np.linalg.slogdet(k)
        f = -logdet + float(np.trace(k @ s))
        w = np.linalg.inv(k)
        grad_mat = s - w
        grad = np.array(
            [grad_mat[i, j] * (1.0 if i == j else 2.0) for i, j in free]
        )
        return f, grad

    theta0 = np.array([1.0 / s[i, i] if i == j else 0.0 for i, j in free])
    res = optimize.minimize(
        objective, theta0, jac=True, method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12},
    )
    return np.linalg.inv(unpack(res.x))


def sem_equal_variance_mle_numeric(
    s: np.ndarray,
    parent_pairs: list,
    component_blocks: list,
    undirected_pairs: list,
) -> float:
    """Equality-constrained maximum of the average log-likelihood.

    parent_pairs: (child, parent) coefficient positions. component_blocks:
    node lists whose errors may covary. undirected_pairs: allowed
    off-diagonal concentration positions. Hard equality of the error
    variances is enforced through SLSQP constraints; returns the maximal
    per-sample average log-likelihood.
    """
    p = s.shape[0]
    conc_free = []
    for block in component_blocks:
        conc_free.extend((v, v) for v in block)
    conc_free.extend(sorted({(min(a, b), max(a, b)) for a, b in undirected_pairs}))
    n_beta = len(parent_pairs)

    def build(theta):
        beta = np.zeros((p, p))
        for (j, k), val in zip(parent_pairs, theta[:n_beta]):
            beta[j, k] = val
        conc = np.zeros((p, p))
        for (i, j), val in zip(conc_free, theta[n_beta:]):
            conc[i, j] = val
            conc[j, i] = val
        return beta, conc

    def sigma_of(theta):
        _beta, conc = build(theta)
        sigma = np.zeros((p, p))
        for block in component_blocks:
            idx = np.ix_(block, block)
            sigma[idx] = np.linalg.inv(conc[idx])
        return sigma

    def neg_loglik(theta):
        beta, conc = build(theta)
        for block in component_blocks:
            sub = conc[np.ix_(block, block)]
            if np.linalg.eigvalsh(sub)[0] <= 1e-10:
                return 1e12
        sigma = sigma_of(theta)
        ia = np.eye(p) - beta
        cov = np.linalg.solve(ia, np.linalg.solve(ia, sigma).T).T
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            return 1e12
        return 0.5 * (p * np.log(2 * np.pi) + logdet + float(np.trace(np.linalg.solve(cov, s))))

    theta0 = np.concatenate([np.zeros(n_beta), np.array([1.0 if i == j else 0.0 for i, j in conc_free])])
    constraints = [
        {"type": "eq", "fun": (lambda theta, jj=j: sigma_of(theta)[jj, jj] - sigma_of(theta)[0, 0])}
        for j in range(1, p)
    ]
    res = optimize.minimize(
        neg_loglik, theta0, method="SLSQP", constraints=constraints,
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    return -float(res.fun)


def one_edge_equal_variance_numeric(s: np.ndarray, parent_pairs: list, edge: tuple) -> float:
    """Equal-variance maximum of the average log-likelihood with one undirected edge, by a 1-D search.

    parent_pairs: (child, parent) coefficient positions; edge: the one
    undirected pair, every other node a singleton. For a fixed error
    correlation rho on the edge, the coefficients are weighted least
    squares under R^-1, written out as one Kronecker-product linear system
    over the two rows, and sigma2 = T / p; the profiled objective
    p log(T / p) + log(1 - rho^2) is scanned on a grid and refined by
    bounded Brent. A check for inputs that defeat the general SLSQP
    oracle, such as nearly collinear predictors.
    """
    p = s.shape[0]
    parents = {v: sorted(k for j, k in parent_pairs if j == v) for v in range(p)}
    fixed_t = 0.0
    for v in set(range(p)) - set(edge):
        pa = parents[v]
        fixed_t += s[v, v] - (s[v, pa] @ np.linalg.solve(s[np.ix_(pa, pa)], s[pa, v]) if pa else 0.0)
    rows = list(edge)
    preds = sorted(set(parents[rows[0]]) | set(parents[rows[1]]))
    support = [i * len(preds) + preds.index(z) for i, v in enumerate(rows) for z in parents[v]]
    syy, syz, szz = s[np.ix_(rows, rows)], s[np.ix_(rows, preds)], s[np.ix_(preds, preds)]

    def objective(rho):
        w = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))
        b = np.zeros(2 * len(preds))
        if support:
            h = np.kron(w, szz)[np.ix_(support, support)]
            b[support] = np.linalg.solve(h, (w @ syz).ravel()[support])
        b = b.reshape(2, len(preds))
        e = syy - b @ syz.T - syz @ b.T + b @ szz @ b.T
        return p * np.log((fixed_t + float((w * e).sum())) / p) + np.log(1.0 - rho**2)

    grid = np.linspace(-1.0, 1.0, 4001)[1:-1]
    start = int(np.argmin([objective(x) for x in grid]))
    res = optimize.minimize_scalar(
        objective, bounds=(grid[max(start - 1, 0)], grid[min(start + 1, grid.size - 1)]),
        method="bounded", options={"xatol": 1e-12},
    )
    return -0.5 * (p * np.log(2.0 * np.pi) + p + float(res.fun))


def _incidence(g: ChainGraph) -> list:
    """Per node: tuples (other, kind at this node, kind at other), from the raw edge sets."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.p)]
    for j, k in g.directed:
        adj[j].append((k, _TAIL, _HEAD))
        adj[k].append((j, _HEAD, _TAIL))
    for j, k in g.undirected:
        adj[j].append((k, _UND, _UND))
        adj[k].append((j, _UND, _UND))
    return [tuple(sorted(x)) for x in adj]


def _triplex_step(entry: int, exit_at_node: int) -> bool:
    """Whether a route entering a node by `entry` and leaving by `exit_at_node` makes it a triplex occurrence."""
    return (entry == _HEAD and exit_at_node != _TAIL) or (entry == _UND and exit_at_node == _HEAD)


def brute_force_separated(g: ChainGraph, q: SeparationQuery, max_len: int | None = None) -> bool:
    """Sweep all routes of up to max_len edges and test openness literally.

    The frontier at step L holds the (endpoint, final-edge-kind) pairs of
    every open route with L edges; a route one edge longer is open exactly
    when the step at the old endpoint is status-consistent. The default
    cap of 9p edges is far above the 3p splicing bound, so a miss is
    impossible; the sweep also stops early once a frontier repeats, since
    the frontier sequence is then periodic and nothing new can appear.
    Exponentially dumb on purpose: this is the testing ground truth for
    `ampcg.separated`.
    """
    _node_indices(itertools.chain(q.a, q.b, q.c), g.p, "query node")
    if max_len is None:
        max_len = 9 * g.p
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    adj = _incidence(g)
    layer: set[tuple[int, int]] = set()
    for a in q.a:
        for other, _at_a, at_other in adj[a]:
            if other in q.b:
                return False
            layer.add((other, at_other))
    seen_layers = {frozenset(layer)}
    for _ in range(max_len - 1):
        nxt: set[tuple[int, int]] = set()
        for node, entry in layer:
            node_given = node in q.c
            for other, at_node, at_other in adj[node]:
                if _triplex_step(entry, at_node) != node_given:
                    continue
                if other in q.b:
                    return False
                nxt.add((other, at_other))
        if not nxt:
            return True
        key = frozenset(nxt)
        if key in seen_layers:
            return True
        seen_layers.add(key)
        layer = nxt
    return True


def equal_variance_bic(loglik: float, g: ChainGraph, n_eff: float) -> float:
    """n_eff * loglik - (k / 2) log(n_eff), with k every edge of g plus the one shared error variance."""
    return n_eff * loglik - 0.5 * (len(g.directed) + len(g.undirected) + 1) * math.log(n_eff)


def saturated_bound(s: np.ndarray, g: ChainGraph, n_eff: float) -> float:
    """The score bound of g on the second moment s with every multi-node component's error covariance free.

    The relaxed model `EqualVarianceScorer.bound` maximised before each
    component entered at its decomposable maximum: the singletons share one
    error variance, and each multi-node component regresses on all its
    predictors with a saturated error covariance, entering through the log
    determinant of its least residual moment (+inf as a bound when that is
    not positive definite). Written out from raw blocks of s, by solves and
    `slogdet`.
    """
    fixed_t, singles, logdets = 0.0, 0, 0.0
    for comp in chain_components(g):
        nodes = sorted(comp)
        into = sorted({z for v in nodes for z in g._parents[v]})
        e = s[np.ix_(nodes, nodes)]
        if into:
            e = e - s[np.ix_(nodes, into)] @ np.linalg.solve(s[np.ix_(into, into)], s[np.ix_(into, nodes)])
        if len(nodes) == 1:
            fixed_t, singles = fixed_t + float(e[0, 0]), singles + 1
            continue
        sign, logdet = np.linalg.slogdet(e)
        if sign <= 0:
            return math.inf
        logdets += float(logdet)
    objective = logdets + (singles * math.log(fixed_t / singles) if singles else 0.0)
    return equal_variance_bic(-0.5 * (g.p * math.log(2.0 * math.pi) + g.p + objective), g, n_eff)


def greedy_full_scan(data_or_cov, cfg: search.SearchConfig | None = None) -> ChainGraph:
    """`greedy_search` as it ran before moves were bounded: every move of every step is scored.

    The chains, their starts, the best strictly improving move with ties to
    the lower `search._rank` and the choice across chains are the
    library's; only the scan differs, so a disagreement is the pruning's.
    """
    cfg = cfg or search.SearchConfig()
    p = search._size(data_or_cov)
    scorer = EqualVarianceScorer(data_or_cov, p)
    best_graph, best_key = None, None
    for chain in range(cfg.restarts):
        g = ChainGraph(p) if chain == 0 else random_chain_graph(p, 0.4, 0.3, seed=compose_seed(cfg.seed, chain))
        current = scorer.score(g._parents, g.undirected)[0]
        for _ in range(search._MAX_STEPS):
            improved, improved_score = None, current
            for move in search._moves(g):
                s = scorer.score(*move)[0]
                if s > improved_score or (
                    s == improved_score and improved is not None and search._rank(*move) < search._rank(*improved)
                ):
                    improved, improved_score = move, s
            if improved is None:
                break
            g, current = search._graph(p, *improved), improved_score
        key = (-current, *search._rank(g._parents, g.undirected))
        if best_key is None or key < best_key:
            best_graph, best_key = g, key
    return best_graph


def identify_in_class_loop(class_rep: ChainGraph, data_or_cov) -> search.IdentifyResult:
    """`identify_in_class` as it ran before the class was ranked in one array pass: one member at a time.

    Each member's residual variances, log spreads and row are worked out in
    turn, and the rows are sorted on (statistic, `search._rank`). The
    covariance, the regressions and the tie-break are the library's, so a
    disagreement is the array ranking's.
    """
    members = equivalence_class(class_rep)
    regressions: dict = {}
    if isinstance(data_or_cov, Dataset):
        member_fit = fit(data_or_cov, min(members, key=lambda g: len(g.undirected)))
        s, loglik, converged, statistic = member_fit.cov, member_fit.loglik, member_fit.converged, "gap"
    else:
        s = moment_matrix(data_or_cov, class_rep.p)[0]
        search._check_population(s, class_rep, regressions)
        loglik, converged, statistic = gaussian_average_loglik(s, s), True, "dispersion"
    rows = []
    for member in members:
        v = np.array([_regression(s, node, into, regressions)[1] for node, into in enumerate(member._parents)])
        logs = np.log(v)
        gap = float(np.log(v.mean()) - logs.mean())
        rows.append(search.MemberFit(member, float(logs.max() - logs.min()), gap))
    rows.sort(key=lambda r: (getattr(r, statistic), *search._rank(r.graph._parents, r.graph.undirected)))
    margin = math.inf if len(rows) == 1 else getattr(rows[1], statistic) - getattr(rows[0], statistic)
    return search.IdentifyResult(rows[0].graph, len(members), tuple(rows), float(margin), loglik, converged)


def one_edge_record_numeric(fixed_t: float, c, p: int) -> float:
    """The least profiled objective p log(T / p) + log(1 - rho^2) of the one-edge record c, by a 1-D search.

    Each rho is scored by the descent's objective (`estimation._profile`,
    a GLS solve under R^-1 with no power series or root): a grid of 201
    points, tanh-spaced so it reaches within 1e-8 of +-1, is refined by
    bounded Brent around its least point.
    """

    def objective(rho):
        out = _profile(fixed_t, [c], p, np.array([-rho]))
        return math.inf if out is None else out[0]

    grid = np.tanh(np.linspace(-10.0, 10.0, 201))
    start = int(np.argmin([objective(x) for x in grid]))
    res = optimize.minimize_scalar(
        objective, bounds=(grid[max(start - 1, 0)], grid[min(start + 1, grid.size - 1)]),
        method="bounded", options={"xatol": 1e-14},
    )
    return min(float(res.fun), objective(grid[start]))


def one_edge_series_correlation(fixed_t: float, c, p: int) -> tuple[float, float]:
    """(rho, objective) of the one-edge equal-variance solve of the record c by power series, on any record.

    The shared predictors are partialled out of the second moment, the own
    ones reduced to canonical correlations lam (all zero when the own
    predictors sit on at most one row), and the stationarity condition
    h D^2 = P - T0 Q built as power series and solved by `polyroots`; the
    real roots in (-1, 1) and +-`_BELOW_ONE` each take one Newton step on h,
    and the smallest objective wins (see `estimation._one_edge_correlation`).
    """
    pairs = list(zip(*(index.tolist() for index in c.support)))
    shared = sorted({z for row, z in pairs if row == 0} & {z for row, z in pairs if row == 1})
    m = np.empty((2 + len(c.predictors),) * 2)
    m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:] = c.syy, c.syz, c.syz.T, c.szz
    if shared:
        at = np.array(shared) + 2
        m -= m[:, at] @ np.linalg.solve(m[at[:, None], at], m[at])
    lam = u0 = u1 = np.zeros(0)
    own = [(row, z + 2) for row, z in pairs if z not in shared]
    if own:
        rows, cols = np.array(own).T
        szz = m[cols[:, None], cols]
        same_row = rows[:, None] == rows
        chol_inv = np.linalg.inv(np.linalg.cholesky(np.where(same_row, szz, 0.0)))
        lam, vecs = np.linalg.eigh(chol_inv @ np.where(same_row, 0.0, szz) @ chol_inv.T)
        rotate = vecs.T @ chol_inv
        u0, u1 = rotate @ m[rows, cols], rotate @ m[1 - rows, cols]
    trace, cross = m[0, 0] + m[1, 1], m[0, 1]
    factors = [np.array([1.0, -x]) for x in lam]
    d = reduce(np.convolve, factors, np.ones(1))
    g_d = np.convolve([trace, -2.0 * cross], d)
    for i in range(lam.size):
        residual = np.array([u0[i], -u1[i]])
        g_d -= reduce(np.convolve, factors[:i] + factors[i + 1 :], np.convolve(residual, residual))
    d_der, g_d_der = (np.roll(q * np.arange(q.size), -1) for q in (d, g_d))
    series = np.zeros((3, 2 * lam.size + 4))
    series[0] = np.convolve([1.0, 0.0, -1.0], np.convolve(g_d_der, d) - np.convolve(g_d, d_der))
    series[1, 1:-1] = np.convolve(g_d, d)
    series[2] = np.convolve([0.0, 2.0, 0.0, -2.0], np.convolve(d, d))

    def g_parts(x: np.ndarray):
        d = 1.0 - x[:, None] * lam
        res = u0 - x[:, None] * u1
        return d, res, trace - 2.0 * x * cross - (res**2 / d).sum(axis=1)

    poly = np.array([p, 2.0 * (p - 1), -fixed_t]) @ series
    roots = polyroots(poly[: np.flatnonzero(poly)[-1] + 1])
    x = np.append(roots.real[np.isreal(roots) & (np.abs(roots.real) < 1.0)], (-_BELOW_ONE, _BELOW_ONE))
    d, res, g = g_parts(x)
    dn = (-2.0 * u1 * res) * d + lam * res**2
    dg = -2.0 * cross - (dn / d**2).sum(axis=1)
    ddg = -(2.0 * u1**2 / d + 2.0 * lam * dn / d**3).sum(axis=1)
    s = 1.0 - x**2
    h = p * s * dg + 2.0 * (p - 1) * x * g - 2.0 * fixed_t * x * s
    dh = p * s * ddg - 2.0 * x * dg + 2.0 * (p - 1) * g - 2.0 * fixed_t * (1.0 - 3.0 * x**2)
    step = x - h / dh
    x = np.where(np.abs(step) < 1.0, step, x)
    s = 1.0 - x**2
    objective = p * np.log((fixed_t + g_parts(x)[2] / s) / p) + np.log(s)
    best = np.argmin(objective)
    return float(x[best]), float(objective[best])


def tree_equal_variance_numeric(s: np.ndarray, g: ChainGraph, starts: int = 2) -> float:
    """Equal-variance maximum of the average log-likelihood when every multi-node component of g is a tree.

    Such a component's error correlation R_K is Markov on its tree, so it
    is set by one correlation per edge, R_uw the product of the edge
    correlations on the tree path from u to w, and every rho_e in (-1, 1)
    gives a positive definite R_K. With rho_e = tanh(x_e) the search is
    unconstrained: for each x the coefficients are the GLS solve under the
    block-diagonal R^-1 over all rows at once, written out as one
    Kronecker-product linear system, sigma2 = T / p, and the profiled
    objective p log(T / p) + log det R is minimized by BFGS with numeric
    gradients from x = 0 and from `starts` - 1 seeded random points.
    Nothing is read off the tree but R itself: R^-1, T and log det R are
    computed densely.
    """
    p = s.shape[0]
    edges = sorted(g.undirected)
    for comp in chain_components(g):
        if len(comp) > 1 and sum(a in comp for a, _ in edges) != len(comp) - 1:
            raise ValueError(f"component {sorted(comp)} is not a tree")
    pairs = sorted((child, parent) for parent, child in g.directed)
    rows = np.array([j for j, _ in pairs], dtype=int)
    cols = np.array([k for _, k in pairs], dtype=int)
    adjacent = {v: [] for v in range(p)}
    for i, (a, b) in enumerate(edges):
        adjacent[a].append((b, i))
        adjacent[b].append((a, i))
    on_path = np.zeros((p, p, len(edges)), dtype=bool)  # on_path[u, w, e]: edge e lies on the tree path u ... w
    joined = np.eye(p, dtype=bool)  # u and w lie in one component
    for root in range(p):
        stack = [root]
        while stack:
            v = stack.pop()
            for w, i in adjacent[v]:
                if not joined[root, w]:
                    joined[root, w] = True
                    on_path[root, w] = on_path[root, v]
                    on_path[root, w, i] = True
                    stack.append(w)

    def correlation(rho):
        return np.where(joined, np.where(on_path, rho, 1.0).prod(axis=2), 0.0)

    def objective(x):
        r = correlation(np.tanh(x))
        w = np.linalg.inv(r)
        ws = w @ s
        t = float(np.trace(ws))
        if pairs:
            q = w[rows[:, None], rows] * s[cols[:, None], cols]
            rhs = ws[rows, cols]
            t -= float(rhs @ np.linalg.solve(q, rhs))
        return p * math.log(t / p) + float(np.linalg.slogdet(r)[1])

    rng = np.random.default_rng(0)
    best = math.inf
    for k in range(starts):
        x0 = np.zeros(len(edges)) if k == 0 else rng.uniform(-1.0, 1.0, len(edges))
        res = optimize.minimize(objective, x0, method="BFGS", options={"gtol": 1e-8})
        best = min(best, float(res.fun))
    return -0.5 * (p * math.log(2.0 * math.pi) + p + best)
