"""Independent reference implementations used only to check the library.

Everything here works from raw edge sets and plain numeric optimization,
on purpose: these functions share no code (and as little cleverness as
possible) with the implementations they vet. The one exception is
`brute_force_separated`, which reuses the library's edge incidence and
per-step openness rule and vets only the reachability shortcut of
`separated`; `literal_route_separated` checks the rule itself from raw
edge sets. `enumerate_chain_graphs`, which lists every chain graph on a
few nodes for the exhaustive tests, filters its candidates with the
library's `is_chain_graph`.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import optimize

from ampcg.graphs import CapacityError, ChainGraph, is_chain_graph
from ampcg.separation import SeparationQuery, _check_query, _incidence, _triplex_step


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
    _check_query(g, q)
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
