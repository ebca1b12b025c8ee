"""Maximum-likelihood fitting of chain-graph structural models.

The likelihood decomposes over chain components. A singleton component's
maximum likelihood is closed form in either mode: least squares on its
parents, with the error variance the residual sum of squares per sample
(the Peters & Bühlmann 2014 DAG case). That regression of a node on a
parent set is `_regression`, the library's only one: the singletons of
`fit` and `fit_component`, the scorer's T0 and every regression in
`search`'s identification read it. Blocks of the second moment are cut
with broadcast index arrays (see `_component`), which cost less per call
than `np.ix_` on these small matrices. A multi-node component is fit in
the unconstrained mode by one loop (`_alternating_fit`, after Drton &
Eichler 2006): each round is a generalized-least-squares regression of the
component on its parents under the current error concentration (plain
least squares on the first round), then one sweep of iterative
proportional fitting (IPF) of the regression-residual moment to the
component's undirected structure, until the parameters stop moving. The
loop runs on the correlation scale and scales its result back, and `ipf`
is that loop on a component without predictors, returning the loop's own
`ComponentFit`.
Inputs may be a dataset or a covariance matrix directly; feeding the exact
population covariance separates statistical error from algorithmic error.
Each input is validated once, by `moment_matrix`, at the public entry
point, under `sem`'s scale-free rule for a valid covariance; the fit core
works on the validated second moment. The graph is checked on entry
too: `fit`, `fit_component` and `EqualVarianceScorer.loglik` reject one
with a semidirected cycle before any work, by the one walk that decides
every cycle question (`graphs.is_chain_graph`, over the masks the graph
keeps from its one build); `state_loglik` leaves that to its caller.
Nothing `fit` builds from checked input is checked again, save its
implied covariance (see `fit`). A `FitResult` states each fact
once: its implied covariance `cov`, which `search.identify_in_class` reads
as the covariance of the whole class on data, and the `loglik` of that
covariance against the input.

The equal-error-variance mode computes the exact equality-constrained
maximum likelihood. Every component's error covariance is written as
sigma2 * R_K with R_K a correlation matrix whose inverse has the
component's undirected zero pattern; for fixed R_K the coefficients are a
GLS solve and sigma2 profiles out as the mean weighted residual moment.
Singletons have R_K = 1 and enter only through their residual sums of
squares, so a DAG is closed form (sigma2 the mean residual sum of
squares). When the only multi-node component is two nodes joined by one
undirected edge, the one free correlation is the best real root of its
stationarity polynomial, so the optimum is global and closed form. One
record type serves every such component: the polynomial's T0-free power
series in plain floats, read off one Cholesky factor when the
component's own predictors (those only one of its nodes regresses on)
sit on at most one node, and built from their canonical correlations
otherwise. One solve finds its real roots (`_real_roots`), in closed
form when it is a cubic, as in the first case, and by companion
eigenvalues otherwise. When every multi-node component is one edge, or a
tree whose nodes all regress on the same predictors, the objective
separates over the edges but for the shared T: a tree's GLS is least
squares for every R_K and R_K is Markov on the tree, so each edge's share
of T and of log det R_K is a one-edge record's. Sweeps of exact one-edge
steps (`_sweep`) then solve the state. With other undirected
structure a BFGS descent (`_descend`) runs over the off-diagonal
pattern entries of the multi-node components' unit-diagonal concentration
matrices, on the profiled objective `_profile`, from the identity, and
again from a diagonally dominant start if the identity is stationary;
each descent returns its end point's objective and gradient, so no point
is evaluated twice.
`EqualVarianceScorer` scores many graphs on one input with that same
split and solve, read off parent tuples and undirected edges, so a search
scores a state without building its graph. It builds each component once
(a singleton's regression per (node, parent set), a multi-node
component's record per parent sets and edges, and a record's per-edge
records for the sweeps) and keeps each state's penalized score. A
one-edge record keeps the part of its solve that does not depend on the
rest of T, so each further solve of it is one small root solve in plain
floats. The scorer bounds a state's score in closed form from the
singletons' regressions and the log-determinant of each multi-node
component's residual moment on all its predictors, kept per component
and predictors, and builds no record for a state it only bounds.
The spread of the unconstrained fit's log error variances is its
`dispersion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from typing import Iterable, NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .graphs import ChainGraph, _blocks, _require_chain_graph, _trusted, chain_components
from .sem import _RANK_TOL, Dataset, SemParameters, _first_dependent, _valid_covariance, implied_distribution

__all__ = [
    "ComponentFit",
    "EqualVarianceScorer",
    "FitResult",
    "fit",
    "fit_component",
    "gaussian_average_loglik",
    "ipf",
    "moment_matrix",
    "penalized_score",
]


@dataclass(frozen=True, eq=False)
class ComponentFit:
    nodes: tuple
    predictors: tuple
    beta: np.ndarray  # len(nodes) x len(predictors)
    sigma: np.ndarray  # len(nodes) x len(nodes)
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class FitResult:
    params: SemParameters
    cov: np.ndarray  # the implied covariance of params, at which loglik is evaluated
    loglik: float
    error_variances: np.ndarray
    iterations: int
    converged: bool
    dispersion: float


def moment_matrix(data_or_cov, p: int) -> tuple[np.ndarray, int | None]:
    """Second-moment matrix and sample size (None for covariance input).

    The model has no intercepts, so dataset input uses the uncentered
    second moment, which is its maximum-likelihood moment estimate.
    Covariance input must pass `sem._valid_covariance`; dataset input must
    have no constant column, and its second moment must pass the same
    scale-free rank test. Degenerate input raises ValueError naming the
    offending column or node.
    """
    if not isinstance(data_or_cov, Dataset):
        s = _valid_covariance(data_or_cov, "covariance")
        if s.shape != (p, p):
            raise ValueError(f"covariance must be {p}x{p}, got {s.shape}")
        return s, None
    if data_or_cov.p != p:
        raise ValueError(f"dataset has {data_or_cov.p} columns, graph has {p} nodes")
    v = data_or_cov.values
    vt = np.ascontiguousarray(v.T)  # one row per column, so each row's test reads contiguous memory
    constant = np.flatnonzero(~(vt != vt[:, :1]).any(axis=1))
    if constant.size:
        raise ValueError(f"column {data_or_cov._label(constant[0])} is constant")
    s = v.T @ v / data_or_cov.n
    j = _first_dependent(s)
    if j is not None:
        raise ValueError(
            f"column {data_or_cov._label(j)} is a linear combination of the columns before it "
            "(second-moment matrix is not positive definite)"
        )
    return s, data_or_cov.n


_EV_GRAD_TOL = 1e-6  # largest objective gradient entry of a converged equal-variance fit
_TOL = 1e-9  # relative parameter change at which the unconstrained fit stops
_MAX_ROUNDS = 500  # GLS-plus-IPF-sweep rounds per unconstrained multi-node fit
_MAX_STEPS = 15000  # descent steps per equal-variance solve
_MAX_SWEEPS = 100  # edge sweeps per equal-variance solve on the separable route
_MAX_HALVINGS = 20  # trial points per descent step (L-BFGS-B's default line-search limit)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))  # the largest correlation below 1
_HORNER_SLACK = 8.0 * float(np.finfo(float).eps)  # relative rounding of a cubic evaluated at a point by Horner's rule
_ZERO_CORRELATION = 8.0 * float(np.finfo(float).eps)  # canonical correlations this small are zero to rounding
_CLOSED_FORM_SPREAD = 100.0  # largest ratio of a cubic's other coefficients to its leading one that `_real_roots` solves in closed form
_POPULATION_N_EFF = 1e5  # sample size the scorer's penalty assumes for covariance input


def _maximal_cliques(m: int, edges: Iterable[tuple]) -> list:
    neighbors: dict[int, set] = {i: set() for i in range(m)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    cliques: list[tuple] = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(neighbors[v]))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(m)), set())
    return sorted(cliques)


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    if new.size == 0:
        return 0.0
    return float(np.max(np.abs(new - old))) / max(1.0, float(np.max(np.abs(old))))


def ipf(s, pattern: Iterable[tuple]) -> ComponentFit:
    """Covariance MLE under a concentration zero pattern, by clique scaling.

    `pattern` lists the allowed off-diagonal pairs (the undirected edges of
    the local graph). This is the unconstrained fit's loop
    (`_alternating_fit`) on a component with no predictors, so its GLS step
    is empty and each round is one sweep: starting from a diagonal
    concentration matrix, each maximal clique's block is updated so the
    fitted marginal over the clique matches `s` exactly; updates never
    touch entries off the pattern, so the zero constraints hold by
    construction. A complete pattern therefore returns `s` itself, to
    rounding, after one sweep, and an empty pattern returns its diagonal.
    The sweeps run on the correlation matrix of `s` and the result is
    scaled back, so rescaling the nodes rescales the fit alike. Sweeps stop
    once the fitted correlation matrix moves by less than a relative 1e-9,
    or after 500 sweeps. The result is the loop's own `ComponentFit`, with
    nodes 0..m-1, no predictors and `iterations` counting the sweeps. No
    library path calls it; `fit` runs the same loop directly. `s` must pass
    `sem`'s covariance rule (`_valid_covariance`): a node that is a linear
    combination of the nodes before it raises `np.linalg.LinAlgError`
    naming it, any other fault ValueError.
    """
    s = _valid_covariance(s, "ipf input", singular=np.linalg.LinAlgError)
    m = s.shape[0]
    edges = frozenset((min(a, b), max(a, b)) for a, b in pattern)
    if not all(0 <= a < b < m for a, b in edges):
        raise ValueError(f"ipf pattern pairs must join two distinct nodes among 0..{m - 1}")
    return _alternating_fit(_component(s, ((),) * m, edges, frozenset(range(m))))


class _OneEdge(NamedTuple):
    """The T0-free pieces of a one-edge component's solve, as power-basis floats, lowest degree first.

    See `_one_edge_correlation` for g, D, P and Q.
    """

    g_d: tuple  # g D
    d: tuple  # D
    series: tuple  # per degree of h D^2: the coefficients of (1 - rho^2) g' D^2, rho g D^2 and Q


@dataclass(frozen=True, eq=False)
class _Component:
    """The regression layout of a multi-node chain component, or of `ipf`'s input, and its slices of the second moment.

    `support` holds the coefficients allowed to be non-zero as (local node,
    local predictor) index arrays, `pattern` the undirected edges as sorted
    local node pairs and `edges` the same pairs as index arrays. `normal` is
    the predictor factor of the weighted normal equations, one row and
    column per supported coefficient.
    """

    nodes: list
    predictors: list
    pattern: list
    edges: tuple
    support: tuple
    syy: np.ndarray
    syz: np.ndarray
    szz: np.ndarray
    normal: np.ndarray

    @cached_property
    def one_edge(self) -> _OneEdge:
        """The T0-free pieces of the one-edge solve, worked out on first use."""
        return _one_edge_terms(self)

    @cached_property
    def separable(self) -> tuple | None:
        """(offset, per-edge two-node records) of the edge sweep (`_sweep`), worked out on first use; None off it.

        A two-node component is its own one record, with offset 0: its
        share of T is the record's g / (1 - rho^2) (see
        `_one_edge_correlation`). A tree whose nodes all regress on the
        same predictors has the least-squares residual moment E for every
        R_K (GLS with the same predictors on every row is least squares),
        and R_K is Markov on the tree, so
            trace(R_K^-1 E) = sum_v E_vv + sum_e [(E_uu - 2 rho_e E_uw + E_ww) / (1 - rho_e^2) - E_uu - E_ww]:
        one record per edge on the 2x2 block of E, in `pattern` order,
        and the offset -sum_v (degree(v) - 1) E_vv. Any other component
        is None.
        """
        m = len(self.nodes)
        if m == 2:
            return 0.0, (self,)
        if len(self.pattern) != m - 1 or self.support[0].size != m * len(self.predictors):
            return None
        e = self.syy - self.syz @ np.linalg.solve(self.szz, self.syz.T) if self.predictors else self.syy
        e = 0.5 * (e + e.T)
        no_parents = ((),) * m
        records = tuple(_component(e, no_parents, frozenset([edge]), frozenset(edge)) for edge in self.pattern)
        degree = np.bincount(np.concatenate(self.edges), minlength=m)
        return -float((degree - 1) @ e.diagonal()), records


def _index_arrays(pairs: list) -> tuple:
    return tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)


def _component(s: np.ndarray, parents: tuple, undirected: frozenset, comp: frozenset) -> _Component:
    """The record of the chain component `comp` of the graph with these parent tuples and undirected edges.

    The second moment is sliced with broadcast index arrays, a column of
    row indices against a row of column indices, as every small-matrix
    slice in the library is: the block `np.ix_` gives, without its
    per-call argument handling.
    """
    y_nodes = sorted(comp)
    z_nodes = sorted({z for v in comp for z in parents[v]})
    z_index = {v: i for i, v in enumerate(z_nodes)}
    support = [(row, z_index[parent]) for row, node in enumerate(y_nodes) for parent in parents[node]]
    local = {v: i for i, v in enumerate(y_nodes)}
    # sorted, so a record shared by many graphs orders its edges the same whichever graph built it
    pattern = sorted((local[a], local[b]) for a, b in undirected if a in comp and b in comp)
    y, z = np.array(y_nodes)[:, None], np.array(z_nodes, dtype=int)
    szz = s[z[:, None], z]
    rows, cols = _index_arrays(support)
    return _Component(
        nodes=y_nodes,
        predictors=z_nodes,
        pattern=pattern,
        edges=_index_arrays(pattern),
        support=(rows, cols),
        syy=s[y, y.T],
        syz=s[y, z],
        szz=szz,
        normal=szz[cols[:, None], cols].T,
    )


def _gls_coefficients(c: _Component, omega: np.ndarray) -> np.ndarray:
    """Solve the weighted normal equations for the supported coefficients.

    Minimizes trace(omega * residual-moment) over coefficient matrices that
    vanish off the support. With identity weighting the equations decouple
    into per-row ordinary least squares.
    """
    b = np.zeros(c.syz.shape)
    rows, cols = c.support
    if rows.size:
        a = omega[rows[:, None], rows] * c.normal
        b[rows, cols] = np.linalg.solve(a, (omega @ c.syz)[rows, cols])
    return b


def _residual_moment(c: _Component, b: np.ndarray) -> np.ndarray:
    if not c.predictors:
        return c.syy
    e = c.syy - b @ c.syz.T - c.syz @ b.T + b @ c.szz @ b.T
    return 0.5 * (e + e.T)


def _regression(s: np.ndarray, node: int, into: tuple, cache: dict) -> tuple[np.ndarray, float]:
    """(coefficients, residual variance) of the least-squares regression of `node` on the parent tuple `into`.

    The residual variance is s[node, node] - s[node, into] @ b, the
    residual sum of squares per sample. The second moment s has passed
    `moment_matrix`, so it is positive definite and the regression is well
    posed. The result is kept in `cache` by (node, into), so a regression
    shared by many graphs is solved once.
    """
    if (node, into) not in cache:
        i = np.array(into, dtype=int)
        b = np.linalg.solve(s[i[:, None], i], s[i, node]) if into else np.zeros(0)
        cache[node, into] = b, float(s[node, node] - s[node, i] @ b)
    return cache[node, into]


def _split(s: np.ndarray, parents: tuple, undirected: frozenset, comps: Iterable, cache: dict | None = None):
    """(singleton regressions, multi-node `_Component` records) of the chain components `comps`.

    The graph is given by its parent tuples (sorted, one per node) and its
    undirected edges, as `ChainGraph._parents` and `ChainGraph.undirected`
    hold them, so a caller can score a graph it never built. A singleton
    is fit in closed form as (node, coefficients, residual variance) from
    `_regression`; only the multi-node components are left for a numeric
    fit. With a `cache`, each regression is kept by (node, parent set) and
    each multi-node record by (component, its nodes' parent sets, its
    undirected edges), so a component is built once however many graphs
    contain it.
    """
    cache = {} if cache is None else cache
    singles, multi = [], []
    for comp in comps:
        if len(comp) == 1:
            (node,) = comp
            singles.append((node, *_regression(s, node, parents[node], cache)))
            continue
        key = (comp, tuple(parents[v] for v in sorted(comp)), frozenset(e for e in undirected if e[0] in comp))
        if key not in cache:
            cache[key] = _component(s, parents, undirected, comp)
        multi.append(cache[key])
    return singles, multi


def _alternating_fit(c: _Component) -> ComponentFit:
    """Unconstrained maximum likelihood of a multi-node component, one GLS solve and one IPF sweep per round.

    The loop runs on the correlation scale, every node and predictor
    divided by its root second moment, and the result is scaled back, so
    the relative stop test means the same for every unit of measurement.
    Each round solves the weighted normal equations under the current
    concentration (diagonal at the start, so the first round is least
    squares), then makes one sweep of clique updates over that solve's
    residual moment: each maximal clique's concentration block moves by
    E_cc^-1 - ((K^-1)_cc)^-1, so the fitted marginal over the clique
    matches the residual moment E, and entries off the pattern are never
    touched. That additive step shrinks to zero at the optimum; resetting
    the block to E_cc^-1 plus its Schur term instead compounds rounding
    from sweep to sweep and can leave a non-positive-definite fit. The
    rounds stop once the coefficients and the fitted covariance both move
    by less than a relative `_TOL`, or after `_MAX_ROUNDS` rounds. Without
    predictors the GLS step is empty and the loop is plain IPF, which is
    what `ipf` runs.
    """
    dy, dz = np.sqrt(c.syy.diagonal()), np.sqrt(c.szz.diagonal())
    cols = c.support[1]
    c = replace(
        c,
        syy=c.syy / np.outer(dy, dy),
        syz=c.syz / np.outer(dy, dz),
        szz=c.szz / np.outer(dz, dz),
        normal=c.normal / np.outer(dz[cols], dz[cols]),
    )
    m = len(c.nodes)
    cliques = [np.array(q) for q in _maximal_cliques(m, c.pattern)]
    b = np.zeros(c.syz.shape)
    conc = np.diag(1.0 / np.diag(c.syy))
    sigma = np.diag(np.diag(c.syy))
    for rounds in range(1, _MAX_ROUNDS + 1):
        b_new = _gls_coefficients(c, conc)
        e = _residual_moment(c, b_new)
        for q in cliques:
            block = q[:, None], q
            conc[block] += np.linalg.inv(e[block]) - np.linalg.inv(np.linalg.inv(conc)[block])
        sigma_new = np.linalg.inv(conc)
        converged = _relative_change(b_new, b) < _TOL and _relative_change(sigma_new, sigma) < _TOL  # False on NaN
        b, sigma = b_new, sigma_new
        if converged:
            break
    sigma = 0.5 * (sigma + sigma.T) * np.outer(dy, dy)
    return ComponentFit(tuple(c.nodes), tuple(c.predictors), b * np.outer(dy, 1.0 / dz), sigma, rounds, converged)


def fit_component(data_or_cov, g: ChainGraph, comp: Iterable[int]) -> ComponentFit:
    """Unconstrained maximum likelihood of one chain component.

    Least squares for a singleton, the alternating GLS/IPF loop otherwise.
    A g with a semidirected cycle is rejected with ValueError naming one.
    """
    _require_chain_graph(g)
    comp = frozenset(int(x) for x in comp)
    if comp not in set(chain_components(g)):
        raise ValueError("comp must be a chain component of g")
    singles, multi = _split(moment_matrix(data_or_cov, g.p)[0], g._parents, g.undirected, [comp])
    if multi:
        return _alternating_fit(multi[0])
    ((node, b, variance),) = singles
    return ComponentFit((node,), g._parents[node], b[None, :], np.full((1, 1), variance), 0, True)


def gaussian_average_loglik(model_cov: np.ndarray, s: np.ndarray) -> float:
    """Per-sample expected log density of N(0, model_cov) under moments s."""
    p = model_cov.shape[0]
    sign, logdet = np.linalg.slogdet(model_cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("model covariance is not positive definite")
    quad = float(np.trace(np.linalg.solve(model_cov, s)))
    return -0.5 * (p * math.log(2.0 * math.pi) + logdet + quad)


class _Solve(NamedTuple):
    objective: float  # p * log(T / p) + sum_K log det R_K at the optimum
    theta: np.ndarray  # off-diagonal pattern entries of the unit-diagonal Omega_K at the optimum
    iterations: int  # sweeps that lowered the objective, or descent steps
    converged: bool
    route: str  # "closed form", "one edge", "sweep" or "descent"


def _times(a: list, b: list) -> list:
    """The product of two polynomials in the power basis, lowest degree first; an empty factor reads as zero."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _derivative(a: list) -> list:
    return [i * x for i, x in enumerate(a)][1:]


def _horner(a, x: float) -> tuple[float, float]:
    """(value, derivative) at x of the polynomial with power-basis coefficients a, lowest degree first."""
    value = slope = 0.0
    for coefficient in reversed(a):
        slope = slope * x + value
        value = value * x + coefficient
    return value, slope


def _one_edge_terms(c: _Component) -> _OneEdge:
    """The T0-free pieces of the one-edge solve of c (see `_one_edge_correlation`)."""
    pairs = list(zip(*(index.tolist() for index in c.support)))
    shared = sorted({z for row, z in pairs if row == 0} & {z for row, z in pairs if row == 1})
    own = [(row, z + 2) for row, z in pairs if z not in shared]
    m = np.empty((2 + len(c.predictors),) * 2)  # second moment of (the two nodes, the predictors)
    m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:] = c.syy, c.syz, c.syz.T, c.szz
    if len({row for row, _ in own}) < 2:
        k = own[0][0] if own else 0  # the row with own predictors, if any
        at = np.array([z + 2 for z in shared] + [z for _, z in own] + [k, 1 - k])
        factor = np.linalg.cholesky(m[at[:, None], at])
        (*w, l_ok, l_oo), l_kk = factor[-1, len(shared) :].tolist(), float(factor[-2, -2])
        g2 = -sum(x * x for x in w)
        g0, g1 = l_kk * l_kk - g2 + l_ok * l_ok + l_oo * l_oo, -2.0 * l_ok * l_kk
        # `_series` of g D = g0 + g1 rho + g2 rho^2 and D = 1, written out, so this build stays one Cholesky read
        return _OneEdge((g0, g1, g2), (1.0,), ((g1, 0.0, 0.0), (2.0 * g2, g0, 2.0), (-g1, g1, 0.0), (-2.0 * g2, g2, -2.0)))
    if shared:
        at = np.array(shared) + 2
        m -= m[:, at] @ np.linalg.solve(m[at[:, None], at], m[at])
    rows, cols = np.array(own).T
    szz = m[cols[:, None], cols]
    same_row = rows[:, None] == rows
    chol_inv = np.linalg.inv(np.linalg.cholesky(np.where(same_row, szz, 0.0)))
    lam, vecs = np.linalg.eigh(chol_inv @ np.where(same_row, 0.0, szz) @ chol_inv.T)
    rotate = vecs.T @ chol_inv
    u0, u1 = (rotate @ m[rows, cols]).tolist(), (rotate @ m[1 - rows, cols]).tolist()
    # g D = (trace - 2 rho cross) D - sum_i (u0_i - rho u1_i)^2 prod_{j != i} (1 - rho lam_j)
    factors = [[1.0, -x if abs(x) > _ZERO_CORRELATION else 0.0] for x in lam.tolist()]
    d = reduce(_times, factors, [1.0])
    g_d = _times([float(m[0, 0] + m[1, 1]), -2.0 * float(m[0, 1])], d)
    for i in range(lam.size):
        residual = [u0[i], -u1[i]]
        term = reduce(_times, factors[:i] + factors[i + 1 :], _times(residual, residual))
        g_d = [x - y for x, y in zip(g_d, term)]
    return _OneEdge(tuple(g_d), tuple(d), _series(g_d, d))


def _series(g_d: list, d: list) -> tuple:
    """Per degree of h D^2, lowest first: the coefficients of (1 - rho^2) g' D^2, rho g D^2 and Q (see `_OneEdge`)."""
    g_der_d2 = [x - y for x, y in zip(_times(_derivative(g_d), d), _times(g_d, _derivative(d)))]
    rows = [_times([1.0, 0.0, -1.0], g_der_d2), [0.0, *_times(g_d, d)], _times([0.0, 2.0, 0.0, -2.0], _times(d, d))]
    return tuple(zip(*(row + [0.0] * (len(rows[2]) - len(row)) for row in rows)))  # Q has the highest degree


def _real_roots(coefficients: list) -> list:
    """Real roots, in increasing order, of the polynomial with these power-basis coefficients, lowest degree first.

    Zero leading coefficients are dropped first. A cubic whose other
    coefficients are at most `_CLOSED_FORM_SPREAD` times its leading one
    has its roots within about that ratio of zero, and takes the closed
    forms of Numerical Recipes (3rd ed., section 5.6): the trigonometric
    one when it has three real roots, Cardano's otherwise, A + B for its
    real root with the complex pair -(A + B) / 2 +- i sqrt(3) (A - B) / 2.
    When the cubic vanishes at the pair's real part to within the rounding
    of its evaluation there (`_HORNER_SLACK` of the sum of its terms'
    magnitudes), the pair is a double real root that rounding split, and
    it counts twice. The roots are not polished.

    A cubic with a smaller leading coefficient has a root far out, and the
    forms would reach the roots near zero by subtracting terms of that
    root's size (the shift b / 3a and the scale 2 sqrt(q)) and lose them to
    cancellation. Its roots, and those of a polynomial of any other degree,
    are the eigenvalues of its balanced companion matrix (`polyroots`), and
    only the exactly real ones count.
    """
    while coefficients[-1] == 0.0:
        coefficients = coefficients[:-1]
    *rest, a = coefficients
    if len(rest) != 3 or abs(a) * _CLOSED_FORM_SPREAD < max(map(abs, rest)):
        return sorted(float(x.real) for x in polyroots(coefficients) if x.imag == 0.0)
    d, c, b = (x / a for x in rest)
    q = (b * b - 3.0 * c) / 9.0
    r = (b * (2.0 * b * b - 9.0 * c) + 27.0 * d) / 54.0
    shift = b / 3.0
    if r * r < q**3:
        theta = math.acos(max(-1.0, min(1.0, r / (q * math.sqrt(q)))))
        scale = -2.0 * math.sqrt(q)
        return sorted(scale * math.cos((theta + turn) / 3.0) - shift for turn in (0.0, 2.0 * math.pi, -2.0 * math.pi))
    big = -math.copysign((abs(r) + math.sqrt(r * r - q**3)) ** (1.0 / 3.0), r)
    small = q / big if big != 0.0 else 0.0
    x = -0.5 * (big + small) - shift
    size = ((abs(x) + abs(b)) * abs(x) + abs(c)) * abs(x) + abs(d)
    if abs(((x + b) * x + c) * x + d) <= _HORNER_SLACK * size:
        return sorted((big + small - shift, x, x))
    return [big + small - shift]


def _one_edge_correlation(fixed_t: float, c: _Component, p: int) -> tuple[float, float]:
    """(rho, objective) at the global minimum of the profiled objective when c is one two-node component with one edge.

    With R = [[1, rho], [rho, 1]], (1 - rho^2) R^-1 = I - rho J is linear in
    rho, so the GLS normal matrix is A0 - rho A1 and its right side
    r0 - rho r1. Predictors that both rows regress on enter without
    restriction, so GLS on them is least squares and they are partialled
    out of the second moment first. On the rest, each row's own
    predictors, A0 = L L^T and the eigenvalues lam of L^-1 A1 L^-T
    (canonical correlations between the two rows' own predictors, so
    inside (-1, 1)) give, with u0 and u1 the right sides rotated alike,
        g(rho) = (1 - rho^2)(T - T0) = a - 2 rho c - sum_i (u0_i - rho u1_i)^2 / (1 - rho lam_i)
    for a, c the trace and off-diagonal entry of the partialled residual
    moment and T0 = fixed_t. The objective p log(T / p) + log(1 - rho^2)
    tends to +inf at rho = +-1, so its minimum is a real root in (-1, 1) of
        h(rho) = p (1 - rho^2) g' + 2 (p - 1) rho g - 2 rho T0 (1 - rho^2).
    D = prod_i (1 - rho lam_i) over the k own coefficients makes g D a
    polynomial, and h D^2 = P - T0 Q with
        P = p (1 - rho^2) ((g D)' D - g D D') + 2 (p - 1) rho g D D,  Q = 2 rho (1 - rho^2) D^2,
    of degree at most 2k + 3. Nothing but T0 changes between graphs that
    share the component, so each record keeps g D, D and the power series
    of P's two terms and Q, worked out once (`_Component.one_edge`).

    When the own predictors all sit on one row, or there are none, A1 = 0
    and every lam_i is zero, so D = 1, g D = g0 + g1 rho + g2 rho^2 and
    h D^2 is the cubic
        2 (T0 - g2) rho^3 + (p - 2) g1 rho^2 + (2 p g2 + 2 (p - 1) g0 - 2 T0) rho + p g1,
    of lower degree when T0 = 0, as at p = 2. The record then reads g's
    three coefficients off one Cholesky factor of the second moment of
    (shared predictors, own predictors, the row with them, the other row)
    as sums of squares: g0 is the residual variance of the row with the
    own predictors on all its predictors plus the other row's on the
    shared ones, g1 is -2 times the rows' residual covariance on all
    predictors, and -g2 is what the own predictors take off the other
    row's residual variance; the series for D = 1 are written out.
    Otherwise the record partials out the shared predictors, reduces the
    own ones to lam, u0 and u1, and multiplies out D, g D and the series
    (`_series`). A lam_i within `_ZERO_CORRELATION` of zero counts as zero,
    so its factor of D is 1. With k0 and k1 own coefficients on the two
    rows, |k0 - k1| of the lam are zero in exact arithmetic, and rounding
    leaves them near 1e-17, where they would add roots near 1e17 whose
    companion eigenvalues cost the roots in (-1, 1) their accuracy.

    Each call works in plain floats: it finds the real roots of P - T0 Q
    (`_real_roots`: in closed form for a cubic, by companion eigenvalues
    for a higher degree or a cubic whose leading coefficient is small next
    to the others, as for singletons whose residual total is small next to
    the two rows', in other units), takes those in (-1, 1) and adds
    +-`_BELOW_ONE`, where the objective is least when its minimum lies
    within rounding of +-1 (a component whose residual total is many
    orders below T0). It takes one Newton step on P - T0 Q from each and
    returns the one with the smallest objective.
    """
    t = c.one_edge
    weight = 2.0 * (p - 1)
    poly = [p * a + weight * b - fixed_t * q for a, b, q in t.series]
    best = (0.0, math.inf)
    for x in [x for x in _real_roots(poly) if abs(x) < 1.0] + [-_BELOW_ONE, _BELOW_ONE]:
        h, dh = _horner(poly, x)
        if dh != 0.0 and abs(step := x - h / dh) < 1.0:
            x = step
        objective = p * math.log((fixed_t + _one_edge_share(t, x)) / p) + math.log(1.0 - x * x)
        if objective < best[1]:
            best = (x, objective)
    return best


def _one_edge_share(t: _OneEdge, rho: float) -> float:
    """g(rho) / (1 - rho^2), the one-edge record's share of T at the correlation rho (see `_one_edge_correlation`)."""
    return _horner(t.g_d, rho)[0] / (_horner(t.d, rho)[0] * (1.0 - rho * rho))


def _sweep(fixed_t: float, comps: list, p: int) -> _Solve | None:
    """The separable route of `_equal_variance_solve`: exact edge steps in sweeps, or None off it.

    The route applies when every component has a `_Component.separable`
    split: T is then T0 plus the components' offsets plus each edge's
    record share g_e(rho_e) / (1 - rho_e^2), and sum_K log det R_K is
    sum_e log(1 - rho_e^2), so the edges are coupled only through T. Given
    the others, an edge's exact global minimum is `_one_edge_correlation`
    of its record with the rest of T as its T0. Each sweep takes that step
    on every edge in turn, from rho = 0 (Omega_K = I), so no step raises
    the objective: block coordinate descent with exact block minimizers
    (Grippo & Sciandrone 2000). The sweeps stop once one lowers the
    objective by a relative 1e-13 or less, or after `_MAX_SWEEPS`, and
    iterations count the sweeps that lowered it by more, so an optimal
    start counts 0. The correlations are returned as the unit-diagonal
    Omega_K entries, -rho_e / ((1 - rho_e^2) sqrt(d_u d_w)) with
    d_v = 1 + sum over v's edges of rho_e^2 / (1 - rho_e^2) the diagonal
    of R_K^-1, and the objective and gradient are `_profile`'s at that
    point. None also when `_profile` finds the point outside its region
    (a correlation within rounding of +-1), for the descent to take over.
    """
    parts = [c.separable for c in comps]
    if None in parts:
        return None
    base = fixed_t + sum(offset for offset, _ in parts)
    records = [r for _, edge_records in parts for r in edge_records]
    rho = [0.0] * len(records)
    shares = [_one_edge_share(r.one_edge, 0.0) for r in records]
    logs = [0.0] * len(records)
    value = p * math.log((base + sum(shares)) / p)
    sweeps, stopped = 0, False
    while sweeps < _MAX_SWEEPS and not stopped:
        for i, r in enumerate(records):
            rho[i] = x = _one_edge_correlation(base + sum(shares[:i]) + sum(shares[i + 1 :]), r, p)[0]
            shares[i], logs[i] = _one_edge_share(r.one_edge, x), math.log(1.0 - x * x)
        new = p * math.log((base + sum(shares)) / p) + sum(logs)
        stopped = value - new <= 1e-13 * max(abs(value), abs(new), 1.0)
        sweeps += not stopped
        value = new
    theta, lo = np.empty(len(records)), 0
    for c in comps:
        rows, cols = c.edges
        hi = lo + len(c.pattern)
        r = np.array(rho[lo:hi])
        s = 1.0 - r * r
        m = len(c.nodes)
        d = 1.0 + np.bincount(rows, r * r / s, m) + np.bincount(cols, r * r / s, m)
        theta[lo:hi] = -r / (s * np.sqrt(d[rows] * d[cols]))
        lo = hi
    out = _profile(fixed_t, comps, p, theta)
    if out is None:
        return None
    objective, grad = out[:2]
    return _Solve(objective, theta, sweeps, stopped or float(np.max(np.abs(grad))) <= _EV_GRAD_TOL, "sweep")


def _descend(profile, theta: np.ndarray) -> tuple:
    """(point, objective, gradient, steps, stopped on a tolerance) of a BFGS descent on `profile` from theta.

    `profile(theta)` returns (objective, gradient, ...) or None outside the
    feasible region, and the start theta must lie inside it. Until a step
    shows positive curvature (s.y > 0), each step goes along the
    unit-length steepest descent direction. The first
    such step starts the inverse-Hessian estimate at (s.y / y.y) I, and
    BFGS updates it on every such step. Each step halves its trial length,
    from 1, until the trial point is feasible and meets the Armijo
    condition, at most `_MAX_HALVINGS` times. The descent stops on a
    tolerance when the largest gradient entry is at most 1e-9 or the
    relative decrease at most 1e-13, counting halvings that end at a
    feasible point no higher than theta to that tolerance (the objective
    is flat to rounding there). It stops off tolerance when the halvings
    end elsewhere, or after `_MAX_STEPS` steps. The objective and
    gradient returned are the ones `profile` gave at the end point, so no
    caller evaluates it there again.
    """
    value, grad = profile(theta)[:2]
    inv_hess = None
    for steps in range(_MAX_STEPS):
        if np.max(np.abs(grad)) <= 1e-9:
            return theta, value, grad, steps, True
        direction = -grad / np.linalg.norm(grad) if inv_hess is None else -inv_hess @ grad
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if (out := profile(theta + t * direction)) is not None and out[0] <= value + 1e-4 * t * (grad @ direction):
                break
            t *= 0.5
        else:
            return theta, value, grad, steps, out is not None and out[0] - value <= 1e-13 * max(abs(value), 1.0)
        s, y = t * direction, out[1] - grad
        decrease, theta, value, grad = value - out[0], theta + s, out[0], out[1]
        if decrease <= 1e-13 * max(abs(value + decrease), abs(value), 1.0):
            return theta, value, grad, steps + 1, True
        sy = s @ y
        if sy > 0:
            if inv_hess is None:
                inv_hess = np.eye(theta.size) * (sy / (y @ y))
            v = np.eye(theta.size) - np.outer(s, y) / sy
            inv_hess = v @ inv_hess @ v.T + np.outer(s, s) / sy
    return theta, value, grad, _MAX_STEPS, False


def _profile(fixed_t: float, comps: list, p: int, theta: np.ndarray):
    """(objective, gradient, T, coefficients, Omega_K^-1 per component) at theta, or None outside the region.

    theta holds the off-diagonal pattern entries of each multi-node
    component's unit-diagonal Omega_K, in `comps` order; the region is
    where every Omega_K is positive definite (see `_equal_variance_solve`).
    """
    total_t = fixed_t
    logdet_r = 0.0
    betas, invs, parts = [], [], []
    lo = 0
    for c in comps:
        rows, cols = c.edges
        hi = lo + len(c.pattern)
        omega = np.eye(len(c.nodes))
        omega[rows, cols] = theta[lo:hi]
        omega[cols, rows] = theta[lo:hi]
        try:
            chol_diag = np.linalg.cholesky(omega).diagonal()
        except np.linalg.LinAlgError:
            return None
        if chol_diag.min() ** 2 <= _RANK_TOL:
            return None
        inv = np.linalg.inv(omega)
        d = inv.diagonal()
        sd = np.sqrt(d)
        weight = omega * np.outer(sd, sd)  # R_K^-1
        betas.append(_gls_coefficients(c, weight))
        invs.append(inv)
        e = _residual_moment(c, betas[-1])
        total_t += float((weight * e).sum())
        logdet_r -= 2.0 * float(np.log(chol_diag).sum()) + float(np.log(d).sum())
        parts.append((rows, cols, lo, hi, omega, inv, d, sd, e))
        lo = hi
    grad = np.empty_like(theta)
    for rows, cols, lo, hi, omega, inv, d, sd, e in parts:
        g = (omega * e) @ sd
        d_trace = 2.0 * sd[rows] * sd[cols] * e[rows, cols] - 2.0 * ((inv * (g / sd)) @ inv)[rows, cols]
        d_logdet = 2.0 * ((inv / d) @ inv)[rows, cols] - 2.0 * inv[rows, cols]
        grad[lo:hi] = p / total_t * d_trace + d_logdet
    return p * math.log(total_t / p) + logdet_r, grad, total_t, betas, invs


def _equal_variance_solve(fixed_t: float, comps: list, p: int) -> _Solve:
    """Profiled equal-error-variance optimum over the multi-node components `comps`.

    Each component's error covariance is sigma2 * R_K. For fixed R_K the
    coefficients are the GLS solve under weight R_K^-1, and sigma2 = T / p
    with T = sum_K trace(R_K^-1 E_K) over the residual moments E_K, leaving
    p * log(T / p) + sum_K log det R_K to minimize. Singleton components
    have R_K = 1 and enter only through their residual sums of squares,
    summed in `fixed_t`, so a DAG is closed form. Multi-node components take
    R_K = corr(Omega_K^-1) over unit-diagonal Omega_K whose off-diagonal
    entries sit on the undirected pattern, so R_K^-1 = D^1/2 Omega_K D^1/2
    with D = diag(Omega_K^-1) keeps that pattern. With one free entry (one
    component, two nodes, one edge) the global optimum and its objective
    are closed form (see `_one_edge_correlation`) and iterations are 0.
    When every component is one edge or a tree whose nodes share their
    parent tuple, sweeps of exact one-edge steps solve it (`_sweep`), and
    iterations count the sweeps that lowered the objective. The route is
    chosen by the components' structure alone.
    Otherwise one `_descend` from Omega_K = I runs over those entries on
    `_profile`; B and sigma2 are optimal at every point, so by the envelope
    theorem the gradient only differentiates R_K. The gradient at I is
    2p/T times the residual cross-moments on the pattern, so when they all
    vanish I is stationary, possibly a maximum, and the descent stops after
    0 steps; it then descends again from every entry at 1 / (2 * the
    largest pattern degree) and keeps the lower objective. The objective
    need not be convex, so the descent finds a local optimum. The solve is
    converged when the kept descent stopped on a tolerance or the largest
    gradient entry at its end point is at most `_EV_GRAD_TOL`. Each point
    is evaluated once: the starts are compared, and the result is read, on
    the objective and gradient each descent returns for its end point.
    """
    size = sum(len(c.pattern) for c in comps)
    if size == 0:
        return _Solve(p * math.log(fixed_t / p), np.zeros(0), 0, True, "closed form")
    if size == 1:
        rho, objective = _one_edge_correlation(fixed_t, comps[0], p)
        # Omega = [[1, theta], [theta, 1]] has correlation rho = -theta.
        return _Solve(objective, np.array([-rho]), 0, True, "one edge")
    if (swept := _sweep(fixed_t, comps, p)) is not None:
        return swept
    profile = partial(_profile, fixed_t, comps, p)
    theta, objective, grad, iterations, success = _descend(profile, np.zeros(size))  # Omega_K = I lies inside
    if iterations == 0:  # I may be a stationary maximum; a diagonally dominant start lies inside too
        degree = max(np.bincount(np.concatenate(c.edges)).max() for c in comps)
        again = _descend(profile, np.full(size, 0.5 / degree))
        if again[1] < objective:
            theta, objective, grad, iterations, success = again
    return _Solve(objective, theta, iterations, success or float(np.max(np.abs(grad))) <= _EV_GRAD_TOL, "descent")


def fit(data_or_cov, g: ChainGraph, equal_variances: bool = False) -> FitResult:
    """Maximum-likelihood parameters of g's model for the given input.

    Singleton components are closed form in both modes (`_regression`).
    Unconstrained, each multi-node component is fit separately by
    `_alternating_fit`, one GLS solve and one IPF sweep per round, and
    iterations count the largest number of rounds; a component without
    parents runs the same loop, whose GLS step is then empty.
    With equal_variances the exact equality-constrained maximum likelihood
    is returned instead (see `_equal_variance_solve`), with coefficients and
    correlations from one `_profile` evaluation at the optimum, and
    iterations count the descent's steps, or the edge sweeps that lowered
    the objective when every multi-node component is one edge or a tree
    whose nodes share their parents; they are zero when the only
    multi-node component is two nodes joined by one edge, which is solved
    in closed form; a closed-form correlation within rounding of +-1 leaves
    no positive-definite fit and raises `np.linalg.LinAlgError` naming the
    two nodes. Either way iterations are zero when every component is a
    singleton. The loops' caps and tolerance are fixed, not settable. The
    result carries the fit's implied covariance `cov`, at which `loglik`
    is evaluated against the input's second moment. A g with a
    semidirected cycle is rejected with ValueError naming one, before the
    input is read. That entry check is the graph's only one: beta is
    written on parents alone and sigma block by block, off-pattern
    concentration entries untouched, so the params are built on the
    trusted path (`graphs._trusted`) with sigma stored as ½(sigma +
    sigmaᵀ), as the public `SemParameters` constructor stores it. The
    implied covariance keeps its `GaussianDistribution` check, which sigma
    passes exactly when it is positive definite: a non-finite or singular
    fit raises ValueError there, naming the node (`cov is not positive
    definite`).
    """
    _require_chain_graph(g)
    s = moment_matrix(data_or_cov, g.p)[0]
    singles, multi = _split(s, g._parents, g.undirected, chain_components(g))
    beta = np.zeros((g.p, g.p))
    sigma = np.zeros((g.p, g.p))
    for node, b, variance in singles:
        beta[node, g._parents[node]], sigma[node, node] = b, variance
    if equal_variances:
        fixed_t = sum(variance for *_, variance in singles)
        solve = _equal_variance_solve(fixed_t, multi, g.p)
        optimum = _profile(fixed_t, multi, g.p, solve.theta)
        if optimum is None:  # only the closed form reaches a correlation within rounding of +-1
            a, b = (g.node_label(multi[0].nodes[i]) for i in multi[0].pattern[0])
            raise np.linalg.LinAlgError(
                f"the equal-variance optimum puts the error correlation of {a} and {b} at "
                f"{-solve.theta[0]:.17g}, too close to +-1 for a positive-definite fit"
            )
        _, _, total_t, betas, covs = optimum
        sigma2 = total_t / g.p
        np.fill_diagonal(sigma, sigma2)
        pieces = []
        for c, b, cov in zip(multi, betas, covs):
            sd = np.sqrt(cov.diagonal())
            r = cov / np.outer(sd, sd)
            np.fill_diagonal(r, 1.0)
            pieces.append(
                ComponentFit(tuple(c.nodes), tuple(c.predictors), b, sigma2 * r, solve.iterations, solve.converged)
            )
    else:
        pieces = [_alternating_fit(c) for c in multi]
    for piece in pieces:
        rows = np.array(piece.nodes)[:, None]
        beta[rows, np.array(piece.predictors, dtype=int)] = piece.beta
        sigma[rows, rows.T] = piece.sigma
    params = _trusted(SemParameters, graph=g, beta=beta, sigma=0.5 * (sigma + sigma.T))
    cov = implied_distribution(params).cov
    variances = np.diag(sigma).copy()
    return FitResult(
        params=params,
        cov=cov,
        loglik=gaussian_average_loglik(cov, s),
        error_variances=variances,
        iterations=max((piece.iterations for piece in pieces), default=0),
        converged=all(piece.converged for piece in pieces),
        dispersion=float(np.max(np.log(variances)) - np.min(np.log(variances))),
    )


def _bic(loglik: float, k: int, n_eff: float) -> float:
    """n_eff * loglik - (k / 2) * log(n_eff): the score of a fit with k free parameters."""
    return float(n_eff * loglik - 0.5 * k * math.log(n_eff))


def _state_bic(loglik: float, parents: tuple, undirected: frozenset, n_eff: float) -> float:
    """`_bic` of an equal-variance state: every edge plus the one shared error variance is free."""
    return _bic(loglik, sum(map(len, parents)) + len(undirected) + 1, n_eff)


def penalized_score(
    data_or_cov,
    g: ChainGraph,
    n_eff: float | None = None,
    equal_variances: bool = False,
) -> float:
    """Penalized log-likelihood score of g's fit; higher is better. Dataset input supplies n_eff by default.

    score = n_eff * loglik - (k / 2) * log(n_eff) (`_bic`), with k counting
    every edge plus one shared error variance for an equal-variance fit, or
    every edge plus p free variances otherwise. No search calls it: it is
    kept as the fit-based reference that `EqualVarianceScorer` is tested
    against, and `perfbench`'s tracer traces it by this name.
    """
    if isinstance(data_or_cov, Dataset):
        n_eff = data_or_cov.n if n_eff is None else n_eff
    if n_eff is None:
        raise ValueError("covariance input requires an explicit n_eff")
    if n_eff <= 1:
        raise ValueError("n_eff must exceed 1")
    k = len(g.directed) + len(g.undirected) + (1 if equal_variances else g.p)
    return _bic(fit(data_or_cov, g, equal_variances).loglik, k, n_eff)


def _saturated_logdet(s: np.ndarray, nodes: list, predictors: tuple) -> float:
    """log det of the residual moment of `nodes` regressed jointly on all `predictors`; -inf unless positive definite.

    That is the least residual moment any error covariance of a component
    with these nodes and predictors can leave (see
    `EqualVarianceScorer.bound`). The blocks of s are cut as `_component`
    cuts them.
    """
    y, z = np.array(nodes)[:, None], np.array(predictors, dtype=int)
    syy = s[y, y.T]
    try:
        if predictors:
            syz = s[y, z]
            syy = syy - syz @ np.linalg.solve(s[z[:, None], z], syz.T)
        return 2.0 * float(np.log(np.linalg.cholesky(syy).diagonal()).sum())
    except np.linalg.LinAlgError:
        return -math.inf


class EqualVarianceScorer:
    """Exact equal-variance log-likelihoods of many graphs on one input.

    The input is validated and its second moment formed once, on
    construction. The profiled log-likelihood decomposes over chain
    components: a singleton component enters only through its least-squares
    residual sum of squares, and the multi-node components share one
    profiled solve with the singleton sum as the constant part T0 of T (see
    `_equal_variance_solve`). `loglik` takes a `ChainGraph`; `state_loglik`,
    which it calls, takes the same graph as parent tuples and undirected
    edges and gives bitwise the same result and counts. Each component's
    record, a singleton's `_regression` or a multi-node `_Component`, is
    built once and kept for the scorer's life (see `_split`). Between graphs
    that share a lone one-edge component only T0 changes, so its record also
    keeps the T0-free part of its closed-form solve, the power series of
    its stationarity polynomial, and each further score is one small root
    solve in plain floats, a closed-form cubic when the component's own
    predictors sit on at most one of its nodes (see
    `_one_edge_correlation`). A state whose components are all single
    edges or trees whose nodes share their parents is solved by sweeps of
    those one-edge solves, and each component keeps its per-edge records
    (`_Component.separable`). B and sigma2 are profiled out, so the
    average log-likelihood is
        -(p log 2 pi + p + p log(T / p) + sum_K log det R_K) / 2
    at the optimum, the same value `fit(..., equal_variances=True)` reaches.

    `score` adds the `penalized_score` penalty at `n_eff`, the sample size
    for a dataset and `_POPULATION_N_EFF` for a covariance, and keeps each
    state's result, so a search asks for a state as often as it likes.
    `bound` gives, in closed form and with no solve, a score no fit of the
    state can exceed: the maximum of a relaxed model that contains the
    equal-variance one, so a search can rule a state out unscored. A bound
    builds no component record, so records are built only for states that
    get scored, and the chain components are kept per undirected edge set.

    Plain counts of the work done so far: `graphs` scored, `bounds` worked
    out, records built (`records_built`: a singleton's record is its
    regression, which a bound may build too) and reused by the states
    scored (`records_reused`), `one_edge_solves`, `sweep_solves` and their
    `sweeps` (those that lowered the objective), `descents` and their
    `descent_steps`, and `nonconverged` solves.
    """

    def __init__(self, data_or_cov, p: int):
        self.p = p
        self.s, self.n = moment_matrix(data_or_cov, p)
        self.n_eff = _POPULATION_N_EFF if self.n is None else float(self.n)
        self._records: dict = {}
        self._components: dict = {}
        self._saturated: dict = {}
        self._bounds: dict = {}
        self._scores: dict = {}
        self.graphs = 0
        self.bounds = 0
        self.records_built = 0
        self.records_reused = 0
        self.one_edge_solves = 0
        self.sweep_solves = 0
        self.sweeps = 0
        self.descents = 0
        self.descent_steps = 0
        self.nonconverged = 0

    def loglik(self, g: ChainGraph) -> tuple[float, bool]:
        """(average log-likelihood, converged) of g's equal-variance fit; a semidirected cycle raises ValueError."""
        _require_chain_graph(g)
        if g.p != self.p:
            raise ValueError(f"graph has {g.p} nodes, the input has {self.p}")
        return self.state_loglik(g._parents, g.undirected)

    def state_loglik(self, parents: tuple, undirected: frozenset) -> tuple[float, bool]:
        """`loglik` of the chain graph with these parent tuples and undirected edges, unchecked.

        `parents` holds one sorted tuple per node and `undirected` the
        edges as (smaller, larger) pairs, as a `ChainGraph` holds them; the
        caller vouches that they form a chain graph on the input's nodes.
        """
        comps = self._chain_components(undirected)
        known = len(self._records)
        singles, multi = _split(self.s, parents, undirected, comps, self._records)
        built = len(self._records) - known
        self.records_built += built
        self.records_reused += len(comps) - built
        solve = _equal_variance_solve(sum(variance for *_, variance in singles), multi, self.p)
        self.graphs += 1
        if solve.route == "one edge":
            self.one_edge_solves += 1
        elif solve.route == "sweep":
            self.sweep_solves += 1
            self.sweeps += solve.iterations
        elif solve.route == "descent":
            self.descents += 1
            self.descent_steps += solve.iterations
        self.nonconverged += not solve.converged
        return self._loglik(solve.objective), solve.converged

    def score(self, parents: tuple, undirected: frozenset) -> tuple[float, float, bool]:
        """(penalized score, average log-likelihood, converged) of `state_loglik`'s chain graph, kept per state."""
        key = (parents, undirected)
        if key not in self._scores:
            loglik, converged = self.state_loglik(parents, undirected)
            self._scores[key] = (_state_bic(loglik, parents, undirected, self.n_eff), loglik, converged)
        return self._scores[key]

    def bound(self, parents: tuple, undirected: frozenset) -> float:
        """An upper bound on `score` of `state_loglik`'s chain graph, in closed form.

        The bound is the score, at the same penalty, of a relaxed model: the
        singletons share one error variance of their own, and each multi-node
        component's nodes regress on every predictor of the component with a
        free error covariance. The relaxed model contains the equal-variance
        one, so no fit of the state scores above it. Its maximum is closed
        form, with F' = n0 log(T0 / n0) + sum_K log det S_K in place of the
        profiled objective, for n0 singletons of residual total T0 and S_K
        each multi-node component's saturated residual moment
        (`_saturated_logdet`); on a state of singletons alone it is the
        score itself. A state already scored bounds at its score, and one
        whose saturated moment is not positive definite at +inf. The bound
        builds no component record: T0 reads the singletons' `_regression`,
        which the scores share, and each log-determinant is kept per
        (component, predictors). A state's bound is kept once worked out.
        """
        key = (parents, undirected)
        if key in self._scores:
            return self._scores[key][0]
        if key not in self._bounds:
            known = len(self._records)
            variances, logdets = [], []
            for comp in self._chain_components(undirected):
                if len(comp) == 1:
                    (node,) = comp
                    variances.append(_regression(self.s, node, parents[node], self._records)[1])
                    continue
                predictors = tuple(sorted({z for v in comp for z in parents[v]}))
                if (comp, predictors) not in self._saturated:
                    self._saturated[comp, predictors] = _saturated_logdet(self.s, sorted(comp), predictors)
                logdets.append(self._saturated[comp, predictors])
            self.records_built += len(self._records) - known
            self.bounds += 1
            singles, fixed_t = len(variances), sum(variances)
            relaxed = sum(logdets) + (singles * math.log(fixed_t / singles) if singles else 0.0)
            self._bounds[key] = _state_bic(self._loglik(relaxed), parents, undirected, self.n_eff)
        return self._bounds[key]

    def _loglik(self, objective: float) -> float:
        """The average log-likelihood at a profiled objective F: -(p log 2 pi + p + F) / 2."""
        return -0.5 * (self.p * math.log(2.0 * math.pi) + self.p + objective)

    def _chain_components(self, undirected: frozenset) -> list:
        """The chain components of the states with these undirected edges, kept per edge set."""
        if undirected not in self._components:
            self._components[undirected] = _blocks(self.p, undirected)
        return self._components[undirected]
