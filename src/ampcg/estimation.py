"""Maximum-likelihood fitting of chain-graph structural models.

The likelihood decomposes over chain components. A singleton component's
maximum likelihood is closed form in either mode: least squares on its
parents, with the error variance the residual sum of squares per sample
(the Peters & Bühlmann 2014 DAG case). That regression of a node on a
parent set is `_regression`, the library's only one: the singletons of
`fit` and `fit_component`, the scorer's T0 and every regression in
`search`'s identification read it. A multi-node component is fit in
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
works on the validated second moment. A `FitResult` states each fact
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
undirected edge, the one free correlation is the best real root of a
polynomial built as power series, so the optimum is global and closed
form. Otherwise a BFGS descent (`_descend`) runs over the off-diagonal
pattern entries of the multi-node components' unit-diagonal concentration
matrices, on the profiled objective `_profile`, from the identity, and
again from a diagonally dominant start if the identity is stationary.
`EqualVarianceScorer` scores many graphs on one input with that same
split and solve, read off parent tuples and undirected edges, so a search
scores a state without building its graph. It builds each component once
(a singleton's regression per (node, parent set), a multi-node
component's record per parent sets and edges) and keeps each state's
penalized score. A lone one-edge record keeps the part of its solve that
does not depend on the singletons' residual total T0, so each further
score of it is one small root solve. A multi-node record also keeps the
log-determinant of its nodes' residual moment on all its predictors, from
which the scorer bounds a state's score in closed form. The spread of the
unconstrained fit's log error variances is its `dispersion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from typing import Iterable, NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .graphs import ChainGraph, _blocks, _default_label, chain_components
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
    names = data_or_cov.labels or tuple(map(_default_label, range(p)))
    constant = np.flatnonzero(~(v != v[0]).any(axis=0))
    if constant.size:
        raise ValueError(f"column {names[constant[0]]} is constant")
    s = v.T @ v / data_or_cov.n
    j = _first_dependent(s)
    if j is not None:
        raise ValueError(
            f"column {names[j]} is a linear combination of the columns before it "
            "(second-moment matrix is not positive definite)"
        )
    return s, data_or_cov.n


_EV_GRAD_TOL = 1e-6  # largest objective gradient entry of a converged equal-variance fit
_TOL = 1e-9  # relative parameter change at which the unconstrained fit stops
_MAX_ROUNDS = 500  # GLS-plus-IPF-sweep rounds per unconstrained multi-node fit
_MAX_STEPS = 15000  # descent steps per equal-variance solve
_MAX_HALVINGS = 20  # trial points per descent step (L-BFGS-B's default line-search limit)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))  # the largest correlation below 1
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
    """The T0-free pieces of a one-edge component's solve (see `_one_edge_correlation`)."""

    lam: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    trace: float
    cross: float
    series: np.ndarray  # power-series rows of (1 - rho^2) g' D^2, rho g D^2 and 2 rho (1 - rho^2) D^2


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
    def saturated_logdet(self) -> float:
        """log det of syy - syz szz^-1 syz^T, worked out on first use; -inf unless positive definite.

        That is the residual moment of the nodes regressed jointly on every
        predictor of the component, the least any error covariance of the
        component can leave (see `EqualVarianceScorer.bound`).
        """
        try:
            e = self.syy - self.syz @ np.linalg.solve(self.szz, self.syz.T) if self.predictors else self.syy
            return 2.0 * float(np.log(np.linalg.cholesky(e).diagonal()).sum())
        except np.linalg.LinAlgError:
            return -math.inf


def _index_arrays(pairs: list) -> tuple:
    return tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)


def _component(s: np.ndarray, parents: tuple, undirected: frozenset, comp: frozenset) -> _Component:
    """The record of the chain component `comp` of the graph with these parent tuples and undirected edges.

    The second moment is sliced with broadcast index arrays, which give
    what `np.ix_` gives without its per-call argument handling.
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
        b = np.linalg.solve(s[np.ix_(into, into)], s[into, node]) if into else np.zeros(0)
        cache[node, into] = b, float(s[node, node] - s[node, into] @ b)
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
    """
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
    iterations: int
    converged: bool


def _one_edge_terms(c: _Component) -> _OneEdge:
    """The T0-free pieces of the one-edge solve of c (see `_one_edge_correlation`)."""
    pairs = list(zip(*(index.tolist() for index in c.support)))
    shared = sorted({z for row, z in pairs if row == 0} & {z for row, z in pairs if row == 1})
    m = np.empty((2 + len(c.predictors),) * 2)  # second moment of (the two nodes, the predictors)
    m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:] = c.syy, c.syz, c.syz.T, c.szz
    if shared:
        at = [z + 2 for z in shared]
        m -= m[:, at] @ np.linalg.solve(m[np.ix_(at, at)], m[at])
    lam = u0 = u1 = np.zeros(0)
    own = [(row, z + 2) for row, z in pairs if z not in shared]
    if own:
        rows, cols = np.array(own).T
        szz = m[np.ix_(cols, cols)]
        same_row = rows[:, None] == rows
        chol_inv = np.linalg.inv(np.linalg.cholesky(np.where(same_row, szz, 0.0)))
        lam, vecs = np.linalg.eigh(chol_inv @ np.where(same_row, 0.0, szz) @ chol_inv.T)
        rotate = vecs.T @ chol_inv
        u0, u1 = rotate @ m[rows, cols], rotate @ m[1 - rows, cols]
    trace, cross = m[0, 0] + m[1, 1], m[0, 1]
    # D and g D = (trace - 2 rho cross) D - sum_i (u0_i - rho u1_i)^2 prod_{j != i} (1 - rho lam_j),
    # as power series in rho, lowest degree first, so a product is a convolution
    factors = [np.array([1.0, -x]) for x in lam]
    d = reduce(np.convolve, factors, np.ones(1))
    g_d = np.convolve([trace, -2.0 * cross], d)
    for i in range(lam.size):
        residual = np.array([u0[i], -u1[i]])
        g_d -= reduce(np.convolve, factors[:i] + factors[i + 1 :], np.convolve(residual, residual))
    d_der, g_d_der = (np.roll(q * np.arange(q.size), -1) for q in (d, g_d))  # derivatives, padded with a zero
    series = np.zeros((3, 2 * lam.size + 4))
    series[0] = np.convolve([1.0, 0.0, -1.0], np.convolve(g_d_der, d) - np.convolve(g_d, d_der))
    series[1, 1:-1] = np.convolve(g_d, d)
    series[2] = np.convolve([0.0, 2.0, 0.0, -2.0], np.convolve(d, d))
    return _OneEdge(lam, u0, u1, float(trace), float(cross), series)


def _one_edge_correlation(fixed_t: float, c: _Component, p: int) -> tuple[float, float]:
    """(rho, objective) at the global minimum of the profiled objective when c is one two-node component with one edge.

    With R = [[1, rho], [rho, 1]], (1 - rho^2) R^-1 = I - rho J is linear in
    rho, so the GLS normal matrix is A0 - rho A1 and its right side
    r0 - rho r1. Predictors that both rows regress on enter without
    restriction, so GLS on them is least squares and they are partialled
    out of the second moment first. On the rest, A0 = L L^T and the
    eigenvalues lam of L^-1 A1 L^-T (canonical correlations between the
    two rows' own predictors, so inside (-1, 1)) give, with u0 and u1 the
    right sides rotated alike,
        g(rho) = (1 - rho^2)(T - T0) = a - 2 rho c - sum_i (u0_i - rho u1_i)^2 / (1 - rho lam_i)
    for a, c the trace and off-diagonal entry of the partialled residual
    moment and T0 = fixed_t. The objective p log(T / p) + log(1 - rho^2)
    tends to +inf at rho = +-1, so its minimum is a real root in (-1, 1) of
        h(rho) = p (1 - rho^2) g' + 2 (p - 1) rho g - 2 rho T0 (1 - rho^2).
    With D = prod_i (1 - rho lam_i) for k own coefficients, g D is a
    polynomial, and h D^2 = P - T0 Q with
        P = p (1 - rho^2) g' D^2 + 2 (p - 1) rho g D^2,  Q = 2 rho (1 - rho^2) D^2,
    of degree at most 2k + 3; with identical parent sets (k = 0) it is
    twice the cubic T0 rho^3 + (2 - p) c rho^2 + ((p - 1) a - T0) rho - p c.
    Nothing but T0 changes between graphs that share the component, so the
    partialling, the reduction and the power series of P's two terms and
    Q, whose products are convolutions, are worked out once per record
    (`_Component.one_edge`). Each call finds the real roots of P - T0 Q in
    (-1, 1) and adds +-`_BELOW_ONE`, where the objective is least when its
    minimum lies within rounding of +-1 (a component whose residual total
    is many orders below T0). It takes one Newton step on h itself from
    each and returns the one with the smallest objective.
    """
    t = c.one_edge

    def g_parts(x: np.ndarray):
        """1 - rho lam_i, u0_i - rho u1_i and g at the points x."""
        d = 1.0 - x[:, None] * t.lam
        res = t.u0 - x[:, None] * t.u1
        return d, res, t.trace - 2.0 * x * t.cross - (res**2 / d).sum(axis=1)

    series = np.array([p, 2.0 * (p - 1), -fixed_t]) @ t.series
    roots = polyroots(series[: np.flatnonzero(series)[-1] + 1])  # lam_i = 0 lowers the degree
    x = np.append(roots.real[np.isreal(roots) & (np.abs(roots.real) < 1.0)], (-_BELOW_ONE, _BELOW_ONE))
    d, res, g = g_parts(x)
    dn = (-2.0 * t.u1 * res) * d + t.lam * res**2  # d((u0_i - rho u1_i)^2 / (1 - rho lam_i))/drho times its d^2
    dg = -2.0 * t.cross - (dn / d**2).sum(axis=1)
    ddg = -(2.0 * t.u1**2 / d + 2.0 * t.lam * dn / d**3).sum(axis=1)
    s = 1.0 - x**2
    h = p * s * dg + 2.0 * (p - 1) * x * g - 2.0 * fixed_t * x * s
    dh = p * s * ddg - 2.0 * x * dg + 2.0 * (p - 1) * g - 2.0 * fixed_t * (1.0 - 3.0 * x**2)
    step = x - h / dh
    x = np.where(np.abs(step) < 1.0, step, x)
    s = 1.0 - x**2
    objective = p * np.log((fixed_t + g_parts(x)[2] / s) / p) + np.log(s)
    best = np.argmin(objective)
    return float(x[best]), float(objective[best])


def _descend(profile, theta: np.ndarray) -> tuple:
    """(point, steps, stopped on a tolerance) of a BFGS descent on `profile` from the feasible theta.

    `profile(theta)` returns (objective, gradient, ...) or None outside the
    feasible region. Until a step shows positive curvature (s.y > 0), each
    step goes along the unit-length steepest descent direction. The first
    such step starts the inverse-Hessian estimate at (s.y / y.y) I, and
    BFGS updates it on every such step. Each step halves its trial length,
    from 1, until the trial point is feasible and meets the Armijo
    condition, at most `_MAX_HALVINGS` times. The descent stops on a
    tolerance when the largest gradient entry is at most 1e-9 or the
    relative decrease at most 1e-13, counting halvings that end at a
    feasible point no higher than theta to that tolerance (the objective
    is flat to rounding there). It stops off tolerance when the halvings
    end elsewhere, or after `_MAX_STEPS` steps.
    """
    value, grad = profile(theta)[:2]
    inv_hess = None
    for steps in range(_MAX_STEPS):
        if np.max(np.abs(grad)) <= 1e-9:
            return theta, steps, True
        direction = -grad / np.linalg.norm(grad) if inv_hess is None else -inv_hess @ grad
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if (out := profile(theta + t * direction)) is not None and out[0] <= value + 1e-4 * t * (grad @ direction):
                break
            t *= 0.5
        else:
            return theta, steps, out is not None and out[0] - value <= 1e-13 * max(abs(value), 1.0)
        s, y = t * direction, out[1] - grad
        decrease, theta, value, grad = value - out[0], theta + s, out[0], out[1]
        if decrease <= 1e-13 * max(abs(value + decrease), abs(value), 1.0):
            return theta, steps + 1, True
        sy = s @ y
        if sy > 0:
            if inv_hess is None:
                inv_hess = np.eye(theta.size) * (sy / (y @ y))
            v = np.eye(theta.size) - np.outer(s, y) / sy
            inv_hess = v @ inv_hess @ v.T + np.outer(s, s) / sy
    return theta, _MAX_STEPS, False


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
    Otherwise one `_descend` from Omega_K = I runs over those entries on
    `_profile`; B and sigma2 are optimal at every point, so by the envelope
    theorem the gradient only differentiates R_K. The gradient at I is
    2p/T times the residual cross-moments on the pattern, so when they all
    vanish I is stationary, possibly a maximum, and the descent stops after
    0 steps; it then descends again from every entry at 1 / (2 * the
    largest pattern degree) and keeps the lower objective. The objective
    need not be convex, so the descent finds a local optimum. The solve is
    converged when the kept descent stopped on a tolerance or the largest
    gradient entry at its end point is at most `_EV_GRAD_TOL`.
    """
    size = sum(len(c.pattern) for c in comps)
    if size == 0:
        return _Solve(p * math.log(fixed_t / p), np.zeros(0), 0, True)
    if size == 1:
        rho, objective = _one_edge_correlation(fixed_t, comps[0], p)
        # Omega = [[1, theta], [theta, 1]] has correlation rho = -theta.
        return _Solve(objective, np.array([-rho]), 0, True)
    profile = partial(_profile, fixed_t, comps, p)
    theta, iterations, success = _descend(profile, np.zeros(size))  # Omega_K = I lies inside the region
    if iterations == 0:  # I may be a stationary maximum; a diagonally dominant start lies inside too
        degree = max(np.bincount(np.concatenate(c.edges)).max() for c in comps)
        again = _descend(profile, np.full(size, 0.5 / degree))
        if profile(again[0])[0] < profile(theta)[0]:
            theta, iterations, success = again
    objective, grad = profile(theta)[:2]
    return _Solve(objective, theta, iterations, success or float(np.max(np.abs(grad))) <= _EV_GRAD_TOL)


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
    iterations count the descent's steps; they are zero when the only
    multi-node component is two nodes joined by one edge, which is solved
    in closed form; a closed-form correlation within rounding of +-1 leaves
    no positive-definite fit and raises `np.linalg.LinAlgError` naming the
    two nodes. Either way iterations are zero when every component is a
    singleton. The loops' caps and tolerance are fixed, not settable. The
    result carries the fit's implied covariance `cov`, at which `loglik`
    is evaluated against the input's second moment.
    """
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
        beta[np.ix_(piece.nodes, piece.predictors)] = piece.beta
        sigma[np.ix_(piece.nodes, piece.nodes)] = piece.sigma
    params = SemParameters(graph=g, beta=beta, sigma=sigma)
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
    keeps the T0-free part of its closed-form solve, and each further score
    of it costs one small polynomial root solve. B and sigma2 are profiled
    out, so the average log-likelihood is
        -(p log 2 pi + p + p log(T / p) + sum_K log det R_K) / 2
    at the optimum, the same value `fit(..., equal_variances=True)` reaches.

    `score` adds the `penalized_score` penalty at `n_eff`, the sample size
    for a dataset and `_POPULATION_N_EFF` for a covariance, and keeps each
    state's result, so a search asks for a state as often as it likes.
    `bound` gives, in closed form and with no solve, a score no fit of the
    state can exceed: the maximum of a relaxed model that contains the
    equal-variance one, so a search can rule a state out unscored. Each
    state is split into its components once, for its bound and its score
    alike, and the components are kept per undirected edge set.

    Plain counts of the work done so far: `graphs` scored, `bounds` worked
    out, component records built and reused by the states split
    (`records_built`, `records_reused`; a singleton's record is its
    regression), `one_edge_solves`, `descents` and their `descent_steps`,
    and `nonconverged` solves.
    """

    def __init__(self, data_or_cov, p: int):
        self.p = p
        self.s, self.n = moment_matrix(data_or_cov, p)
        self.n_eff = _POPULATION_N_EFF if self.n is None else float(self.n)
        self._records: dict = {}
        self._components: dict = {}
        self._states: dict = {}
        self._scores: dict = {}
        self.graphs = 0
        self.bounds = 0
        self.records_built = 0
        self.records_reused = 0
        self.one_edge_solves = 0
        self.descents = 0
        self.descent_steps = 0
        self.nonconverged = 0

    def loglik(self, g: ChainGraph) -> tuple[float, bool]:
        """(average log-likelihood, converged) of g's equal-variance fit."""
        if g.p != self.p:
            raise ValueError(f"graph has {g.p} nodes, the input has {self.p}")
        return self.state_loglik(g._parents, g.undirected)

    def state_loglik(self, parents: tuple, undirected: frozenset) -> tuple[float, bool]:
        """`loglik` of the chain graph with these parent tuples and undirected edges, unchecked.

        `parents` holds one sorted tuple per node and `undirected` the
        edges as (smaller, larger) pairs, as a `ChainGraph` holds them; the
        caller vouches that they form a chain graph on the input's nodes.
        """
        fixed_t, _, multi = self._split_state(parents, undirected)
        solve = _equal_variance_solve(fixed_t, multi, self.p)
        self.graphs += 1
        if solve.theta.size == 1:
            self.one_edge_solves += 1
        elif solve.theta.size:
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
        each record's `saturated_logdet` moment; on a state of singletons
        alone it is the score itself. A state already scored bounds at its
        score, and one whose saturated moment is not positive definite at
        +inf. The state is split once for its bound and its score alike.
        """
        key = (parents, undirected)
        if key in self._scores:
            return self._scores[key][0]
        fixed_t, singles, multi = self._split_state(parents, undirected)
        self.bounds += 1
        relaxed = sum(c.saturated_logdet for c in multi) + (singles * math.log(fixed_t / singles) if singles else 0.0)
        return _state_bic(self._loglik(relaxed), parents, undirected, self.n_eff)

    def _loglik(self, objective: float) -> float:
        """The average log-likelihood at a profiled objective F: -(p log 2 pi + p + F) / 2."""
        return -0.5 * (self.p * math.log(2.0 * math.pi) + self.p + objective)

    def _split_state(self, parents: tuple, undirected: frozenset) -> tuple[float, int, list]:
        """(singletons' residual total T0, singleton count, multi-node records) of a state, split once and kept.

        The chain components are kept per undirected edge set, so a state
        that differs from one seen before only in its arrows reuses them.
        """
        key = (parents, undirected)
        if key not in self._states:
            if undirected not in self._components:
                self._components[undirected] = _blocks(self.p, undirected)
            comps = self._components[undirected]
            known = len(self._records)
            singles, multi = _split(self.s, parents, undirected, comps, self._records)
            built = len(self._records) - known
            self.records_built += built
            self.records_reused += len(comps) - built
            self._states[key] = (sum(variance for *_, variance in singles), len(singles), multi)
        return self._states[key]
