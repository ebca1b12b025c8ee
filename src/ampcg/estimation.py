"""Maximum-likelihood fitting of chain-graph structural models.

The likelihood decomposes over chain components. A singleton component's
maximum likelihood is closed form in either mode: least squares on its
parents, with the error variance the residual sum of squares per sample
(the Peters & Bühlmann 2014 DAG case). A multi-node component is fit in
the unconstrained mode by alternating two steps until the parameters stop
moving: a generalized-least-squares regression of the component on its
parents under the current error-covariance estimate (plain least squares
on the first pass), and iterative proportional fitting of the
regression-residual covariance to the component's undirected structure.
Inputs may be a dataset or a covariance matrix directly; feeding the exact
population covariance separates statistical error from algorithmic error.
Each input is validated once, by `moment_matrix`, at the public entry
point, under `sem`'s scale-free rule for a valid covariance; the fit core
works on the validated second moment.

The equal-error-variance mode computes the exact equality-constrained
maximum likelihood. Every component's error covariance is written as
sigma2 * R_K with R_K a correlation matrix whose inverse has the
component's undirected zero pattern; for fixed R_K the coefficients are a
GLS solve and sigma2 profiles out as the mean weighted residual moment.
Singletons have R_K = 1 and enter only through their residual sums of
squares, so a DAG is closed form (sigma2 the mean residual sum of
squares). Otherwise one L-BFGS solve runs over the off-diagonal pattern
entries of the multi-node components' unit-diagonal concentration
matrices. `EqualVarianceScorer` scores many graphs on one input with that
same split and solve, caching each singleton's least-squares fit by
(node, parent set). The spread of the unconstrained fit's log error
variances is its `dispersion`. On a population covariance that the model
reproduces, each node's fitted error variance is its residual variance
given its parents, so `search.identify_in_class` reads the dispersion of
every class member off those least-squares fits, with no fit run here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np
from scipy import optimize

from .graphs import ChainGraph, chain_components, relatives
from .sem import _RANK_TOL, Dataset, SemParameters, _first_dependent, _valid_covariance, implied_distribution

__all__ = [
    "ComponentFit",
    "EqualVarianceScorer",
    "FitResult",
    "IpfResult",
    "fit",
    "fit_component",
    "fit_score",
    "gaussian_average_loglik",
    "ipf",
    "moment_matrix",
    "penalized_score",
]


@dataclass(frozen=True, eq=False)
class IpfResult:
    sigma: np.ndarray
    iterations: int
    converged: bool


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
    names = data_or_cov.labels or tuple(f"X{j + 1}" for j in range(p))
    constant = np.flatnonzero(np.ptp(v, axis=0) == 0)
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
_TOL = 1e-9  # relative parameter change at which IPF and the alternating fit stop
_MAX_IPF = 500  # IPF sweeps per call
_MAX_OUTER = 200  # alternating GLS/IPF rounds per multi-node component


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


def ipf(s, pattern: Iterable[tuple]) -> IpfResult:
    """Covariance MLE under a concentration zero pattern, by clique scaling.

    `pattern` lists the allowed off-diagonal pairs (the undirected edges of
    the local graph). Starting from a diagonal concentration matrix, each
    maximal clique's block is updated so the fitted marginal over the
    clique matches `s` exactly; updates never touch entries off the
    pattern, so the zero constraints hold by construction. A complete
    pattern therefore returns `s` itself after one sweep, and an empty
    pattern returns its diagonal. Sweeps stop once the fitted covariance
    moves by less than a relative 1e-9, or after 500 sweeps. The fit runs
    it only on multi-node components; a singleton's variance is closed form.
    """
    s = np.asarray(s, dtype=float)
    m = s.shape[0]
    if s.shape != (m, m) or not np.allclose(s, s.T, atol=1e-8):
        raise ValueError("ipf input must be a symmetric matrix")
    if float(np.linalg.eigvalsh(s)[0]) <= 0:
        raise np.linalg.LinAlgError("ipf input is not positive definite")
    pattern = [(min(a, b), max(a, b)) for a, b in pattern]
    cliques = _maximal_cliques(m, pattern)
    conc = np.diag(1.0 / np.diag(s))
    sigma = np.diag(np.diag(s)).astype(float)
    all_idx = np.arange(m)
    converged = False
    sweeps = 0
    for sweeps in range(1, _MAX_IPF + 1):
        prev = sigma
        for clique in cliques:
            ci = np.array(clique)
            bi = np.setdiff1d(all_idx, ci)
            target = np.linalg.inv(s[np.ix_(ci, ci)])
            if bi.size:
                cross = conc[np.ix_(ci, bi)]
                conc[np.ix_(ci, ci)] = target + cross @ np.linalg.solve(
                    conc[np.ix_(bi, bi)], cross.T
                )
            else:
                conc = target
        sigma = np.linalg.inv(conc)
        if _relative_change(sigma, prev) < _TOL:
            converged = True
            break
    return IpfResult(sigma=0.5 * (sigma + sigma.T), iterations=sweeps, converged=converged)


@dataclass(frozen=True, eq=False)
class _Component:
    """One chain component's regression layout and its slices of the second moment.

    `support` holds the coefficients allowed to be non-zero as (local node,
    local predictor) index arrays, `pattern` the undirected edges as local
    node pairs. `normal` is the predictor factor of the weighted normal
    equations, one row and column per supported coefficient.
    """

    nodes: list
    predictors: list
    pattern: list
    support: tuple
    syy: np.ndarray
    syz: np.ndarray
    szz: np.ndarray
    normal: np.ndarray


def _index_arrays(pairs: list) -> tuple:
    return tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)


def _component(s: np.ndarray, g: ChainGraph, comp: frozenset) -> _Component:
    y_nodes = sorted(comp)
    z_nodes = sorted(relatives(g, comp, "parents"))
    z_index = {v: i for i, v in enumerate(z_nodes)}
    support = [(row, z_index[parent]) for row, node in enumerate(y_nodes) for parent in g._parents[node]]
    local = {v: i for i, v in enumerate(y_nodes)}
    pattern = [(local[a], local[b]) for a, b in g.undirected if a in comp and b in comp]
    szz = s[np.ix_(z_nodes, z_nodes)]
    rows, cols = _index_arrays(support)
    return _Component(
        nodes=y_nodes,
        predictors=z_nodes,
        pattern=pattern,
        support=(rows, cols),
        syy=s[np.ix_(y_nodes, y_nodes)],
        syz=s[np.ix_(y_nodes, z_nodes)],
        szz=szz,
        normal=szz[np.ix_(cols, cols)].T,
    )


def _check_sample_size(n: int | None, c: _Component) -> None:
    if n is not None and n < len(c.predictors):
        raise ValueError(
            f"{n} samples cannot support {len(c.predictors)} predictors for component {tuple(c.nodes)}"
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


def _least_squares(c: _Component) -> ComponentFit:
    """Closed-form maximum likelihood of a singleton component.

    Least squares on the parents, with the error variance the residual sum
    of squares per sample; no iterations.
    """
    b = _gls_coefficients(c, np.ones((1, 1)))
    return ComponentFit(tuple(c.nodes), tuple(c.predictors), b, _residual_moment(c, b), 0, True)


def _split(s: np.ndarray, n: int | None, g: ChainGraph, comps: Iterable, cache: dict | None = None):
    """(singleton fits, multi-node `_Component` records) of the chain components `comps` of g.

    Every component's sample size is checked. A singleton is fit in closed
    form by `_least_squares`, once per (node, parent set) when a `cache` is
    given; only the multi-node components are left for a numeric fit.
    """
    cache = {} if cache is None else cache
    singles, multi = [], []
    for comp in comps:
        if len(comp) > 1:
            multi.append(_component(s, g, comp))
            _check_sample_size(n, multi[-1])
            continue
        (node,) = comp
        key = (node, g._parents[node])
        if key not in cache:
            c = _component(s, g, comp)
            _check_sample_size(n, c)
            cache[key] = _least_squares(c)
        singles.append(cache[key])
    return singles, multi


def _residual_total(singles: list) -> float:
    """Summed residual sums of squares of singleton fits: the fixed part of T."""
    return float(sum(piece.sigma[0, 0] for piece in singles))


def _alternating_fit(c: _Component) -> ComponentFit:
    """Unconstrained maximum likelihood of a multi-node component by alternating GLS and IPF."""
    if not c.predictors:
        res = ipf(c.syy, c.pattern)
        return ComponentFit(
            nodes=tuple(c.nodes),
            predictors=(),
            beta=np.zeros((len(c.nodes), 0)),
            sigma=res.sigma,
            iterations=res.iterations,
            converged=res.converged,
        )
    b = np.zeros((len(c.nodes), len(c.predictors)))
    sigma = np.eye(len(c.nodes))
    converged = False
    rounds = 0
    for rounds in range(1, _MAX_OUTER + 1):
        omega = np.linalg.inv(sigma)
        b_new = _gls_coefficients(c, omega)
        res = ipf(_residual_moment(c, b_new), c.pattern)
        change = max(_relative_change(b_new, b), _relative_change(res.sigma, sigma))
        b, sigma = b_new, res.sigma
        if change < _TOL and res.converged:
            converged = True
            break
    return ComponentFit(
        nodes=tuple(c.nodes),
        predictors=tuple(c.predictors),
        beta=b,
        sigma=sigma,
        iterations=rounds,
        converged=converged,
    )


def fit_component(data_or_cov, g: ChainGraph, comp: Iterable[int]) -> ComponentFit:
    """Unconstrained maximum likelihood of one chain component.

    Least squares for a singleton, alternating GLS/IPF otherwise.
    """
    comp = frozenset(int(x) for x in comp)
    if comp not in set(chain_components(g)):
        raise ValueError("comp must be a chain component of g")
    s, n = moment_matrix(data_or_cov, g.p)
    singles, multi = _split(s, n, g, [comp])
    return singles[0] if singles else _alternating_fit(multi[0])


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
    total_t: float
    betas: list
    corrs: list
    iterations: int
    converged: bool


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
    with D = diag(Omega_K^-1) keeps that pattern; one L-BFGS solve from
    Omega_K = I runs over those entries. B and sigma2 are optimal at every
    point, so by the envelope theorem the gradient only differentiates R_K.
    The objective need not be convex, so the solve finds a local optimum.
    """
    if not comps:
        return _Solve(p * math.log(fixed_t / p), fixed_t, [], [], 0, True)
    betas: list = [None] * len(comps)
    edges = [_index_arrays(c.pattern) for c in comps]
    bounds = np.cumsum([0] + [len(c.pattern) for c in comps])

    def profile(theta: np.ndarray):
        """(objective, gradient, T, parts) at theta, or None outside the positive-definite region.

        Leaves theta's coefficients in betas.
        """
        total_t = fixed_t
        logdet_r = 0.0
        parts = []
        for i, (c, (rows, cols), lo, hi) in enumerate(zip(comps, edges, bounds[:-1], bounds[1:])):
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
            scale = np.outer(sd, sd)
            weight = omega * scale  # R_K^-1
            betas[i] = _gls_coefficients(c, weight)
            e = _residual_moment(c, betas[i])
            total_t += float((weight * e).sum())
            logdet_r -= 2.0 * float(np.log(chol_diag).sum()) + float(np.log(d).sum())
            parts.append((rows, cols, lo, hi, omega, inv, d, sd, scale, e))
        grad = np.empty_like(theta)
        for rows, cols, lo, hi, omega, inv, d, sd, _scale, e in parts:
            g = (omega * e) @ sd
            d_trace = 2.0 * sd[rows] * sd[cols] * e[rows, cols] - 2.0 * ((inv * (g / sd)) @ inv)[rows, cols]
            d_logdet = 2.0 * ((inv / d) @ inv)[rows, cols] - 2.0 * inv[rows, cols]
            grad[lo:hi] = p / total_t * d_trace + d_logdet
        return p * math.log(total_t / p) + logdet_r, grad, total_t, parts

    theta0 = np.zeros(bounds[-1])  # Omega_K = I lies inside the region and is evaluated first
    highest, best, best_theta = -math.inf, math.inf, theta0

    def objective(theta: np.ndarray):
        nonlocal highest, best, best_theta
        out = profile(theta)
        if out is None:  # worse than any point seen, so the line search backs off
            return highest + 1.0, np.zeros_like(theta)
        highest = max(highest, out[0])
        if out[0] < best:
            best, best_theta = out[0], theta.copy()
        return out[:2]

    res = optimize.minimize(
        objective, theta0, jac=True, method="L-BFGS-B", options={"ftol": 1e-13, "gtol": 1e-9}
    )
    value, grad, total_t, parts = profile(best_theta)
    converged = bool(res.success) or float(np.max(np.abs(grad))) <= _EV_GRAD_TOL
    corrs = []
    for *_rest, inv, _d, _sd, scale, _e in parts:
        corrs.append(inv / scale)
        np.fill_diagonal(corrs[-1], 1.0)
    return _Solve(value, total_t, betas, corrs, int(res.nit), converged)


def fit(data_or_cov, g: ChainGraph, equal_variances: bool = False) -> FitResult:
    """Maximum-likelihood parameters of g's model for the given input.

    Singleton components are closed form in both modes (least squares).
    Unconstrained, each multi-node component is fit separately by
    alternating GLS/IPF, and iterations count its largest number of rounds.
    With equal_variances the exact equality-constrained maximum likelihood
    is returned instead (see `_equal_variance_solve`), and iterations count
    the optimizer's steps. Either way iterations are zero when every
    component is a singleton. The loops' caps and tolerance are fixed, not
    settable.
    """
    s, n = moment_matrix(data_or_cov, g.p)
    singles, multi = _split(s, n, g, chain_components(g))
    if equal_variances:
        solve = _equal_variance_solve(_residual_total(singles), multi, g.p)
        sigma2 = solve.total_t / g.p
        pieces = [replace(piece, sigma=np.full((1, 1), sigma2)) for piece in singles]
        pieces += [
            ComponentFit(tuple(c.nodes), tuple(c.predictors), b, sigma2 * r, solve.iterations, solve.converged)
            for c, b, r in zip(multi, solve.betas, solve.corrs)
        ]
    else:
        pieces = singles + [_alternating_fit(c) for c in multi]

    beta = np.zeros((g.p, g.p))
    sigma = np.zeros((g.p, g.p))
    for piece in pieces:
        if piece.predictors:
            beta[np.ix_(piece.nodes, piece.predictors)] = piece.beta
        sigma[np.ix_(piece.nodes, piece.nodes)] = piece.sigma
    params = SemParameters(graph=g, beta=beta, sigma=sigma)
    loglik = gaussian_average_loglik(implied_distribution(params).cov, s)
    variances = np.diag(sigma).copy()
    spread = float(np.max(np.log(variances)) - np.min(np.log(variances)))
    return FitResult(
        params=params,
        loglik=loglik,
        error_variances=variances,
        iterations=max(piece.iterations for piece in pieces),
        converged=all(piece.converged for piece in pieces),
        dispersion=spread,
    )


def fit_score(loglik: float, g: ChainGraph, n_eff: float, equal_variances: bool) -> float:
    """Penalized log-likelihood score of g at average log-likelihood `loglik`; higher is better.

    score = n_eff * loglik - (k / 2) * log(n_eff), with k counting every
    edge plus one shared error variance for an equal-variance fit, or every
    edge plus p free variances otherwise.
    """
    k = len(g.directed) + len(g.undirected) + (1 if equal_variances else g.p)
    return float(n_eff * loglik - 0.5 * k * math.log(n_eff))


def penalized_score(
    data_or_cov,
    g: ChainGraph,
    n_eff: float | None = None,
    equal_variances: bool = False,
) -> float:
    """`fit_score` of g's fit; dataset input supplies n_eff by default.

    No search calls it: it is kept as the fit-based reference that
    `EqualVarianceScorer` is tested against, and `perfbench`'s tracer
    traces it by this name.
    """
    if isinstance(data_or_cov, Dataset):
        n_eff = data_or_cov.n if n_eff is None else n_eff
    if n_eff is None:
        raise ValueError("covariance input requires an explicit n_eff")
    if n_eff <= 1:
        raise ValueError("n_eff must exceed 1")
    return fit_score(fit(data_or_cov, g, equal_variances).loglik, g, n_eff, equal_variances)


class EqualVarianceScorer:
    """Exact equal-variance log-likelihoods and scores of many graphs on one input.

    The input is validated and its second moment formed once, on
    construction. The profiled log-likelihood decomposes over chain
    components: a singleton component enters only through its
    least-squares residual sum of squares, cached by (node, parent set),
    and the multi-node components share one profiled solve with the cached
    singleton sum as the constant part of T (see `_equal_variance_solve`).
    B and sigma2 are profiled out, so the average log-likelihood is
    -(p log 2 pi + p + p log(T / p) + sum_K log det R_K) / 2 at the optimum,
    the same value `fit(..., equal_variances=True)` reaches.
    """

    def __init__(self, data_or_cov, p: int):
        self.p = p
        self.s, self.n = moment_matrix(data_or_cov, p)
        self._singletons: dict = {}

    def loglik(self, g: ChainGraph) -> tuple[float, bool]:
        """(average log-likelihood, converged) of g's equal-variance fit."""
        if g.p != self.p:
            raise ValueError(f"graph has {g.p} nodes, the input has {self.p}")
        singles, multi = _split(self.s, self.n, g, chain_components(g), self._singletons)
        solve = _equal_variance_solve(_residual_total(singles), multi, self.p)
        return -0.5 * (self.p * math.log(2.0 * math.pi) + self.p + solve.objective), solve.converged

    def score(self, g: ChainGraph, n_eff: float) -> float:
        """`fit_score` of g's equal-variance fit."""
        return fit_score(self.loglik(g)[0], g, n_eff, equal_variances=True)
