"""Maximum-likelihood fitting of chain-graph structural models.

Each chain component is fit by alternating two steps until the parameters
stop moving: a generalized-least-squares regression of the component on
its parents under the current error-covariance estimate (plain least
squares on the first pass), and iterative proportional fitting of the
regression-residual covariance to the component's undirected structure.
Inputs may be a dataset or a covariance matrix directly; feeding the exact
population covariance separates statistical error from algorithmic error.

The equal-error-variance mode computes the exact equality-constrained
maximum likelihood. Every component's error covariance is written as
sigma2 * R_K with R_K a correlation matrix whose inverse has the
component's undirected zero pattern; for fixed R_K the coefficients are a
GLS solve and sigma2 profiles out as the mean weighted residual moment.
With only singleton components (a DAG) this is closed form: per-node
least squares, with sigma2 the mean residual sum of squares. Otherwise
one L-BFGS solve runs over the off-diagonal pattern entries of the
components' unit-diagonal concentration matrices. The spread of the
unconstrained fit's log error variances (the `dispersion`) is the
statistic that picks the true graph out of its Markov equivalence class
at population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import optimize

from .graphs import ChainGraph, chain_components, relatives
from .sem import Dataset, SemParameters

__all__ = [
    "ComponentFit",
    "FitConfig",
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


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fit.

    max_outer, max_ipf and tol govern the unconstrained alternating fit.
    equal_variances selects the exact equal-error-variance maximum
    likelihood instead, which has no knobs of its own.
    """

    max_outer: int = 200
    max_ipf: int = 500
    tol: float = 1e-9
    equal_variances: bool = False

    def __post_init__(self):
        if self.max_outer < 1 or self.max_ipf < 1:
            raise ValueError("iteration caps must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


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
    Degenerate input raises ValueError naming the offending column or
    node: a constant column, or a column (node) that is a linear
    combination of the ones before it.
    """
    if isinstance(data_or_cov, Dataset):
        if data_or_cov.p != p:
            raise ValueError(f"dataset has {data_or_cov.p} columns, graph has {p} nodes")
        v = data_or_cov.values
        names = data_or_cov.labels or tuple(f"X{j + 1}" for j in range(p))
        constant = np.flatnonzero(np.ptp(v, axis=0) == 0)
        if constant.size:
            raise ValueError(f"column {names[constant[0]]} is constant")
        s, n = v.T @ v / data_or_cov.n, data_or_cov.n
        kind = "column"
    else:
        s = np.asarray(data_or_cov, dtype=float)
        if s.shape != (p, p):
            raise ValueError(f"covariance must be {p}x{p}, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("covariance has non-finite entries")
        if not np.all(np.abs(s - s.T) <= 1e-8 + 1e-5 * np.abs(s.T)):  # np.allclose, cheaper
            raise ValueError("covariance must be symmetric")
        s, n = 0.5 * (s + s.T), None
        names = tuple(range(p))
        kind = "node"
    j = _first_dependent(s)
    if j is not None:
        raise ValueError(
            f"{kind} {names[j]} is a linear combination of the {kind}s before it "
            "(second-moment matrix is not positive definite)"
        )
    return s, n


_RANK_TOL = 1e-10  # smallest conditional-to-marginal variance ratio accepted
_EV_GRAD_TOL = 1e-6  # largest objective gradient entry of a converged equal-variance fit


def _first_dependent(s: np.ndarray) -> int | None:
    """First index whose variance given all earlier ones vanishes, or None.

    The squared Cholesky diagonal holds those conditional variances.
    """
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        for j in range(s.shape[0]):
            try:
                chol = np.linalg.cholesky(s[: j + 1, : j + 1])
            except np.linalg.LinAlgError:
                return j
        raise
    below = chol.diagonal() ** 2 <= _RANK_TOL * s.diagonal()
    return int(below.argmax()) if below.any() else None


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


def ipf(s, pattern: Iterable[tuple], cfg: FitConfig | None = None) -> IpfResult:
    """Covariance MLE under a concentration zero pattern, by clique scaling.

    `pattern` lists the allowed off-diagonal pairs (the undirected edges of
    the local graph). Starting from a diagonal concentration matrix, each
    maximal clique's block is updated so the fitted marginal over the
    clique matches `s` exactly; updates never touch entries off the
    pattern, so the zero constraints hold by construction. A complete
    pattern therefore returns `s` itself after one sweep, and an empty
    pattern returns its diagonal.
    """
    cfg = cfg or FitConfig()
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
    for sweeps in range(1, cfg.max_ipf + 1):
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
        change = float(np.max(np.abs(sigma - prev))) / max(1.0, float(np.max(np.abs(prev))))
        if change < cfg.tol:
            converged = True
            break
    return IpfResult(sigma=0.5 * (sigma + sigma.T), iterations=sweeps, converged=converged)


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    if new.size == 0:
        return 0.0
    return float(np.max(np.abs(new - old))) / max(1.0, float(np.max(np.abs(old))))


def _gls_coefficients(
    s: np.ndarray,
    y_nodes: list,
    z_nodes: list,
    support: list,
    omega: np.ndarray,
) -> np.ndarray:
    """Solve the weighted normal equations for the supported coefficients.

    Minimizes trace(omega * residual-moment) over coefficient matrices that
    vanish off `support` (pairs of local row/column indices). With identity
    weighting the equations decouple into per-row ordinary least squares.
    """
    b = np.zeros((len(y_nodes), len(z_nodes)))
    if not support:
        return b
    szz = s[np.ix_(z_nodes, z_nodes)]
    syz = s[np.ix_(y_nodes, z_nodes)]
    target = omega @ syz
    f = len(support)
    a = np.empty((f, f))
    rhs = np.empty(f)
    for row, (j, kz) in enumerate(support):
        rhs[row] = target[j, kz]
        for col, (j2, kz2) in enumerate(support):
            a[row, col] = omega[j, j2] * szz[kz2, kz]
    coefs = np.linalg.solve(a, rhs)
    for (j, kz), value in zip(support, coefs):
        b[j, kz] = value
    return b


def _residual_moment(s, y_nodes, z_nodes, b) -> np.ndarray:
    syy = s[np.ix_(y_nodes, y_nodes)]
    if not z_nodes:
        return syy
    syz = s[np.ix_(y_nodes, z_nodes)]
    szz = s[np.ix_(z_nodes, z_nodes)]
    e = syy - b @ syz.T - syz @ b.T + b @ szz @ b.T
    return 0.5 * (e + e.T)


def _component_layout(g: ChainGraph, comp: frozenset):
    y_nodes = sorted(comp)
    z_nodes = sorted(relatives(g, comp, "parents"))
    z_index = {v: i for i, v in enumerate(z_nodes)}
    support = []
    for row, node in enumerate(y_nodes):
        for parent in g._parents[node]:
            support.append((row, z_index[parent]))
    local = {v: i for i, v in enumerate(y_nodes)}
    pattern = [
        (local[a], local[b]) for a, b in g.undirected if a in comp and b in comp
    ]
    return y_nodes, z_nodes, support, pattern


def fit_component(
    data_or_cov,
    g: ChainGraph,
    comp: Iterable[int],
    cfg: FitConfig | None = None,
) -> ComponentFit:
    """Alternating GLS/IPF estimate for one chain component."""
    cfg = cfg or FitConfig()
    comp = frozenset(int(x) for x in comp)
    if comp not in set(chain_components(g)):
        raise ValueError("comp must be a chain component of g")
    s, n = moment_matrix(data_or_cov, g.p)
    y_nodes, z_nodes, support, pattern = _component_layout(g, comp)
    if n is not None and n < len(z_nodes):
        raise ValueError(
            f"{n} samples cannot support {len(z_nodes)} predictors for component {tuple(y_nodes)}"
        )
    if not z_nodes:
        res = ipf(s[np.ix_(y_nodes, y_nodes)], pattern, cfg)
        return ComponentFit(
            nodes=tuple(y_nodes),
            predictors=(),
            beta=np.zeros((len(y_nodes), 0)),
            sigma=res.sigma,
            iterations=res.iterations,
            converged=res.converged,
        )
    b = np.zeros((len(y_nodes), len(z_nodes)))
    sigma = np.eye(len(y_nodes))
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_outer + 1):
        omega = np.linalg.inv(sigma)
        b_new = _gls_coefficients(s, y_nodes, z_nodes, support, omega)
        res = ipf(_residual_moment(s, y_nodes, z_nodes, b_new), pattern, cfg)
        change = max(_relative_change(b_new, b), _relative_change(res.sigma, sigma))
        b, sigma = b_new, res.sigma
        if change < cfg.tol and res.converged:
            converged = True
            break
    return ComponentFit(
        nodes=tuple(y_nodes),
        predictors=tuple(z_nodes),
        beta=b,
        sigma=sigma,
        iterations=rounds,
        converged=converged,
    )


def gaussian_average_loglik(model_cov: np.ndarray, s: np.ndarray) -> float:
    """Per-sample expected log density of N(0, model_cov) under moments s."""
    p = model_cov.shape[0]
    sign, logdet = np.linalg.slogdet(model_cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("model covariance is not positive definite")
    quad = float(np.trace(np.linalg.solve(model_cov, s)))
    return -0.5 * (p * math.log(2.0 * math.pi) + logdet + quad)


def _equal_variance_fit(s: np.ndarray, layouts: list, p: int):
    """Exact equal-error-variance MLE; returns (betas, sigmas, iterations, converged).

    Each component's error covariance is sigma2 * R_K. For fixed R_K the
    coefficients are the GLS solve under weight R_K^-1, and sigma2 = T / p
    with T = sum_K trace(R_K^-1 E_K) over the residual moments E_K, leaving
    p * log(T / p) + sum_K log det R_K to minimize. Singleton components
    have R_K = 1, so a DAG is closed form. Multi-node components take
    R_K = corr(Omega_K^-1) over unit-diagonal Omega_K whose off-diagonal
    entries sit on the undirected pattern, so R_K^-1 = D^1/2 Omega_K D^1/2
    with D = diag(Omega_K^-1) keeps that pattern; one L-BFGS solve from
    Omega_K = I runs over those entries. B and sigma2 are optimal at every
    point, so by the envelope theorem the gradient only differentiates R_K.
    The objective need not be convex, so the solve finds a local optimum.
    """
    betas: list = [None] * len(layouts)
    corrs: list = [np.ones((1, 1))] * len(layouts)
    fixed_t = 0.0
    free = []
    for i, (y_nodes, z_nodes, support, pattern) in enumerate(layouts):
        if len(y_nodes) == 1:
            betas[i] = _gls_coefficients(s, y_nodes, z_nodes, support, np.ones((1, 1)))
            fixed_t += float(_residual_moment(s, y_nodes, z_nodes, betas[i])[0, 0])
        else:
            free.append((i, tuple(np.array(pattern, dtype=int).T)))  # (rows, cols)
    if not free:
        sigma2 = fixed_t / p
        return betas, [sigma2 * r for r in corrs], 0, True

    bounds = np.cumsum([0] + [rows.size for _i, (rows, _c) in free])

    def profile(theta: np.ndarray):
        """(objective, gradient, T) at theta, or None outside the positive-definite region.

        Leaves theta's coefficients and correlations in betas and corrs.
        """
        total_t = fixed_t
        logdet_r = 0.0
        parts = []
        for (i, (rows, cols)), lo, hi in zip(free, bounds[:-1], bounds[1:]):
            y_nodes, z_nodes, support, _pattern = layouts[i]
            omega = np.eye(len(y_nodes))
            omega[rows, cols] = theta[lo:hi]
            omega[cols, rows] = theta[lo:hi]
            try:
                chol = np.linalg.cholesky(omega)
            except np.linalg.LinAlgError:
                return None
            if np.min(np.diag(chol)) ** 2 <= _RANK_TOL:
                return None
            c = np.linalg.inv(omega)
            d = np.diag(c)
            sd = np.sqrt(d)
            weight = omega * np.outer(sd, sd)  # R_K^-1
            betas[i] = _gls_coefficients(s, y_nodes, z_nodes, support, weight)
            e = _residual_moment(s, y_nodes, z_nodes, betas[i])
            corrs[i] = c / np.outer(sd, sd)
            np.fill_diagonal(corrs[i], 1.0)
            total_t += float(np.sum(weight * e))
            logdet_r -= 2.0 * float(np.sum(np.log(np.diag(chol)))) + float(np.sum(np.log(d)))
            parts.append((rows, cols, lo, hi, omega, c, d, sd, e))
        grad = np.empty_like(theta)
        for rows, cols, lo, hi, omega, c, d, sd, e in parts:
            g = (omega * e) @ sd
            d_trace = 2.0 * sd[rows] * sd[cols] * e[rows, cols] - 2.0 * ((c * (g / sd)) @ c)[rows, cols]
            d_logdet = 2.0 * ((c / d) @ c)[rows, cols] - 2.0 * c[rows, cols]
            grad[lo:hi] = p / total_t * d_trace + d_logdet
        return p * math.log(total_t / p) + logdet_r, grad, total_t

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
    _f, grad, total_t = profile(best_theta)
    converged = bool(res.success) or float(np.max(np.abs(grad))) <= _EV_GRAD_TOL
    sigma2 = total_t / p
    return betas, [sigma2 * r for r in corrs], int(res.nit), converged


def fit(data_or_cov, g: ChainGraph, cfg: FitConfig | None = None) -> FitResult:
    """Maximum-likelihood parameters of g's model for the given input.

    Components are fit separately in the unconstrained mode. With
    equal_variances the exact equality-constrained maximum likelihood is
    returned instead (see `_equal_variance_fit`); its iterations count the
    optimizer's steps, zero when every component is a singleton.
    """
    cfg = cfg or FitConfig()
    s, n = moment_matrix(data_or_cov, g.p)
    comps = chain_components(g)
    layouts = [_component_layout(g, comp) for comp in comps]
    for y_nodes, z_nodes, _sup, _pat in layouts:
        if n is not None and n < len(z_nodes):
            raise ValueError(
                f"{n} samples cannot support {len(z_nodes)} predictors for component {tuple(y_nodes)}"
            )

    if cfg.equal_variances:
        beta_blocks, sigma_blocks, iterations, converged = _equal_variance_fit(s, layouts, g.p)
    else:
        pieces = [fit_component(s, g, comp, cfg) for comp in comps]
        beta_blocks = [piece.beta for piece in pieces]
        sigma_blocks = [piece.sigma for piece in pieces]
        iterations = max(piece.iterations for piece in pieces)
        converged = all(piece.converged for piece in pieces)

    beta = np.zeros((g.p, g.p))
    sigma = np.zeros((g.p, g.p))
    for (y_nodes, z_nodes, _sup, _pat), b_c, s_c in zip(layouts, beta_blocks, sigma_blocks):
        if z_nodes:
            beta[np.ix_(y_nodes, z_nodes)] = b_c
        sigma[np.ix_(y_nodes, y_nodes)] = s_c
    params = SemParameters(graph=g, beta=beta, sigma=sigma)
    a = np.eye(g.p) - beta
    x = np.linalg.solve(a, sigma)
    model_cov = np.linalg.solve(a, x.T).T
    loglik = gaussian_average_loglik(0.5 * (model_cov + model_cov.T), s)
    variances = np.diag(sigma).copy()
    spread = float(np.max(np.log(variances)) - np.min(np.log(variances)))
    return FitResult(
        params=params,
        loglik=loglik,
        error_variances=variances,
        iterations=iterations,
        converged=converged,
        dispersion=spread,
    )


def fit_score(result: FitResult, n_eff: float, equal_variances: bool) -> float:
    """Penalized log-likelihood score of a fit; higher is better.

    score = n_eff * average log-likelihood - (k / 2) * log(n_eff), with k
    counting every edge plus one shared error variance for an
    equal-variance fit, or every edge plus p free variances otherwise.
    """
    g = result.params.graph
    k = len(g.directed) + len(g.undirected) + (1 if equal_variances else g.p)
    return float(n_eff * result.loglik - 0.5 * k * math.log(n_eff))


def penalized_score(
    data_or_cov,
    g: ChainGraph,
    cfg: FitConfig | None = None,
    n_eff: float | None = None,
) -> float:
    """`fit_score` of g's fit; dataset input supplies n_eff by default."""
    cfg = cfg or FitConfig()
    if isinstance(data_or_cov, Dataset):
        n_eff = data_or_cov.n if n_eff is None else n_eff
    if n_eff is None:
        raise ValueError("covariance input requires an explicit n_eff")
    if n_eff <= 1:
        raise ValueError("n_eff must exceed 1")
    return fit_score(fit(data_or_cov, g, cfg), n_eff, cfg.equal_variances)
