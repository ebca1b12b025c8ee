"""Gaussian linear structural models over chain graphs.

Each node is a linear function of its parents plus an error term; the
errors are jointly Gaussian with a covariance whose concentration matrix
is zero wherever two nodes are not joined by an undirected edge (so the
error covariance is block-diagonal over chain components). The implied
observational distribution, equal-variance rescaling, conditioning,
sampling and population-level conditional-independence checks live here.
So does the one rule for a valid covariance, `_valid_covariance`: finite,
square, symmetric, and positive definite under a scale-free rank test, so
multiplying a covariance by c > 0 never changes its verdict. It guards
`GaussianDistribution` (so every implied covariance, a fitted one too),
`sigma` in the public `SemParameters` constructor, `gaussian_ci`,
`estimation.ipf` and covariance input to `estimation.moment_matrix`. One
scale-free rule, `_off_pattern_dependence`, decides that errors are
independent off the undirected pattern, for the public `SemParameters`
constructor and for the population check of `search.identify_in_class`.
That constructor rejects a graph with a semidirected cycle before
anything else, by the one walk that decides every cycle question
(`graphs.is_chain_graph`, over the masks the graph keeps from its one
build), so no model sits on one. Parameters the library builds itself on
a graph it has checked (`random_parameters`, `rescale_equal_variances`,
`estimation.fit`) are valid by construction and take the trusted path,
`graphs._trusted`, so they are validated once, at the boundary.

This module is the one place that turns partial correlations into
conditional-independence decisions. A single query, `gaussian_ci`, inverts
its marginal block (`_partial_correlation`) and compares |r| with
`_CI_TOL`. A sweep reads one boolean table, `_independences`, that decides
every pairwise query given every node subset at once: on a covariance by
the same `_CI_TOL`, on data by a Fisher-z test at the fixed level
`_CI_LEVEL`. It is built from one partial-correlation table,
`_partial_correlations`, of rank-one Schur updates: `faithful_parameters`
builds one per draw, and skeleton recovery in `search` one per call. Both
read their pairwise queries off it through the index arrays of
`separation._query_table`, in the order in which `separation._separations`
lists a graph's separations, so a draw is checked against its graph by
comparing two boolean vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable

import numpy as np

from .graphs import ChainGraph, _default_label, _repeated_label, _require_chain_graph, _trusted, chain_components
from .seeds import compose_seed
from .separation import _query_table, _separations

__all__ = [
    "Dataset",
    "GaussianDistribution",
    "SemParameters",
    "compose_seed",
    "condition",
    "faithful_parameters",
    "gaussian_ci",
    "implied_distribution",
    "random_parameters",
    "rescale_equal_variances",
    "sample",
]

_RANK_TOL = 1e-10  # smallest conditional-to-marginal variance ratio accepted
_COEF_RANGE = (0.3, 1.0)  # coefficient magnitudes of random parameters, bounded away from zero
_FAITHFUL_DRAWS = 50  # parameter draws faithful_parameters tries before giving up
_CI_TOL = 1e-8  # |partial correlation| below which a covariance shows an independence
_CI_LEVEL = 0.01  # level of the two-sided Fisher-z test that decides independence on data


def _first_dependent(s: np.ndarray) -> int | None:
    """First index whose variance given all earlier ones vanishes, or None.

    The squared Cholesky diagonal holds those conditional variances; each
    is compared with its own marginal variance, so the test is scale-free.
    When the full factorization fails, the leading blocks are factored one
    by one, and the first whose last pivot fails or falls below the same
    tolerance is named.
    """
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        for j in range(s.shape[0]):
            try:
                pivot = np.linalg.cholesky(s[: j + 1, : j + 1])[j, j]
            except np.linalg.LinAlgError:
                return j
            if pivot**2 <= _RANK_TOL * s[j, j]:
                return j
        raise
    below = chol.diagonal() ** 2 <= _RANK_TOL * s.diagonal()
    return int(below.argmax()) if below.any() else None


def _valid_covariance(m, name: str, singular: type = ValueError) -> np.ndarray:
    """`m` as a symmetric float matrix, or ValueError naming `name` and the fault.

    Finite, square, symmetric within `np.allclose` tolerances, and no node
    a linear combination of the nodes before it (`_first_dependent`); that
    last fault raises `singular` instead, naming the node.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if not np.all(np.abs(m - m.T) <= 1e-8 + 1e-5 * np.abs(m.T)):  # np.allclose, cheaper
        raise ValueError(f"{name} must be symmetric")
    m = 0.5 * (m + m.T)
    j = _first_dependent(m)
    if j is not None:
        raise singular(f"node {j} is a linear combination of the nodes before it ({name} is not positive definite)")
    return m


def _off_pattern_dependence(sigma: np.ndarray, undirected: frozenset) -> tuple | None:
    """The first pair (j, k, r) without an undirected edge whose errors are dependent, or None.

    r is the partial correlation of j and k given all other nodes,
    -Ω_jk / sqrt(Ω_jj Ω_kk) with Ω the inverse of the error covariance
    `sigma`, and the pair is dependent when |r| is not below `_CI_TOL`:
    the rule `_independences` applies to a covariance, so scaling sigma by
    c > 0 never changes the verdict. Pairs j < k are tried in
    `itertools.combinations` order; `undirected` holds sorted pairs.
    """
    prec = np.linalg.inv(sigma)
    d = prec.diagonal()
    r = -prec / np.sqrt(d[:, None] * d)
    js, ks = np.nonzero(np.abs(r) >= _CI_TOL)  # row by row
    for j, k in zip(js.tolist(), ks.tolist()):
        if j < k and (j, k) not in undirected:
            return j, k, float(r[j, k])
    return None


@dataclass(frozen=True, eq=False)
class GaussianDistribution:
    """Mean vector and positive-definite covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = _valid_covariance(self.cov, "cov")
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if mean.shape[0] != cov.shape[0]:
            raise ValueError("mean and cov dimensions disagree")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def p(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """n samples of p variables; column j holds node j.

    A non-finite entry raises ValueError naming its column label (`X1`,
    `X2`, ... without labels) and its data row, 1 for the first sample. A
    label given to two columns raises ValueError naming it.
    """

    values: np.ndarray
    labels: tuple | None = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1:
            raise ValueError("a dataset needs at least one row")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != values.shape[1]:
                raise ValueError("one label per column required")
            if (repeated := _repeated_label(labels)) is not None:
                raise ValueError(f"label {repeated!r} names more than one column")
            object.__setattr__(self, "labels", labels)
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"dataset has a non-finite entry {values[i, j]} in column {self._label(j)}, data row {i + 1}"
            )

    def _label(self, j: int) -> str:
        """Column j's label: its own, or X1, X2, ... without labels."""
        return self.labels[j] if self.labels is not None else _default_label(j)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class SemParameters:
    """Coefficient matrix plus error covariance tied to a chain graph.

    beta[j, k] is the coefficient of node k in node j's equation and may be
    non-zero only when k is a parent of j. sigma is positive definite and
    its inverse vanishes off the undirected structure, which forces it to
    be block-diagonal over the chain components: each pair of errors
    without an undirected edge has a partial correlation below `_CI_TOL`
    given the rest (`_off_pattern_dependence`). A graph with a
    semidirected cycle is rejected first, with ValueError naming one
    (`graphs._require_chain_graph`), so no model is built on it.

    The public constructor runs every one of these checks. The library's
    own builders (`random_parameters`, `rescale_equal_variances`,
    `estimation.fit`) check their graph on entry and build beta and sigma
    on the pattern, so they take the trusted path (`graphs._trusted`)
    and store what this constructor would: beta as a float array and
    sigma as the symmetric ½(sigma + sigmaᵀ).
    """

    graph: ChainGraph
    beta: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        _require_chain_graph(self.graph)
        p = self.graph.p
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (p, p):
            raise ValueError(f"beta must be {p}x{p}, got {beta.shape}")
        sigma = _valid_covariance(self.sigma, "sigma")
        if sigma.shape != (p, p):
            raise ValueError(f"sigma must be {p}x{p}, got {sigma.shape}")
        off_support = np.abs(beta) > 1e-12
        for parent, child in self.graph.directed:
            off_support[child, parent] = False
        if off_support.any():
            j, k = np.argwhere(off_support)[0]  # the first in row-major order
            raise ValueError(f"beta[{j}, {k}] non-zero but {k} is not a parent of {j}")
        dependent = _off_pattern_dependence(sigma, self.graph.undirected)
        if dependent is not None:
            raise ValueError(f"concentration entry {dependent[:2]} must vanish without an undirected edge")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", sigma)

    @property
    def p(self) -> int:
        return self.graph.p


def _signed_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return rng.uniform(lo, hi, size=size) * rng.choice((-1.0, 1.0), size=size)


def random_parameters(g: ChainGraph, seed=0) -> SemParameters:
    """Draw coefficients and a pattern-respecting error covariance.

    Coefficient magnitudes live in `_COEF_RANGE` (bounded away from zero so
    that dependences stay numerically visible) with random signs. Each
    component's concentration block gets random entries on its undirected
    edges and a strictly diagonally dominant diagonal, which guarantees
    positive definiteness; inverting the blocks yields sigma, which is
    block-diagonal over the components and so valid by construction. A g
    with a semidirected cycle is rejected on entry, with ValueError naming
    one; the result is built on the trusted path (`graphs._trusted`). The
    seed goes through `seeds.compose_seed`, so a negative one raises
    ValueError naming it.
    """
    _require_chain_graph(g)
    lo, hi = _COEF_RANGE
    rng = np.random.default_rng(compose_seed(seed))
    p = g.p
    beta = np.zeros((p, p))
    for j, k in sorted(g.directed):
        beta[k, j] = _signed_uniform(rng, lo, hi)
    sigma = np.zeros((p, p))
    for comp in chain_components(g):
        nodes = sorted(comp)
        m = len(nodes)
        local = {v: i for i, v in enumerate(nodes)}
        omega = np.zeros((m, m))
        for a, b in sorted(g.undirected):
            if a in comp:
                w = _signed_uniform(rng, lo, hi)
                omega[local[a], local[b]] = w
                omega[local[b], local[a]] = w
        slack = rng.uniform(0.5, 1.5, size=m)
        for i in range(m):
            omega[i, i] = np.sum(np.abs(omega[i])) + slack[i]
        block = np.linalg.inv(omega)
        rows = np.array(nodes)[:, None]
        sigma[rows, rows.T] = 0.5 * (block + block.T)
    return _trusted(SemParameters, graph=g, beta=beta, sigma=sigma)


def implied_distribution(params: SemParameters) -> GaussianDistribution:
    """Zero-mean Gaussian the structural equations induce on the nodes."""
    p = params.p
    a = np.eye(p) - params.beta
    x = np.linalg.solve(a, params.sigma)
    cov = np.linalg.solve(a, x.T).T
    return GaussianDistribution(mean=np.zeros(p), cov=0.5 * (cov + cov.T))


def rescale_equal_variances(params: SemParameters, sigma2: float = 1.0) -> SemParameters:
    """Rescale every error term so all error variances equal sigma2.

    Error j is scaled by sqrt(sigma2)/sd(error j); the coefficients are
    untouched. A diagonal congruence cannot create or destroy zeros of the
    concentration matrix, so the undirected structure is preserved, and
    positive definiteness survives in both directions: both scale-free
    verdicts, `_valid_covariance` and `_off_pattern_dependence`, are those
    of params.sigma, so the result is built on the trusted path
    (`graphs._trusted`). sigma2 must be positive and finite.
    """
    if not 0.0 < sigma2 < np.inf:  # NaN fails too
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    d = np.sqrt(sigma2 / np.diag(params.sigma))
    sigma = params.sigma * np.outer(d, d)
    np.fill_diagonal(sigma, sigma2)
    return _trusted(SemParameters, graph=params.graph, beta=params.beta.copy(), sigma=sigma)


def condition(dist: GaussianDistribution, b: Iterable[int], b_values) -> GaussianDistribution:
    """Distribution of the remaining coordinates given coordinates b.

    Returned coordinates follow the sorted complement of b. The
    conditional covariance does not depend on the observed values, and no
    conditional variance can exceed its marginal counterpart.
    """
    b_idx = sorted({int(x) for x in b})
    p = dist.p
    if not b_idx or len(b_idx) >= p:
        raise ValueError("b must be a non-trivial subset of the coordinates")
    if any(x < 0 or x >= p for x in b_idx):
        raise ValueError("conditioning index out of range")
    vals = np.asarray(b_values, dtype=float).reshape(-1)
    if vals.shape[0] != len(b_idx):
        raise ValueError("one value per conditioned coordinate required")
    a_idx = np.array([x for x in range(p) if x not in set(b_idx)])
    b_idx = np.array(b_idx)
    s_aa = dist.cov[a_idx[:, None], a_idx]
    s_ab = dist.cov[a_idx[:, None], b_idx]
    s_bb = dist.cov[b_idx[:, None], b_idx]
    gain = np.linalg.solve(s_bb, s_ab.T).T
    mean = dist.mean[a_idx] + gain @ (vals - dist.mean[b_idx])
    cov = s_aa - gain @ s_ab.T
    return GaussianDistribution(mean=mean, cov=0.5 * (cov + cov.T))


def sample(dist: GaussianDistribution, n: int, seed, labels: tuple | None = None) -> Dataset:
    """n independent draws through a Cholesky factor; deterministic per seed, which must be non-negative."""
    if n < 1:
        raise ValueError("n must be >= 1")
    chol = np.linalg.cholesky(dist.cov)
    rng = np.random.default_rng(compose_seed(seed))
    z = rng.standard_normal((n, dist.p))
    return Dataset(values=dist.mean + z @ chol.T, labels=labels)


def gaussian_ci(cov, j: int, k: int, given: Iterable[int] = ()) -> bool:
    """True iff nodes j and k are conditionally independent given `given`.

    Decided on the partial correlation read from the precision matrix of
    the relevant marginal block; scale-free, so one tolerance, `_CI_TOL`
    (1e-8), serves all covariances: the rule `_independences` applies to a
    covariance, for one query. It suits exact population inputs; data are
    decided by the Fisher-z test of `_independences`.
    """
    cov = _valid_covariance(cov, "cov")
    cond = sorted({int(x) for x in given})
    for node in (j, k, *cond):
        if not 0 <= node < len(cov):
            raise ValueError(f"node {node} is out of range for a {len(cov)}-node covariance")
    if j == k or j in cond or k in cond:
        raise ValueError("query nodes and conditioning set must be disjoint")
    return abs(_partial_correlation(cov, j, k, cond)) < _CI_TOL


def _partial_correlation(cov: np.ndarray, j: int, k: int, cond) -> float:
    """Partial correlation of j and k given cond, unchecked.

    Read off the inverse of the marginal block over j, k and cond; `cov`
    must already be a validated symmetric matrix. One query at any node
    count; sweeps read `_independences` instead.
    """
    idx = np.array([j, k, *cond])
    prec = np.linalg.inv(cov[idx[:, None], idx])
    return float(-prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1]))


def _partial_correlations(cov: np.ndarray) -> np.ndarray:
    """Partial correlation of every pair given every node subset, unchecked.

    `out[mask, j, k]` is the partial correlation of j and k given the nodes
    whose bits are set in `mask` (see `_mask`); it is NaN when j or k is
    itself in the mask. Each conditional covariance is one rank-one Schur
    update of another, Σ|C = Σ|C' − Σ|C'[:, m] Σ|C'[m, :] / Σ|C'[m, m],
    where m is the highest node of C and C' is C without m. The masks
    2^m .. 2^(m+1) − 1 are those whose highest node is m, and their C' are
    the masks 0 .. 2^m − 1, so node m's updates are one numpy operation:
    2^p − 1 updates in p operations. `cov` must already be a validated
    symmetric matrix; the table holds 2^p·p² numbers, so callers cap p at
    `graphs.CLASS_CAP`.
    """
    p = len(cov)
    given = np.empty((1 << p, p, p))
    given[0] = cov
    for m in range(p):
        base = given[: 1 << m]
        col = base[:, :, m]
        given[1 << m : 2 << m] = base - col[:, :, None] * col[:, None, :] / base[:, m, m, None, None]
    variances = np.diagonal(given, axis1=1, axis2=2).copy()
    variances[_mask_bits(p)] = np.nan
    sd = np.sqrt(variances)
    return given / (sd[:, :, None] * sd[:, None, :])


def _independences(s: np.ndarray, n: int | None = None) -> np.ndarray:
    """Every pairwise independence decision given every node subset, unchecked.

    `out[mask, j, k]` decides whether j and k are independent given the
    nodes of `mask`, read off one `_partial_correlations(s)` table; entries
    with j or k in the mask are meaningless. A covariance (`n` None) shows
    an independence where |r| < `_CI_TOL`. A second moment of `n` samples
    is tested two-sided by Fisher's z at level `_CI_LEVEL`: r clipped to
    ±0.999999, z = ½·log((1 + r)/(1 − r)), independent when the degrees of
    freedom n − |mask| − 3 are not positive or √dof·|z| ≤ the normal
    quantile. `s` must already be validated.
    """
    r = _partial_correlations(s)
    if n is None:
        return np.abs(r) < _CI_TOL
    r = np.clip(r, -0.999999, 0.999999)
    z = 0.5 * np.log((1.0 + r) / (1.0 - r))
    dof = n - _mask_bits(len(s)).sum(axis=1) - 3
    crit = NormalDist().inv_cdf(1.0 - _CI_LEVEL / 2.0)
    root = np.sqrt(np.maximum(dof, 0))[:, None, None]
    return (dof <= 0)[:, None, None] | (root * np.abs(z) <= crit)


def _mask_bits(p: int) -> np.ndarray:
    """`bits[mask, v]` is True when node v is in `mask`, for every mask over p nodes."""
    return ((np.arange(1 << p)[:, None] >> np.arange(p)) & 1).astype(bool)


def faithful_parameters(g: ChainGraph, seed=0, sigma2: float | None = None) -> tuple[SemParameters, int]:
    """Random parameters whose population distribution is faithful to g.

    Random draws are faithful with probability one, but a finite-precision
    check can still trip on near-cancellations, so violating draws are
    discarded and redrawn rather than assumed away. Separations must always
    map to vanishing partial correlations; a violation there is a bug, not
    bad luck, and raises. Returns the parameters and the number of draws
    used. At most `_FAITHFUL_DRAWS` draws are tried. Graphs over
    `graphs.CLASS_CAP` (12) nodes, too large for `separation._separations`,
    raise `CapacityError`. g's separations are listed once, as a boolean
    vector in `separation._query_table` order; each draw reads every
    pairwise query off one `_independences` table through the same
    table's index arrays and compares the two vectors in one array
    operation. The first query, in `separation.pairwise_queries` order,
    where they disagree decides: a missing independence raises, an extra
    one redraws.
    """
    wanted = _separations(g)
    queries, masks, js, ks = _query_table(g.p)
    for attempt in range(1, _FAITHFUL_DRAWS + 1):
        params = random_parameters(g, seed=compose_seed(seed, attempt))
        if sigma2 is not None:
            params = rescale_equal_variances(params, sigma2)
        found = _independences(implied_distribution(params).cov)[masks, js, ks]  # cov checked there
        wrong = np.flatnonzero(found != wanted)
        if not wrong.size:
            return params, attempt
        if wanted[wrong[0]]:
            j, k, cond = queries[wrong[0]]
            raise RuntimeError(
                f"separation ({j}, {k} | {cond}) violated by the implied "
                "distribution; the model construction is broken"
            )
    raise RuntimeError(f"no faithful draw found in {_FAITHFUL_DRAWS} attempts")
