from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ampcg import (
    ChainGraph,
    Dataset,
    GaussianDistribution,
    SemParameters,
    all_separations,
    condition,
    faithful_parameters,
    gaussian_ci,
    implied_distribution,
    random_chain_graph,
    random_parameters,
    rescale_equal_variances,
    sample,
)
from ampcg.estimation import moment_matrix
from ampcg.sem import _independences, _mask, _partial_correlation, _partial_correlations
from ampcg.separation import pairwise_queries

from .conftest import chain_graphs


class TestTypes:
    def test_distribution_requires_pd(self):
        with pytest.raises(ValueError):
            GaussianDistribution(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_distribution_requires_symmetry(self):
        with pytest.raises(ValueError):
            GaussianDistribution(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), labels=("a",))

    def test_parameters_reject_offpattern_beta(self):
        g = ChainGraph(2, directed={(0, 1)})
        bad = np.array([[0.0, 0.5], [0.7, 0.0]])  # (0,1) entry has no parent edge
        with pytest.raises(ValueError):
            SemParameters(g, bad, np.eye(2))

    def test_singular_matrices_rejected_naming_node(self):
        singular = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])  # node 2 = node 0 + node 1
        with pytest.raises(ValueError, match=r"node 2 is a linear combination .*\(cov is not"):
            GaussianDistribution(np.zeros(3), singular)
        g = ChainGraph(3, undirected={(0, 1), (0, 2), (1, 2)})
        with pytest.raises(ValueError, match=r"node 2 is a linear combination .*\(sigma is not"):
            SemParameters(g, np.zeros((3, 3)), singular)

    def test_validity_is_scale_free(self):
        g = ChainGraph(2, undirected={(0, 1)})
        sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
        for c in (1e-14, 1e14):
            assert np.array_equal(GaussianDistribution(np.zeros(2), c * sigma).cov, c * sigma)
            assert np.array_equal(SemParameters(g, np.zeros((2, 2)), c * sigma).sigma, c * sigma)

    def test_parameters_reject_offpattern_concentration(self):
        g = ChainGraph(2)
        with pytest.raises(ValueError):
            SemParameters(g, np.zeros((2, 2)), np.array([[1.0, 0.8], [0.8, 1.0]]))


class TestRandomParameters:
    def test_empty_graph_diagonal(self):
        params = random_parameters(ChainGraph(3), seed=0)
        assert np.all(params.beta == 0)
        assert np.count_nonzero(params.sigma - np.diag(np.diag(params.sigma))) == 0

    def test_six_node_concentration_pattern(self, six_node_graph):
        params = random_parameters(six_node_graph, seed=4)
        omega = np.linalg.inv(params.sigma)
        nonzero = {
            (j, k)
            for j in range(6)
            for k in range(j + 1, 6)
            if abs(omega[j, k]) > 1e-9
        }
        assert nonzero == {(2, 3), (4, 5)}

    def test_deterministic(self, six_node_graph):
        a = random_parameters(six_node_graph, seed=9)
        b = random_parameters(six_node_graph, seed=9)
        assert np.array_equal(a.beta, b.beta) and np.array_equal(a.sigma, b.sigma)

    def test_degenerate_range_rejected(self, six_node_graph):
        with pytest.raises(ValueError):
            random_parameters(six_node_graph, coef_range=(0.0, 1.0))

    def test_coefficient_magnitudes_respect_range(self, six_node_graph):
        params = random_parameters(six_node_graph, coef_range=(0.3, 1.0), seed=2)
        mags = np.abs(params.beta[params.beta != 0])
        assert np.all(mags >= 0.3) and np.all(mags <= 1.0)


class TestImpliedDistribution:
    def test_two_node_hand_value(self):
        g = ChainGraph(2, directed={(0, 1)})
        b = 0.8
        beta = np.array([[0.0, 0.0], [b, 0.0]])
        params = SemParameters(g, beta, np.eye(2) * 2.0)
        cov = implied_distribution(params).cov
        expected = 2.0 * np.array([[1.0, b], [b, b * b + 1.0]])
        assert np.allclose(cov, expected, atol=1e-12)

    def test_zero_beta_returns_sigma(self):
        g = ChainGraph(3, undirected={(0, 1)})
        params = random_parameters(g, seed=1)
        assert np.allclose(implied_distribution(params).cov, params.sigma)

    def test_monte_carlo_cross_check(self, six_node_graph):
        params = random_parameters(six_node_graph, seed=5)
        dist = implied_distribution(params)
        data = sample(dist, 200_000, seed=12)
        empirical = data.values.T @ data.values / data.n
        scale = np.sqrt(np.outer(np.diag(dist.cov), np.diag(dist.cov)))
        assert np.max(np.abs(empirical - dist.cov) / scale) < 0.03


class TestMarkovAndFaithfulness:
    @settings(max_examples=25, deadline=None)
    @given(chain_graphs(min_p=2, max_p=5), st.integers(0, 10_000))
    def test_separations_imply_zero_partial_correlation(self, g, seed):
        cov = implied_distribution(random_parameters(g, seed=seed)).cov
        for j, k, cond in all_separations(g):
            assert gaussian_ci(cov, j, k, cond)

    def test_faithful_draw_has_no_extra_independences(self, six_node_graph):
        params, draws = faithful_parameters(six_node_graph, seed=21)
        assert draws >= 1
        cov = implied_distribution(params).cov
        seps = all_separations(six_node_graph)
        for j, k in itertools.combinations(range(6), 2):
            rest = [x for x in range(6) if x not in (j, k)]
            for r in range(len(rest) + 1):
                for cond in itertools.combinations(rest, r):
                    assert gaussian_ci(cov, j, k, cond) == ((j, k, cond) in seps)


class TestRescaling:
    def test_diagonal_case(self):
        g = ChainGraph(2)
        params = SemParameters(g, np.zeros((2, 2)), np.diag([4.0, 9.0]))
        assert np.allclose(rescale_equal_variances(params, 1.0).sigma, np.eye(2))

    def test_correlated_case_hand_value(self):
        g = ChainGraph(2, undirected={(0, 1)})
        params = SemParameters(g, np.zeros((2, 2)), np.array([[4.0, 2.0], [2.0, 9.0]]))
        rescaled = rescale_equal_variances(params, 1.0).sigma
        assert np.allclose(rescaled, np.array([[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]]))

    def test_diag_exact_and_idempotent(self, six_node_graph):
        params = random_parameters(six_node_graph, seed=3)
        once = rescale_equal_variances(params, 2.5)
        assert np.all(np.diag(once.sigma) == 2.5)
        twice = rescale_equal_variances(once, 2.5)
        assert np.allclose(once.sigma, twice.sigma, atol=1e-12)

    def test_beta_unchanged(self, six_node_graph):
        params = random_parameters(six_node_graph, seed=3)
        assert np.array_equal(rescale_equal_variances(params, 1.0).beta, params.beta)

    def test_pattern_preserved_over_draws(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            g = random_chain_graph(5, 0.5, 0.6, seed=trial)
            params = random_parameters(g, seed=trial + 1)
            sigma2 = float(rng.uniform(0.2, 3.0))
            rescaled = rescale_equal_variances(params, sigma2)
            before = np.abs(np.linalg.inv(params.sigma)) > 1e-9
            after = np.abs(np.linalg.inv(rescaled.sigma)) > 1e-9
            assert np.array_equal(before, after)
            assert np.linalg.eigvalsh(rescaled.sigma)[0] > 0

    def test_invalid_sigma2(self, six_node_graph):
        with pytest.raises(ValueError):
            rescale_equal_variances(random_parameters(six_node_graph, seed=0), 0.0)


class TestConditioning:
    def test_hand_value(self):
        dist = GaussianDistribution(np.zeros(2), np.array([[2.0, 1.0], [1.0, 2.0]]))
        out = condition(dist, {1}, [3.0])
        assert np.allclose(out.cov, [[1.5]])
        assert np.allclose(out.mean, [1.5])  # gain 1/2 times value 3

    def test_block_diagonal_unaffected(self):
        cov = np.block([[np.eye(2) * 2.0, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        dist = GaussianDistribution(np.zeros(4), cov)
        out = condition(dist, {2, 3}, [1.0, -1.0])
        assert np.allclose(out.cov, np.eye(2) * 2.0)
        assert np.allclose(out.mean, 0.0)

    def test_trivial_partitions_rejected(self):
        dist = GaussianDistribution(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            condition(dist, set(), [])
        with pytest.raises(ValueError):
            condition(dist, {0, 1}, [0.0, 0.0])

    def test_variances_never_increase_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = rng.integers(2, 7)
            a = rng.normal(size=(m, m))
            cov = a @ a.T + np.eye(m) * 0.5
            dist = GaussianDistribution(np.zeros(m), cov)
            k = int(rng.integers(1, m))
            b = rng.choice(m, size=k, replace=False)
            out = condition(dist, set(int(x) for x in b), rng.normal(size=k))
            kept = [x for x in range(m) if x not in set(int(v) for v in b)]
            for local, original in enumerate(kept):
                assert out.cov[local, local] <= cov[original, original] + 1e-12


class TestSampling:
    def test_deterministic(self):
        dist = GaussianDistribution(np.zeros(3), np.eye(3))
        a = sample(dist, 50, seed=3)
        b = sample(dist, 50, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_single_row(self):
        dist = GaussianDistribution(np.zeros(2), np.eye(2))
        assert sample(dist, 1, seed=0).values.shape == (1, 2)

    def test_empirical_covariance_converges(self):
        dist = GaussianDistribution(np.zeros(3), np.eye(3))
        data = sample(dist, 100_000, seed=1)
        empirical = data.values.T @ data.values / data.n
        assert np.max(np.abs(empirical - np.eye(3))) < 0.05

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample(GaussianDistribution(np.zeros(2), np.eye(2)), 0, seed=0)


class TestGaussianCi:
    def test_identity_always_independent(self):
        cov = np.eye(4)
        assert gaussian_ci(cov, 0, 1)
        assert gaussian_ci(cov, 0, 3, {1, 2})

    def test_correlated_pair(self):
        assert not gaussian_ci(np.array([[2.0, 1.0], [1.0, 2.0]]), 0, 1)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            gaussian_ci(np.eye(3), 0, 1, {1})

    def test_negative_query_node_rejected(self):
        with pytest.raises(ValueError, match="node -1 is out of range"):
            gaussian_ci(np.eye(3), -1, 0)

    def test_negative_conditioning_node_rejected(self):
        with pytest.raises(ValueError, match="node -1 is out of range"):
            gaussian_ci(np.eye(3), 0, 1, {-1})

    def test_query_node_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="node 3 is out of range"):
            gaussian_ci(np.eye(3), 3, 0)

    def test_conditional_independence_in_chain(self):
        g = ChainGraph(3, directed={(0, 1), (1, 2)})
        beta = np.zeros((3, 3))
        beta[1, 0] = 0.9
        beta[2, 1] = -0.7
        cov = implied_distribution(SemParameters(g, beta, np.eye(3))).cov
        assert gaussian_ci(cov, 0, 2, {1})
        assert not gaussian_ci(cov, 0, 2)


class TestPartialCorrelationTable:
    @staticmethod
    def _inputs(p: int):
        rng = np.random.default_rng(p)
        for _ in range(3):
            a = rng.standard_normal((p, p))
            yield a @ a.T + 0.1 * np.eye(p)
        g = random_chain_graph(p, 0.5, 0.3, seed=p)
        dist = implied_distribution(random_parameters(g, seed=p))
        yield moment_matrix(sample(dist, 50, seed=p), p)[0]  # a sample second moment
        yield 1e-11 * dist.cov  # the scale-free rule: no absolute tolerance anywhere

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_matches_single_queries(self, p):
        for cov in self._inputs(p):
            table = _partial_correlations(cov)
            assert table.shape == (2**p, p, p)
            for j, k, cond in pairwise_queries(p):
                reference = _partial_correlation(cov, j, k, cond)
                assert abs(table[_mask(cond), j, k] - reference) < 1e-12
                assert table[_mask(cond), k, j] == table[_mask(cond), j, k]

    def test_conditioned_nodes_read_nan(self):
        a = np.random.default_rng(1).standard_normal((4, 4))
        table = _partial_correlations(a @ a.T + np.eye(4))
        for mask in range(16):
            for j, k in itertools.product(range(4), repeat=2):
                conditioned = (mask >> j) & 1 or (mask >> k) & 1
                assert np.isnan(table[mask, j, k]) == bool(conditioned)


class TestIndependenceTable:
    @staticmethod
    def _decision(table, n, j, k, cond) -> bool:
        # one query at a time: |r| < 1e-8 on a covariance, a two-sided
        # Fisher-z test at level 0.01 on n samples
        r = float(table[_mask(cond), j, k])
        if n is None:
            return abs(r) < 1e-8
        r = max(-0.999999, min(0.999999, r))
        z = 0.5 * math.log((1.0 + r) / (1.0 - r))
        dof = n - len(cond) - 3
        if dof <= 0:
            return True
        return math.sqrt(dof) * abs(z) <= float(stats.norm.ppf(1.0 - 0.01 / 2.0))

    @staticmethod
    def _inputs(p: int):
        rng = np.random.default_rng(10 + p)
        a = rng.standard_normal((p, p))
        yield a @ a.T + 0.1 * np.eye(p), None
        g = random_chain_graph(p, 0.5, 0.3, seed=p)
        dist = implied_distribution(random_parameters(g, seed=p))
        yield dist.cov, None  # exact zeros wherever g separates
        yield 1e-11 * dist.cov, None
        for n in (5, 50, 500):
            if n >= p:
                yield moment_matrix(sample(dist, n, seed=[p, n]), p)[0], n

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_matches_single_queries(self, p):
        for s, n in self._inputs(p):
            got = _independences(s, n)
            table = _partial_correlations(s)
            assert got.shape == (2**p, p, p) and got.dtype == bool
            for j, k, cond in pairwise_queries(p):
                want = self._decision(table, n, j, k, cond)
                assert got[_mask(cond), j, k] == got[_mask(cond), k, j] == want, (n, j, k, cond)

    def test_too_few_samples_read_independent(self):
        # n=5 leaves n - |C| - 3 <= 0 degrees of freedom once |C| >= 2
        chain = ChainGraph(4, directed={(0, 1), (1, 2), (2, 3)})
        dist = implied_distribution(random_parameters(chain, seed=1))
        s = moment_matrix(sample(dist, 5, seed=2), 4)[0]
        got = _independences(s, 5)
        assert got[_mask((2, 3)), 0, 1] and got[_mask((0, 1)), 2, 3]
        assert not _independences(dist.cov)[_mask((2, 3)), 0, 1]
