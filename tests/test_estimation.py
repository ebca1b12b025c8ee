from __future__ import annotations

import math

import numpy as np
import pytest

from ampcg import (
    ChainGraph,
    Dataset,
    EqualVarianceScorer,
    SemParameters,
    chain_components,
    estimation,
    fit,
    fit_component,
    gaussian_average_loglik,
    implied_distribution,
    ipf,
    moment_matrix,
    penalized_score,
    random_parameters,
    rescale_equal_variances,
    sample,
)

from .oracles import enumerate_chain_graphs, ggm_mle_numeric, sem_equal_variance_mle_numeric


def _random_pd(rng, m):
    a = rng.normal(size=(m, m))
    return a @ a.T + np.eye(m) * (0.5 + rng.uniform())


class TestMomentMatrix:
    def test_non_finite_covariance_rejected(self):
        cov = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            moment_matrix(cov, 2)

    def test_collinear_column_named(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(200, 3))
        values[:, 2] = values[:, 0] + values[:, 1]
        data = Dataset(values, labels=("a", "b", "c"))
        with pytest.raises(ValueError, match="column c is a linear combination"):
            moment_matrix(data, 3)

    def test_constant_column_named(self):
        values = np.random.default_rng(3).normal(size=(50, 3))
        values[:, 1] = 2.5
        with pytest.raises(ValueError, match="column X2 is constant"):
            moment_matrix(Dataset(values), 3)

    def test_singular_covariance_names_node(self):
        cov = np.array([[1.0, 0.5, 1.5], [0.5, 1.0, 1.5], [1.5, 1.5, 3.0]])
        with pytest.raises(ValueError, match="node 2 is a linear combination"):
            moment_matrix(cov, 3)


class TestScaleFree:
    """A common change of units rescales the moments by c**2 and nothing else."""

    def test_fit_on_rescaled_dataset(self):
        g = ChainGraph(4, directed={(0, 1), (1, 2)}, undirected={(2, 3)})
        params = rescale_equal_variances(random_parameters(g, seed=3), 1.0)
        data = sample(implied_distribution(params), 500, seed=1)
        tiny = Dataset(data.values * 1e-6)
        # one-edge components whose rows have parents on one side, and shared plus own parents
        for h in (g, ChainGraph(4, directed={(0, 2), (0, 3), (1, 3)}, undirected={(2, 3)})):
            for equal_variances in (False, True):
                ref = fit(data, h, equal_variances=equal_variances)
                scaled = fit(tiny, h, equal_variances=equal_variances)
                assert scaled.dispersion == pytest.approx(ref.dispersion, rel=1e-9, abs=1e-12)
                assert scaled.loglik == pytest.approx(ref.loglik + h.p * math.log(1e6), rel=1e-12)
                assert np.allclose(scaled.params.beta, ref.params.beta, rtol=1e-9, atol=1e-12)
                assert np.allclose(scaled.params.sigma * 1e12, ref.params.sigma, rtol=1e-9, atol=1e-12)
            assert scaled.iterations == ref.iterations == 0


class TestIpf:
    def test_complete_pattern_returns_input(self):
        s = np.array([[2.0, 1.0, 0.4], [1.0, 2.0, 0.6], [0.4, 0.6, 1.5]])
        res = ipf(s, [(0, 1), (0, 2), (1, 2)])
        assert res.converged
        assert np.allclose(res.sigma, s, atol=1e-12)

    def test_empty_pattern_returns_diagonal(self):
        s = np.array([[2.0, 1.0], [1.0, 3.0]])
        res = ipf(s, [])
        assert np.allclose(res.sigma, np.diag([2.0, 3.0]), atol=1e-12)

    def test_non_pd_input_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            ipf(np.array([[1.0, 2.0], [2.0, 1.0]]), [(0, 1)])

    def test_chain_pattern_against_numeric_oracle(self):
        rng = np.random.default_rng(3)
        s = _random_pd(rng, 3)
        pattern = [(0, 1), (1, 2)]
        res = ipf(s, pattern)
        assert res.converged
        assert np.max(np.abs(res.sigma - ggm_mle_numeric(s, pattern))) < 1e-6

    def test_pattern_zeros_and_marginals(self):
        rng = np.random.default_rng(5)
        s = _random_pd(rng, 4)
        pattern = [(0, 1), (1, 2), (2, 3)]
        res = ipf(s, pattern)
        conc = np.linalg.inv(res.sigma)
        for j in range(4):
            for k in range(j + 1, 4):
                if (j, k) not in pattern:
                    assert abs(conc[j, k]) < 1e-8
        for a, b in pattern:
            block = np.ix_([a, b], [a, b])
            assert np.allclose(res.sigma[block], s[block], atol=1e-7)

    def test_stationarity_of_fixed_point(self):
        # gradient of the restricted log-likelihood vanishes at the fit
        rng = np.random.default_rng(11)
        s = _random_pd(rng, 5)
        pattern = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        res = ipf(s, pattern)
        grad = s - res.sigma  # derivative of -logdet K + tr(K S) wrt free K entries
        for j in range(5):
            assert abs(grad[j, j]) < 1e-6
        for a, b in pattern:
            assert abs(grad[a, b]) < 1e-6


class TestFitComponent:
    def test_singleton_without_parents(self):
        g = ChainGraph(2, directed={(0, 1)})
        cov = np.array([[1.5, 0.6], [0.6, 2.0]])
        piece = fit_component(cov, g, {0})
        assert piece.beta.shape == (1, 0)
        assert np.allclose(piece.sigma, [[1.5]])

    def test_population_roundtrip_recovers_block(self, six_node_graph):
        params = random_parameters(six_node_graph, seed=8)
        cov = implied_distribution(params).cov
        piece = fit_component(cov, six_node_graph, {2, 3})
        assert piece.nodes == (2, 3) and piece.predictors == (0, 1)
        expected_beta = params.beta[np.ix_([2, 3], [0, 1])]
        assert np.max(np.abs(piece.beta - expected_beta)) < 1e-6
        assert np.max(np.abs(piece.sigma - params.sigma[np.ix_([2, 3], [2, 3])])) < 1e-6
        conc = np.linalg.inv(piece.sigma)
        assert abs(conc[0, 1]) > 1e-3  # undirected edge keeps residual coupling

    def test_not_a_component_rejected(self, six_node_graph):
        with pytest.raises(ValueError):
            fit_component(np.eye(6), six_node_graph, {2})

    def test_fit_validates_input_once(self, six_node_graph, monkeypatch):
        calls = []
        original = estimation.moment_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "moment_matrix", counting)
        params = random_parameters(six_node_graph, seed=8)
        fit(implied_distribution(params).cov, six_node_graph)
        assert len(calls) == 1

    def test_rank_error_with_tiny_dataset(self, six_node_graph):
        data = Dataset(np.zeros((1, 6)) + np.arange(6))
        with pytest.raises(ValueError):
            fit_component(data, six_node_graph, {2, 3})


class TestFit:
    def test_population_roundtrip_full(self, six_node_graph):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=2), 1.0)
        cov = implied_distribution(params).cov
        result = fit(cov, six_node_graph)
        assert result.converged
        fitted_cov = implied_distribution(result.params).cov
        assert np.max(np.abs(fitted_cov - cov)) < 1e-6
        assert result.dispersion < 1e-6
        # entropy-implied maximum
        assert abs(result.loglik - gaussian_average_loglik(cov, cov)) < 1e-9

    def test_wrong_member_hand_values(self):
        cov = np.array([[1.0, 1.0], [1.0, 2.0]])
        rev = fit(cov, ChainGraph(2, directed={(1, 0)}))
        assert np.allclose(rev.error_variances, [0.5, 2.0], atol=1e-9)
        assert abs(rev.dispersion - math.log(4.0)) < 1e-9
        und = fit(cov, ChainGraph(2, undirected={(0, 1)}))
        assert abs(und.dispersion - math.log(2.0)) < 1e-9

    def test_dag_is_closed_form_without_ipf(self, monkeypatch):
        def no_ipf(*args, **kwargs):
            raise AssertionError("a singleton component needs no IPF")

        monkeypatch.setattr(estimation, "ipf", no_ipf)
        g = ChainGraph(4, directed={(0, 1), (0, 2), (1, 3), (2, 3)})
        params = random_parameters(g, seed=12)
        data = sample(implied_distribution(params), 3000, seed=13)
        result = fit(data, g)
        assert result.converged and result.iterations == 0
        for node in range(4):
            parents = sorted(parent for parent, child in g.directed if child == node)
            target = data.values[:, node]
            if parents:
                design = data.values[:, parents]
                coef, *_ = np.linalg.lstsq(design, target, rcond=None)
                assert np.max(np.abs(result.params.beta[node, parents] - coef)) < 1e-12
                target = target - design @ coef
            assert abs(result.params.sigma[node, node] - float(target @ target) / data.n) < 1e-12

    def test_empty_graph_on_independent_data(self):
        cov = np.diag([1.0, 2.0, 3.0])
        result = fit(cov, ChainGraph(3))
        assert np.allclose(result.params.sigma, cov)
        assert np.all(result.params.beta == 0)

    def test_dataset_input_consistency(self, six_node_graph):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=6), 1.0)
        dist = implied_distribution(params)
        data = sample(dist, 50_000, seed=9)
        result = fit(data, six_node_graph)
        assert result.converged
        assert np.max(np.abs(result.params.beta - params.beta)) < 0.05

    def test_population_roundtrip_random_graphs(self):
        from hypothesis import given, settings
        from .conftest import chain_graphs
        from hypothesis import strategies as st

        @settings(max_examples=30, deadline=None)
        @given(chain_graphs(min_p=2, max_p=4), st.integers(0, 1000))
        def run(g, seed):
            params = random_parameters(g, seed=seed)
            cov = implied_distribution(params).cov
            result = fit(cov, g)
            assert result.converged
            assert np.max(np.abs(implied_distribution(result.params).cov - cov)) < 1e-6

        run()

    def test_dispersion_scale_invariant(self, six_node_graph):
        params = random_parameters(six_node_graph, seed=13)
        cov = implied_distribution(params).cov
        wrong = ChainGraph(6, directed={(1, 0), (0, 2), (0, 3), (1, 3), (2, 4), (3, 5)},
                           undirected={(2, 3), (4, 5)})
        d1 = fit(cov, wrong).dispersion
        d2 = fit(cov * 7.3, wrong).dispersion
        assert abs(d1 - d2) < 1e-7


def _equal_variance_oracle(cov, g):
    return sem_equal_variance_mle_numeric(
        cov,
        parent_pairs=sorted((child, parent) for parent, child in g.directed),
        component_blocks=[sorted(comp) for comp in chain_components(g)],
        undirected_pairs=sorted(g.undirected),
    )


class TestEqualVarianceFit:
    def test_matches_constrained_numeric_oracle_two_nodes(self):
        cov = np.array([[1.0, 1.0], [1.0, 2.0]])
        ours = fit(cov, ChainGraph(2, directed={(1, 0)}), equal_variances=True)
        oracle = sem_equal_variance_mle_numeric(
            cov, parent_pairs=[(0, 1)], component_blocks=[[0], [1]], undirected_pairs=[]
        )
        assert abs(ours.loglik - oracle) < 1e-8
        assert ours.dispersion == 0.0

    def test_close_to_constrained_numeric_oracle_three_nodes(self):
        g_true = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        params = rescale_equal_variances(random_parameters(g_true, seed=17), 1.0)
        cov = implied_distribution(params).cov
        hypothesis = ChainGraph(3, directed={(1, 0)}, undirected={(1, 2)})
        ours = fit(cov, hypothesis, equal_variances=True)
        oracle = sem_equal_variance_mle_numeric(
            cov,
            parent_pairs=[(0, 1)],
            component_blocks=[[0], [1, 2]],
            undirected_pairs=[(1, 2)],
        )
        assert ours.converged
        assert abs(ours.loglik - oracle) < 1e-8
        assert ours.dispersion == 0.0
        true_fit = fit(cov, g_true, equal_variances=True)
        assert true_fit.loglik > ours.loglik + 0.01
        # two multi-node components, the second with parents in the first
        g4 = ChainGraph(4, directed={(0, 2), (1, 2), (1, 3)}, undirected={(0, 1), (2, 3)})
        cov4 = _random_pd(np.random.default_rng(41), 4)
        ours4 = fit(cov4, g4, equal_variances=True)
        assert ours4.converged
        assert abs(ours4.loglik - _equal_variance_oracle(cov4, g4)) < 1e-8
        assert ours4.dispersion == 0.0

    def test_dag_is_closed_form_least_squares(self, monkeypatch):
        def no_optimizer(*args, **kwargs):
            raise AssertionError("a DAG needs no numeric optimization")

        monkeypatch.setattr(estimation.optimize, "minimize", no_optimizer)
        g = ChainGraph(4, directed={(0, 1), (0, 2), (1, 3), (2, 3)})
        params = rescale_equal_variances(random_parameters(g, seed=12), 1.0)
        data = sample(implied_distribution(params), 3000, seed=13)
        result = fit(data, g, equal_variances=True)
        rss = []
        for node in range(4):
            parents = sorted(parent for parent, child in g.directed if child == node)
            target = data.values[:, node]
            if parents:
                design = data.values[:, parents]
                coef, *_ = np.linalg.lstsq(design, target, rcond=None)
                target = target - design @ coef
            rss.append(float(target @ target) / data.n)
        assert np.allclose(result.error_variances, np.mean(rss), rtol=1e-12, atol=0)
        assert result.dispersion == 0
        assert result.converged and result.iterations == 0

    def test_undirected_edges_take_one_optimizer_call(self, monkeypatch):
        calls = []
        original = estimation.optimize.minimize

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation.optimize, "minimize", counting)
        g = ChainGraph(5, directed={(0, 2), (1, 3)}, undirected={(0, 1), (2, 3), (3, 4)})
        cov = _random_pd(np.random.default_rng(43), 5)
        result = fit(cov, g, equal_variances=True)
        assert len(calls) == 1
        assert result.converged
        assert abs(result.loglik - _equal_variance_oracle(cov, g)) < 1e-8
        conc = np.linalg.inv(result.params.sigma[np.ix_([2, 3, 4], [2, 3, 4])])
        assert abs(conc[0, 2]) < 1e-10  # 2 and 4 are not adjacent

    def test_stationary_start_reaches_oracle(self):
        # Zero residual cross-moment on the edge: Omega = I is a stationary maximum of the objective.
        cov = np.diag([10.0, 10.0, 0.1, 0.1])
        g = ChainGraph(4, undirected={(2, 3)})
        result = fit(cov, g, equal_variances=True)
        oracle = _equal_variance_oracle(cov, g)
        assert result.converged and result.iterations == 0
        assert abs(result.loglik - oracle) < 1e-8
        loglik, converged = EqualVarianceScorer(cov, 4).loglik(g)
        assert converged and abs(loglik - result.loglik) < 1e-12

    @pytest.mark.parametrize(
        "directed",
        [
            {(0, 2), (0, 3), (1, 2), (1, 3)},  # same parents: GLS is least squares
            {(0, 2), (1, 2), (1, 3), (4, 3)},  # different parents, one shared
            {(0, 2), (1, 2)},  # parents on one side only
        ],
    )
    def test_one_edge_matches_oracle(self, directed):
        g = ChainGraph(5, directed=directed, undirected={(2, 3)})
        cov = _random_pd(np.random.default_rng(len(directed)), 5)
        result = fit(cov, g, equal_variances=True)
        assert result.converged and result.iterations == 0
        assert abs(result.loglik - _equal_variance_oracle(cov, g)) < 1e-8
        assert result.dispersion < 1e-12

    def test_one_edge_strong_correlation_matches_oracle(self):
        g = ChainGraph(4, directed={(0, 2), (1, 3)}, undirected={(2, 3)})
        beta = np.zeros((4, 4))
        beta[2, 0], beta[3, 1] = 1.0, 0.5
        sigma = np.eye(4)
        sigma[2, 3] = sigma[3, 2] = 0.97
        data = sample(implied_distribution(SemParameters(graph=g, beta=beta, sigma=sigma)), 500, seed=5)
        result = fit(data, g, equal_variances=True)
        block = result.params.sigma[np.ix_([2, 3], [2, 3])]
        assert abs(block[0, 1]) / block[0, 0] > 0.95
        assert result.converged and result.iterations == 0
        assert abs(result.loglik - _equal_variance_oracle(moment_matrix(data, 4)[0], g)) < 1e-8

    def test_true_graph_reaches_entropy_bound(self):
        g = ChainGraph(2, directed={(0, 1)})
        cov = np.array([[1.0, 1.0], [1.0, 2.0]])
        result = fit(cov, g, equal_variances=True)
        assert abs(result.loglik - gaussian_average_loglik(cov, cov)) < 1e-8
        assert result.dispersion < 1e-6


class TestEqualVarianceScorer:
    @staticmethod
    def _assert_matches_penalized_score(data_or_cov, graphs, n_eff):
        scorer = EqualVarianceScorer(data_or_cov, graphs[0].p)
        for g in graphs:
            ours = scorer.score(g, n_eff)
            reference = penalized_score(data_or_cov, g, n_eff=n_eff, equal_variances=True)
            assert abs(ours - reference) <= 1e-9 * abs(reference), g

    def test_matches_penalized_score_on_every_three_node_graph(self):
        g_true = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        params = rescale_equal_variances(random_parameters(g_true, seed=19), 1.0)
        data = sample(implied_distribution(params), 500, seed=20)
        graphs = list(enumerate_chain_graphs(3))
        self._assert_matches_penalized_score(data, graphs, data.n)
        self._assert_matches_penalized_score(_random_pd(np.random.default_rng(21), 3), graphs, 1e4)

    def test_matches_penalized_score_on_four_node_sample(self):
        rng = np.random.default_rng(22)
        graphs = list(enumerate_chain_graphs(4))
        picked = [graphs[i] for i in rng.choice(len(graphs), size=60, replace=False)]
        assert any(len(comp) > 1 for g in picked for comp in chain_components(g))
        values = rng.normal(size=(800, 4)) @ rng.normal(size=(4, 4))
        self._assert_matches_penalized_score(Dataset(values), picked, 800)

    def test_loglik_and_convergence_match_fit(self):
        g = ChainGraph(5, directed={(0, 2), (1, 3)}, undirected={(0, 1), (2, 3), (3, 4)})
        cov = _random_pd(np.random.default_rng(43), 5)
        loglik, converged = EqualVarianceScorer(cov, 5).loglik(g)
        reference = fit(cov, g, equal_variances=True)
        assert abs(loglik - reference.loglik) < 1e-9
        assert converged == reference.converged

    def test_dag_needs_no_optimizer(self, monkeypatch):
        def no_optimizer(*args, **kwargs):
            raise AssertionError("a DAG needs no numeric optimization")

        monkeypatch.setattr(estimation.optimize, "minimize", no_optimizer)
        scorer = EqualVarianceScorer(_random_pd(np.random.default_rng(44), 4), 4)
        for g in enumerate_chain_graphs(4):
            if not g.undirected:
                assert scorer.loglik(g)[1]

    def test_one_edge_needs_no_optimizer(self, monkeypatch):
        def no_optimizer(*args, **kwargs):
            raise AssertionError("a single two-node component with one edge is solved in closed form")

        monkeypatch.setattr(estimation.optimize, "minimize", no_optimizer)
        cov = _random_pd(np.random.default_rng(45), 4)
        scorer = EqualVarianceScorer(cov, 4)
        graphs = [
            g for g in enumerate_chain_graphs(4) if [len(comp) for comp in chain_components(g) if len(comp) > 1] == [2]
        ]
        assert graphs
        for g in graphs:
            loglik, converged = scorer.loglik(g)
            result = fit(cov, g, equal_variances=True)
            assert converged and result.converged and result.iterations == 0
            assert abs(loglik - result.loglik) < 1e-9

    def test_graph_size_must_match_input(self):
        with pytest.raises(ValueError, match="graph has 2 nodes"):
            EqualVarianceScorer(np.eye(3), 3).loglik(ChainGraph(2))


class TestPenalizedScore:
    def test_requires_n_eff_for_covariance(self):
        with pytest.raises(ValueError):
            penalized_score(np.eye(2), ChainGraph(2))

    def test_supergraph_never_lowers_loglik_but_penalty_orders(self, six_node_graph):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=1), 1.0)
        cov = implied_distribution(params).cov
        sub = ChainGraph(6, directed=six_node_graph.directed - {(0, 1)},
                         undirected=six_node_graph.undirected)
        loglik_sub = fit(cov, sub).loglik
        loglik_true = fit(cov, six_node_graph).loglik
        assert loglik_true >= loglik_sub - 1e-12
        n_eff = 1e5
        assert penalized_score(cov, six_node_graph, n_eff=n_eff) > penalized_score(cov, sub, n_eff=n_eff)

    def test_true_beats_empty(self, six_node_graph):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=1), 1.0)
        cov = implied_distribution(params).cov
        n_eff = 1e5
        assert penalized_score(cov, six_node_graph, n_eff=n_eff) > penalized_score(
            cov, ChainGraph(6), n_eff=n_eff
        )

    def test_relabeling_symmetry(self):
        g = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        params = random_parameters(g, seed=23)
        cov = implied_distribution(params).cov
        perm = [2, 0, 1]  # new index of old node j is perm[j]
        relabeled = ChainGraph(
            3,
            directed={(perm[a], perm[b]) for a, b in g.directed},
            undirected={(perm[a], perm[b]) for a, b in g.undirected},
        )
        inverse = np.argsort(perm)
        cov_relabeled = cov[np.ix_(inverse, inverse)]
        a = penalized_score(cov, g, n_eff=1e4)
        b = penalized_score(cov_relabeled, relabeled, n_eff=1e4)
        assert abs(a - b) < 1e-9

    def test_dataset_uses_own_n(self):
        g = ChainGraph(2, directed={(0, 1)})
        params = random_parameters(g, seed=2)
        data = sample(implied_distribution(params), 500, seed=3)
        assert isinstance(penalized_score(data, g), float)


class TestIdentityWeightingIsOls:
    def test_single_target_component_matches_lstsq(self):
        g = ChainGraph(3, directed={(0, 2), (1, 2)})
        params = random_parameters(g, seed=29)
        data = sample(implied_distribution(params), 4000, seed=30)
        piece = fit_component(data, g, {2})
        design = data.values[:, [0, 1]]
        target = data.values[:, 2]
        expected, *_ = np.linalg.lstsq(design, target, rcond=None)
        # singleton component: the weighting matrix is scalar, so every
        # round reduces to ordinary least squares
        assert np.max(np.abs(piece.beta.ravel() - expected)) < 1e-9
