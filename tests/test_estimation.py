from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyfromroots, polyroots

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
    graphs,
    identify_in_class,
    implied_distribution,
    ipf,
    moment_matrix,
    penalized_score,
    random_chain_graph,
    random_parameters,
    rescale_equal_variances,
    sample,
    sem,
)

from .conftest import chain_graphs, near_collinear_input
from .oracles import (
    enumerate_chain_graphs,
    equal_variance_bic,
    ggm_mle_numeric,
    one_edge_equal_variance_numeric,
    one_edge_record_numeric,
    one_edge_series_correlation,
    sem_equal_variance_mle_numeric,
    saturated_bound,
    tree_equal_variance_numeric,
)


_CYCLIC = ChainGraph(3, directed={(0, 1), (2, 0)}, undirected={(1, 2)})
_CYCLE_NAMED = "^not a chain graph; semidirected cycle: X1 -> X2 - X3 -> X1$"


def _noise(n=200, p=3):
    return Dataset(np.random.default_rng(0).normal(size=(n, p)))


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

    def test_first_of_several_constant_columns_named(self):
        values = np.random.default_rng(3).normal(size=(50, 4))
        values[:, 3] = 0.0
        values[:, 1] = values[0, 1]
        values[1:, 0] = 7.0  # constant but for its first row
        for layout in (values, np.asfortranarray(values)):
            with pytest.raises(ValueError, match="^column X2 is constant$"):
                moment_matrix(Dataset(layout), 4)
            with pytest.raises(ValueError, match="^column wet is constant$"):
                moment_matrix(Dataset(layout, labels=("rain", "wet", "mud", "sun")), 4)

    def test_fewer_rows_than_columns_names_first_dependent_column(self):
        # X5 fails the factorization; X4 already has a squared pivot of 1.5e-16 of its variance
        with pytest.raises(ValueError, match="column X4 is a linear combination"):
            moment_matrix(Dataset(np.random.default_rng(0).normal(size=(3, 5))), 5)

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


# A well-conditioned correlation matrix (smallest eigenvalue 0.037) and a cyclic pattern on which
# IPF's rounding once grew by about 1.6x per sweep after convergence.
_CYCLIC_R = np.array([
    [1, 0.313, 0.154, -0.495, 0.766, 0.445],
    [0.313, 1, 0.07, -0.898, 0.155, 0.877],
    [0.154, 0.07, 1, 0.009, -0.327, 0.023],
    [-0.495, -0.898, 0.009, 1, -0.449, -0.884],
    [0.766, 0.155, -0.327, -0.449, 1, 0.384],
    [0.445, 0.877, 0.023, -0.884, 0.384, 1],
])
_CYCLIC_PATTERN = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)]


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

    def test_pattern_outside_the_nodes_rejected(self):
        with pytest.raises(ValueError, match="distinct nodes among 0..1"):
            ipf(np.eye(2), [(0, 2)])

    def test_non_pd_input_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            ipf(np.array([[1.0, 2.0], [2.0, 1.0]]), [(0, 1)])

    def test_rank_deficient_input_names_the_node(self):
        # positive eigenvalues, but node 1 given node 0 keeps a 1e-12 share of its variance
        s = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        with pytest.raises(ValueError, match="node 1 is a linear combination"):
            moment_matrix(s, 2)
        with pytest.raises(np.linalg.LinAlgError, match="node 1 is a linear combination"):
            ipf(s, [(0, 1)])

    def test_non_finite_input_named(self):
        with pytest.raises(ValueError, match="ipf input has non-finite entries"):
            ipf(np.array([[1.0, np.nan], [np.nan, 1.0]]), [(0, 1)])

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

    def test_converged_fit_stays_positive_definite(self):
        # resetting each clique block to its Schur form compounds rounding sweep after sweep on this
        # well-conditioned input, until the fit is no longer positive definite
        assert np.linalg.eigvalsh(_CYCLIC_R)[0] > 0.03
        res = ipf(_CYCLIC_R, _CYCLIC_PATTERN)
        assert res.converged
        assert np.linalg.eigvalsh(res.sigma)[0] > 0
        fitted = _CYCLIC_PATTERN + [(j, j) for j in range(6)]
        assert max(abs(res.sigma[a, b] - _CYCLIC_R[a, b]) for a, b in fitted) < 1e-8

    def test_scale_equivariant(self):
        # the loop runs on the correlation scale, so units spanning seven decades change nothing
        d = np.array([4.0e7, 390, 640, 1.2e8, 1.2e6, 46.5])
        scaled = ipf(_CYCLIC_R * np.outer(d, d), _CYCLIC_PATTERN)
        res = ipf(_CYCLIC_R, _CYCLIC_PATTERN)
        assert scaled.converged and res.converged
        assert np.allclose(scaled.sigma, res.sigma * np.outer(d, d), rtol=1e-12, atol=0)

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
    def test_semidirected_cycle_rejected(self):
        with pytest.raises(ValueError, match=_CYCLE_NAMED):
            fit_component(_noise(), _CYCLIC, {0})

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
    @pytest.mark.parametrize("equal_variances", [False, True])
    def test_semidirected_cycle_rejected_before_the_input_is_read(self, equal_variances):
        for data_or_cov in (_noise(), np.eye(2)):  # a 2x2 covariance would fail the shape check
            with pytest.raises(ValueError, match=_CYCLE_NAMED):
                fit(data_or_cov, _CYCLIC, equal_variances=equal_variances)

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

    def test_cov_is_the_implied_covariance_of_the_params(self, six_node_graph):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=2), 1.0)
        data = sample(implied_distribution(params), 300, seed=3)
        for equal_variances in (False, True):
            result = fit(data, six_node_graph, equal_variances=equal_variances)
            assert np.array_equal(result.cov, implied_distribution(result.params).cov)
            assert result.loglik == gaussian_average_loglik(result.cov, moment_matrix(data, 6)[0])

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

        monkeypatch.setattr(estimation, "_alternating_fit", no_ipf)
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
        @settings(max_examples=30, deadline=None)
        @given(chain_graphs(min_p=2, max_p=4), st.integers(0, 1000))
        def run(g, seed):
            params = random_parameters(g, seed=seed)
            cov = implied_distribution(params).cov
            result = fit(cov, g)
            assert result.converged
            assert np.max(np.abs(implied_distribution(result.params).cov - cov)) < 1e-6

        run()

    def test_slow_small_sample_fit_converges(self):
        # five rows for three nodes: the GLS/IPF rounds creep, and 200 rounds do not reach the tolerance
        g = ChainGraph(3, directed={(1, 0)}, undirected={(0, 2)})
        data = Dataset(np.random.default_rng(6801).normal(size=(5, 3)))
        result = fit(data, g)
        assert result.converged
        s = moment_matrix(data, 3)[0]
        step = 1e-6
        for j, k in [(0, 1), (0, 0), (1, 1), (2, 2), (0, 2)]:  # the free coefficient, then the free covariances
            sides = []
            for sign in (1.0, -1.0):
                beta, sigma = result.params.beta.copy(), result.params.sigma.copy()
                if (j, k) == (0, 1):
                    beta[j, k] += sign * step
                else:
                    sigma[j, k] += sign * step
                    sigma[k, j] = sigma[j, k]
                a = np.linalg.inv(np.eye(3) - beta)
                sides.append(gaussian_average_loglik(a @ sigma @ a.T, s))
            assert abs(sides[0] - sides[1]) / (2.0 * step) < 1e-6

    def test_dispersion_scale_invariant(self, six_node_graph):
        params = random_parameters(six_node_graph, seed=13)
        cov = implied_distribution(params).cov
        wrong = ChainGraph(6, directed={(1, 0), (0, 2), (0, 3), (1, 3), (2, 4), (3, 5)},
                           undirected={(2, 3), (4, 5)})
        d1 = fit(cov, wrong).dispersion
        d2 = fit(cov * 7.3, wrong).dispersion
        assert abs(d1 - d2) < 1e-7


class TestValidatedOnce:
    """Values the library builds from checked input are not checked again; public constructors keep every check."""

    def test_near_collinear_fit_completes(self):
        # cond(sigma) is about 1.6e9: inverting the fitted sigma once more read an off-pattern
        # partial correlation above 1e-8, and the fit raised on its own output
        g, data = near_collinear_input(87)
        result = fit(data, g)
        assert result.converged and math.isfinite(result.loglik)

    def test_singular_fit_raises_naming_the_node(self):
        rng = np.random.default_rng(949)
        rng.integers(2, 7)
        x = rng.normal(size=(50, 3))
        k = rng.integers(3, 7)
        x[:, 2] = x[:, 0] + 10.0**-k * rng.normal(size=50)
        g = ChainGraph(3, undirected={(0, 1), (0, 2), (1, 2)})
        # the implied covariance's check: sigma is positive definite exactly when it is
        with pytest.raises(ValueError, match=r"^node 2 is a linear combination of the nodes before it \(cov "):
            fit(Dataset(x), g, equal_variances=True)

    def test_implied_distribution_keeps_its_check(self):
        # valid parameters whose implied covariance fails the scale-free rank test
        params = SemParameters(ChainGraph(2, directed={(0, 1)}), np.array([[0.0, 0.0], [1e6, 0.0]]), np.eye(2))
        with pytest.raises(ValueError, match="cov is not positive definite"):
            implied_distribution(params)

    def test_each_graph_is_checked_once_at_the_boundary(self, six_node_graph, monkeypatch):
        calls = []
        original = graphs.is_chain_graph

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "is_chain_graph", counting)

        def checks(run):
            calls.clear()
            out = run()
            return len(calls), out

        assert checks(lambda: random_parameters(six_node_graph, seed=3))[0] == 1
        count, params = checks(lambda: rescale_equal_variances(random_parameters(six_node_graph, seed=3)))
        assert count == 1  # random_parameters' own
        data = sample(implied_distribution(params), 500, seed=4)
        assert checks(lambda: fit(data, six_node_graph))[0] == 1
        assert checks(lambda: identify_in_class(six_node_graph, data))[0] == 2  # equivalence_class, then fit
        assert checks(lambda: rescale_equal_variances(params, 2.0))[0] == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: fit(_noise(), g),
            lambda g: random_parameters(g),
            lambda g: SemParameters(g, np.zeros((3, 3)), np.eye(3)),
        ],
        ids=["fit", "random_parameters", "SemParameters"],
    )
    def test_a_cyclic_graph_is_rejected_naming_its_cycle(self, build):
        with pytest.raises(ValueError, match=_CYCLE_NAMED):
            build(_CYCLIC)


def _strong_correlation_sample():
    """One edge 2 - 3 whose error correlation is 0.97, with parents 0 -> 2 and 1 -> 3."""
    g = ChainGraph(4, directed={(0, 2), (1, 3)}, undirected={(2, 3)})
    beta = np.zeros((4, 4))
    beta[2, 0], beta[3, 1] = 1.0, 0.5
    sigma = np.eye(4)
    sigma[2, 3] = sigma[3, 2] = 0.97
    return g, sample(implied_distribution(SemParameters(graph=g, beta=beta, sigma=sigma)), 500, seed=5)


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
        def no_descent(*args, **kwargs):
            raise AssertionError("a DAG needs no numeric optimization")

        monkeypatch.setattr(estimation, "_descend", no_descent)
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
        original = estimation._descend

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "_descend", counting)
        g = ChainGraph(5, directed={(0, 2), (1, 3)}, undirected={(0, 1), (2, 3), (3, 4)})
        cov = _random_pd(np.random.default_rng(43), 5)
        result = fit(cov, g, equal_variances=True)
        assert len(calls) == 1
        assert result.converged
        assert abs(result.loglik - _equal_variance_oracle(cov, g)) < 1e-8
        conc = np.linalg.inv(result.params.sigma[np.ix_([2, 3, 4], [2, 3, 4])])
        assert abs(conc[0, 2]) < 1e-10  # 2 and 4 are not adjacent

    def test_descent_halves_back_into_the_feasible_region(self):
        trials = []

        def profile(theta):
            # feasible on |x| < 0.5, minimum at 0.2; the first unit-length step from 0 lands on 1
            trials.append(float(theta[0]))
            if abs(theta[0]) >= 0.5:
                return None
            u = 3.0 * (theta[0] - 0.2)
            return math.cosh(u), np.array([3.0 * math.sinh(u)])

        theta, value, grad, steps, stopped = estimation._descend(profile, np.zeros(1))
        assert trials[1:4] == [1.0, 0.5, 0.25]
        assert stopped and steps > 1
        assert (value, grad.tolist()) == (profile(theta)[0], profile(theta)[1].tolist())  # the end point's own
        assert abs(grad[0]) <= 1e-9
        assert abs(theta[0] - 0.2) < 1e-9

    def test_descent_scales_on_the_first_positive_curvature_step(self):
        trials = []

        def profile(theta):
            # -20 cos x from 2.5: the first unit step, to 1.5, has negative curvature (s.y < 0).
            trials.append(float(theta[0]))
            return -20.0 * math.cos(theta[0]), np.array([20.0 * math.sin(theta[0])])

        theta, _, _, steps, stopped = estimation._descend(profile, np.array([2.5]))
        # An unscaled step of gradient length from 1.5 would try 1.5 - 20 sin 1.5 = -18.45,
        # in the basin of -6 pi. Unit steps hold until the step 1.5 -> 0.5 shows positive curvature.
        assert trials[1:3] == [1.5, 0.5]
        assert all(abs(x) < math.pi for x in trials)
        assert stopped and abs(theta[0]) < 1e-9

    def test_descent_halvings_are_capped(self):
        # A gradient of 1e-6 on a level objective: no trial meets the Armijo condition.
        trials = []

        def flat(theta):
            trials.append(float(theta[0]))
            return 1.0, np.array([1e-6])

        assert estimation._descend(flat, np.zeros(1))[3:] == (0, True)  # flat to rounding: on tolerance
        assert len(trials) == 1 + estimation._MAX_HALVINGS
        walled = estimation._descend(lambda theta: flat(theta) if theta[0] == 0 else None, np.zeros(1))
        assert walled[3:] == (0, False)  # no feasible trial: off tolerance

    def test_stationary_start_reaches_oracle(self):
        # Zero residual cross-moments on the pattern: Omega = I is a stationary maximum of the objective.
        # One edge is solved in closed form and a path by edge sweeps, which leave the start on their
        # first step; a cycle descends again from a diagonally dominant start.
        cases = ((4, {(2, 3)}, 0), (5, {(2, 3), (3, 4)}, 6), (6, {(2, 3), (3, 4), (4, 5), (2, 5)}, 12))
        for p, undirected, steps in cases:
            cov = np.diag([10.0, 10.0] + [0.1] * (p - 2))
            g = ChainGraph(p, undirected=undirected)
            result = fit(cov, g, equal_variances=True)
            oracle = _equal_variance_oracle(cov, g)
            assert result.converged and result.iterations == steps
            assert abs(result.loglik - oracle) < 1e-8
            loglik, converged = EqualVarianceScorer(cov, p).loglik(g)
            assert converged and abs(loglik - result.loglik) < 1e-12

    def test_restart_keeps_an_identity_optimum(self):
        # Independent errors of equal variance: R_K = I is the optimum. The cycles' descents restart and
        # return to it; the path's first sweep leaves it where it is.
        for undirected in ({(0, 1), (1, 2), (0, 2)}, {(0, 1), (1, 2), (2, 3), (0, 3)}, {(0, 1), (1, 2), (2, 3)}):
            g = ChainGraph(4, undirected=undirected)
            result = fit(2.0 * np.eye(4), g, equal_variances=True)
            assert result.converged and result.iterations == 0
            assert abs(result.loglik - gaussian_average_loglik(2.0 * np.eye(4), 2.0 * np.eye(4))) < 1e-12

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
        mix = np.eye(5)
        mix[1, 0] = 1.0 - 1e-4  # X1 becomes X0 plus 1e-4 of itself: predictors 0 and 1 nearly collinear
        mix[1, 1] = 1e-4
        collinear = mix @ cov @ mix.T
        # SLSQP is the general check; nearly collinear predictors defeat it, so they get a 1-D search
        cases = [(cov, _equal_variance_oracle(cov, g))]
        cases.append((collinear, one_edge_equal_variance_numeric(collinear, sorted((k, j) for j, k in directed), (2, 3))))
        for cov, oracle in cases:
            result = fit(cov, g, equal_variances=True)
            assert result.converged and result.iterations == 0
            assert abs(result.loglik - oracle) < 1e-8
            assert result.dispersion < 1e-12
            for scale in (1e-6, 1e6):  # a change of units shifts the log-likelihood by -(p / 2) log(scale)
                scaled = fit(scale * cov, g, equal_variances=True)
                assert scaled.converged and scaled.iterations == 0
                assert abs(scaled.loglik + 2.5 * math.log(scale) - oracle) < 1e-8

    def test_one_edge_strong_correlation_matches_oracle(self):
        g, data = _strong_correlation_sample()
        result = fit(data, g, equal_variances=True)
        block = result.params.sigma[np.ix_([2, 3], [2, 3])]
        assert abs(block[0, 1]) / block[0, 0] > 0.95
        assert result.converged and result.iterations == 0
        assert abs(result.loglik - _equal_variance_oracle(moment_matrix(data, 4)[0], g)) < 1e-8

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_edge_without_predictors_matches_oracle(self, p):
        # at p = 2 no singleton is left, so T0 = 0 and the stationarity cubic drops to its linear term
        g = ChainGraph(p, undirected={(0, 1)})
        rng = np.random.default_rng(60 + p)
        data, cov = Dataset(rng.normal(size=(300, p)) @ rng.normal(size=(p, p))), _random_pd(rng, p)
        for data_or_cov, s in ((data, moment_matrix(data, p)[0]), (cov, cov)):
            (record,) = _split(s, g)[1]
            assert _stationarity_degree(record) <= 3
            result = fit(data_or_cov, g, equal_variances=True)
            assert result.converged and result.iterations == 0
            assert abs(result.loglik - one_edge_equal_variance_numeric(s, [], (0, 1))) < 1e-8

    @pytest.mark.parametrize("units", [1e-3, 1e-5, 1e-8])
    def test_one_edge_beside_a_singleton_in_other_units_matches_oracle(self, units):
        # the singleton's small residual total leaves the stationarity cubic one root far out beside the optimum
        g = ChainGraph(3, undirected={(0, 1)})
        rng = np.random.default_rng(62)
        x = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 3))
        x[:, 2] *= units
        data = Dataset(x)
        result = fit(data, g, equal_variances=True)
        assert result.converged and result.iterations == 0
        assert abs(result.loglik - one_edge_equal_variance_numeric(moment_matrix(data, 3)[0], [], (0, 1))) < 1e-8

    def test_true_graph_reaches_entropy_bound(self):
        g = ChainGraph(2, directed={(0, 1)})
        cov = np.array([[1.0, 1.0], [1.0, 2.0]])
        result = fit(cov, g, equal_variances=True)
        assert abs(result.loglik - gaussian_average_loglik(cov, cov)) < 1e-8
        assert result.dispersion < 1e-6


def _split(s: np.ndarray, g: ChainGraph) -> tuple:
    """(singleton (node, residual variance) pairs, multi-node records) of g's components on the second moment s."""
    return estimation._split(estimation._Conditioned(s), g._parents, g.undirected, chain_components(g), {})


class TestEqualVarianceScorer:
    def test_loglik_rejects_a_semidirected_cycle(self):
        scorer = EqualVarianceScorer(_noise(), 3)
        with pytest.raises(ValueError, match=_CYCLE_NAMED):
            scorer.loglik(_CYCLIC)
        assert scorer.graphs == 0
        # state_loglik is unchecked: its caller vouches for the state
        assert math.isfinite(scorer.state_loglik(_CYCLIC._parents, _CYCLIC.undirected)[0])

    def test_solve_objective_is_its_points_profile(self):
        # each descent returns its end point's objective, and the edge sweeps evaluate their end point
        # once, so the solve reads it without evaluating again
        rng = np.random.default_rng(5)
        stationary = np.diag([10.0, 10.0, 0.1, 0.1, 0.1])
        cases = [
            (stationary, ChainGraph(5, undirected={(2, 3), (3, 4)})),  # edge sweeps
            (stationary, ChainGraph(5, undirected={(2, 3), (3, 4), (2, 4)})),  # two descents
        ]
        for seed in range(20):
            g = random_chain_graph(5, 0.6, 0.7, seed=seed)
            cases.append((moment_matrix(Dataset(rng.normal(size=(200, 5)) @ rng.normal(size=(5, 5))), 5)[0], g))
        solved, routes = 0, set()
        for s, g in cases:
            singles, multi = _split(s, g)
            if sum(len(c.pattern) for c in multi) < 2:
                continue
            fixed_t = sum(variance for *_, variance in singles)
            solve = estimation._equal_variance_solve(fixed_t, multi, 5)
            objective, grad = estimation._profile(fixed_t, multi, 5, solve.theta)[:2]
            assert solve.objective == objective
            if float(np.max(np.abs(grad))) <= estimation._EV_GRAD_TOL:
                assert solve.converged
            routes.add(solve.route)
            solved += 1
        assert solved >= 10 and routes == {"sweep", "descent"}

    @staticmethod
    def _assert_matches_penalized_score(data_or_cov, graphs, n_eff):
        scorer = EqualVarianceScorer(data_or_cov, graphs[0].p)
        for g in graphs:
            ours = equal_variance_bic(scorer.loglik(g)[0], g, n_eff)
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
        def no_descent(*args, **kwargs):
            raise AssertionError("a DAG needs no numeric optimization")

        monkeypatch.setattr(estimation, "_descend", no_descent)
        scorer = EqualVarianceScorer(_random_pd(np.random.default_rng(44), 4), 4)
        for g in enumerate_chain_graphs(4):
            if not g.undirected:
                assert scorer.loglik(g)[1]

    def test_one_edge_needs_no_optimizer(self, monkeypatch):
        def no_descent(*args, **kwargs):
            raise AssertionError("a single two-node component with one edge is solved in closed form")

        monkeypatch.setattr(estimation, "_descend", no_descent)
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

    def test_score_is_the_penalized_loglik_of_the_state(self):
        rng = np.random.default_rng(50)
        data = Dataset(rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4)))
        cov = _random_pd(rng, 4)
        for data_or_cov, n_eff in ((data, 300.0), (cov, estimation._POPULATION_N_EFF)):
            scorer = EqualVarianceScorer(data_or_cov, 4)
            assert scorer.n_eff == n_eff
            for g in enumerate_chain_graphs(4):
                loglik, converged = scorer.loglik(g)
                score = scorer.score(g._parents, g.undirected)
                assert score == (equal_variance_bic(loglik, g, n_eff), loglik, converged)
            graphs = scorer.graphs
            assert scorer.score(g._parents, g.undirected) == score and scorer.graphs == graphs  # kept per state

    def test_residual_variances_are_least_squares(self):
        rng = np.random.default_rng(51)
        data = Dataset(rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4)))
        s, records = moment_matrix(data, 4)[0], {}
        for g in enumerate_chain_graphs(4):
            expected, variances = [], []
            for node, into in enumerate(g._parents):
                b, variance = estimation._regression(s, node, into, records)
                target, coef = data.values[:, node], np.zeros(0)
                if into:
                    design = data.values[:, list(into)]
                    coef = np.linalg.lstsq(design, target, rcond=None)[0]
                    target = target - design @ coef
                assert np.allclose(b, coef, rtol=1e-10, atol=0)
                expected.append(float(target @ target) / data.n)
                variances.append(variance)
            assert np.allclose(variances, expected, rtol=1e-10, atol=0)

    def test_graph_size_must_match_input(self):
        with pytest.raises(ValueError, match="graph has 2 nodes"):
            EqualVarianceScorer(np.eye(3), 3).loglik(ChainGraph(2))

    def test_one_edge_record_is_built_once_and_counted(self, monkeypatch):
        cov = _random_pd(np.random.default_rng(47), 4)
        scorer = EqualVarianceScorer(cov, 4)
        # Singleton fits 0 <- 1 and 1 <- (); then the edge 2 - 3 with 0 -> 2 and 1 -> 3
        # under two singleton parent sets, 0 -> 1 and 1 -> 0, so two values of T0.
        first, second = (
            ChainGraph(4, directed={edge, (0, 2), (1, 3)}, undirected={(2, 3)}) for edge in ((0, 1), (1, 0))
        )
        scorer.loglik(ChainGraph(4, directed={(1, 0)}))
        scorer.loglik(first)
        assert (scorer.graphs, scorer.records_built, scorer.records_reused) == (2, 7, 0)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cached component was rebuilt or refit")

        monkeypatch.setattr(estimation, "_component", forbidden)
        monkeypatch.setattr(estimation, "_gls_coefficients", forbidden)
        loglik, converged = scorer.loglik(second)
        monkeypatch.undo()
        assert (scorer.graphs, scorer.records_built, scorer.records_reused) == (3, 7, 3)
        assert (scorer.one_edge_solves, scorer.descents, scorer.descent_steps, scorer.nonconverged) == (2, 0, 0, 0)
        assert converged and abs(loglik - fit(cov, second, equal_variances=True).loglik) < 1e-9

    def test_descents_and_their_steps_are_counted(self):
        g = ChainGraph(5, directed={(0, 2), (1, 3)}, undirected={(0, 1), (2, 3), (3, 4)})
        cov = _random_pd(np.random.default_rng(43), 5)
        scorer = EqualVarianceScorer(cov, 5)
        scorer.loglik(g)
        reference = fit(cov, g, equal_variances=True)
        assert reference.iterations > 0
        assert (scorer.descents, scorer.descent_steps, scorer.one_edge_solves) == (1, reference.iterations, 0)
        assert scorer.nonconverged == int(not reference.converged)

    @pytest.mark.parametrize(
        "component_parents",
        [
            {(0, 2), (1, 2), (0, 3), (1, 3)},  # k = 0: both rows regress on {0, 1}
            {(0, 2), (0, 3), (1, 3)},  # k = 1: 0 is shared, 1 -> 3 is the only own coefficient
            {(0, 2), (1, 3)},  # k = 2
        ],
    )
    def test_one_edge_record_matches_fit_under_every_t0(self, component_parents):
        rng = np.random.default_rng(48)
        data = Dataset(rng.normal(size=(400, 5)) @ rng.normal(size=(5, 5)))
        singleton_parents = [set(), {(0, 4)}, {(0, 1)}, {(0, 1), (1, 4)}, {(2, 4)}, {(3, 4), (1, 0)}]
        graphs = [ChainGraph(5, directed=component_parents | extra, undirected={(2, 3)}) for extra in singleton_parents]
        self._assert_one_edge_scores_match_fit(data, graphs)

    def test_one_edge_record_matches_fit_at_strong_correlation(self):
        g, data = _strong_correlation_sample()
        extras = (set(), {(0, 1)}, {(1, 0)})
        graphs = [ChainGraph(4, directed=g.directed | extra, undirected=g.undirected) for extra in extras]
        self._assert_one_edge_scores_match_fit(data, graphs)

    def test_one_edge_optimum_within_rounding_of_one(self):
        # The edge's residual total is 1e-18 or less of the singletons': the best correlation lies so close
        # to 1 that 1 - rho^2 is near or below rounding, and the largest double below 1 must be a candidate.
        g = ChainGraph(5, undirected={(2, 3)})
        for big in (1e9, 1e10):
            cov = np.diag([big, big, 1.0 / big, 1.0 / big, big])
            cov[2, 3] = cov[3, 2] = 0.5 / big

            def loglik_at(rho):
                s = 1.0 - rho**2
                t = 3.0 * big + (2.0 - rho) / (big * s)  # T0 + trace(R^-1 E)
                return -0.5 * (5.0 * math.log(2.0 * math.pi) + 5.0 + 5.0 * math.log(t / 5.0) + math.log(s))

            best = max(loglik_at(rho) for rho in [1.0 - 10.0**-k for k in range(1, 16)] + [np.nextafter(1.0, 0.0)])
            loglik, converged = EqualVarianceScorer(cov, 5).loglik(g)
            assert converged and loglik >= best - 1e-9

    def test_fit_at_a_correlation_within_rounding_of_one_is_numeric_error(self):
        # the closed-form correlation is 1 - 6.7e-13, so 1 - rho^2 falls below the rank tolerance
        g = ChainGraph(5, undirected={(2, 3)})
        cov = np.diag([1e6, 1e6, 1e-6, 1e-6, 1e6])
        cov[2, 3] = cov[3, 2] = 0.5e-6
        with pytest.raises(np.linalg.LinAlgError, match="X3 and X4"):
            fit(cov, g, equal_variances=True)
        assert EqualVarianceScorer(cov, 5).loglik(g)[1]

    @staticmethod
    def _assert_one_edge_scores_match_fit(data, graphs):
        scorer = EqualVarianceScorer(data, graphs[0].p)
        fixed_totals, singleton_keys = set(), set()
        for g in graphs:
            singles = [(v, g._parents[v]) for comp in chain_components(g) if len(comp) == 1 for v in comp]
            fixed_totals.add(sum(estimation._regression(scorer.s, v, into, {})[1] for v, into in singles))
            singleton_keys |= set(singles)
            loglik, converged = scorer.loglik(g)
            reference = fit(data, g, equal_variances=True)
            assert converged and reference.converged and reference.iterations == 0
            assert abs(loglik - reference.loglik) < 1e-9, g
        assert len(fixed_totals) == len(graphs)
        # one record for the shared edge, one least-squares fit per distinct singleton
        assert scorer.records_built == len(singleton_keys) + 1
        assert scorer.one_edge_solves == len(graphs)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 5).flatmap(lambda p: st.lists(chain_graphs(min_p=p, max_p=p), min_size=2, max_size=6)))
    def test_cached_records_do_not_change_scores(self, graphs):
        p = graphs[0].p
        rng = np.random.default_rng(49)
        data = Dataset(rng.normal(size=(300, p)) @ rng.normal(size=(p, p)))
        forward, backward = EqualVarianceScorer(data, p), EqualVarianceScorer(data, p)
        ahead = [forward.loglik(g) for g in graphs]
        behind = [backward.loglik(g) for g in reversed(graphs)][::-1]
        alone = [EqualVarianceScorer(data, p).loglik(g) for g in graphs]
        assert ahead == behind == alone

    @staticmethod
    def _bounds_and_scores(source, p, graphs):
        scorer = EqualVarianceScorer(source, p)
        out = []
        for g in graphs:
            bound = scorer.bound(g._parents, g.undirected)  # before the state is scored
            out.append((g, bound, scorer.score(g._parents, g.undirected)[0]))
        return out

    @staticmethod
    def _shaped_states(p: int) -> list:
        """Trees, triangles and a four-cycle on nodes 0-3, bare and regressing on the nodes after them."""
        parents = {(z, v) for z in range(4, p) for v in range(4) if (z + v) % 2}
        patterns = [
            {(0, 1), (1, 2)},  # a path
            {(0, 1), (0, 2), (0, 3)},  # a star
            {(0, 1), (1, 2), (1, 3)},  # a tree
            {(0, 1), (1, 2), (0, 2)},  # a triangle
            {(0, 1), (1, 2), (0, 2), (2, 3)},  # a triangle with a pendant edge
            {(0, 1), (1, 2), (2, 3), (0, 3)},  # a four-cycle: the elimination adds a fill-in edge
        ]
        shapes = [e for e in patterns if max(map(max, e)) < p]
        return [ChainGraph(p, directed, undirected) for undirected in shapes for directed in (set(), parents)]

    def test_bound_is_never_below_the_score(self):
        rng = np.random.default_rng(50)
        multi, shaped = 0, 0
        for p in (3, 4, 5, 6):
            values = rng.normal(size=(400, p)) @ rng.normal(size=(p, p))
            collinear = values.copy()
            collinear[:, 1] = collinear[:, 0] + 1e-4 * rng.normal(size=400)
            truth = random_chain_graph(p, 0.5, 0.5, seed=p)
            population = implied_distribution(rescale_equal_variances(random_parameters(truth, seed=p))).cov
            graphs = [truth] + [random_chain_graph(p, 0.6, 0.6, seed=seed) for seed in range(25)]
            graphs += self._shaped_states(p)
            for source in (Dataset(values), Dataset(collinear), population):
                for g, bound, score in self._bounds_and_scores(source, p, graphs):
                    assert bound >= score - 1e-12 * abs(score), (p, g)
                    multi += any(len(comp) > 1 for comp in chain_components(g))
                    shaped += any(len(comp) > 2 for comp in chain_components(g))
        assert multi > 200 and shaped > 100

    def test_bound_is_at_most_the_saturated_bound(self):
        # each multi-node component's decomposable maximum lies in its saturated model, so it bounds tighter
        rng = np.random.default_rng(53)
        below = set()
        for p in (3, 4, 5, 6):
            values = rng.normal(size=(400, p)) @ rng.normal(size=(p, p))
            collinear = values.copy()
            collinear[:, 1] = collinear[:, 0] + 1e-4 * rng.normal(size=400)
            truth = random_chain_graph(p, 0.5, 0.5, seed=p)
            population = implied_distribution(rescale_equal_variances(random_parameters(truth, seed=p))).cov
            graphs = [random_chain_graph(p, 0.6, 0.6, seed=seed) for seed in range(25)] + self._shaped_states(p)
            for source in (Dataset(values), Dataset(collinear), population):
                scorer = EqualVarianceScorer(source, p)
                # a log-determinant read off conditional variances, like one off a factorisation, loses about
                # eps * cond(s) to rounding, and the score is n_eff times it: 1e-5 on the collinear columns
                rounding = scorer.n_eff * p * np.linalg.cond(scorer.s) * np.finfo(float).eps
                for g in graphs:
                    bound = scorer.bound(g._parents, g.undirected)
                    saturated = saturated_bound(scorer.s, g, scorer.n_eff)
                    slack = 1e-12 * abs(saturated) + rounding
                    assert bound <= saturated + slack, (p, g)
                    complete = all(
                        set(itertools.combinations(sorted(comp), 2)) <= g.undirected for comp in chain_components(g)
                    )
                    if complete:  # the decomposable maximum of a complete pattern is the saturated one
                        assert abs(bound - saturated) <= slack, (p, g)
                    elif bound < saturated - 1e-6 * abs(saturated):
                        below.add(len(g.undirected))
        assert below >= {2, 3}  # strictly tighter on paths and trees

    def test_bound_is_the_score_on_singleton_states(self):
        rng = np.random.default_rng(51)
        for p in (3, 5):
            graphs = [random_chain_graph(p, 0.6, 0.0, seed=seed) for seed in range(15)]
            for source in (Dataset(rng.normal(size=(300, p)) @ rng.normal(size=(p, p))), _random_pd(rng, p)):
                for g, bound, score in self._bounds_and_scores(source, p, graphs):
                    assert abs(bound - score) <= 1e-12 * abs(score), g

    def test_scored_state_bounds_at_its_score_and_is_split_once(self, monkeypatch):
        g = ChainGraph(4, directed={(0, 2), (1, 3)}, undirected={(2, 3)})
        scorer = EqualVarianceScorer(_random_pd(np.random.default_rng(52), 4), 4)
        monkeypatch.setattr(estimation, "_component", None)  # a bound builds no component record
        bound = scorer.bound(g._parents, g.undirected)
        assert scorer.bound(g._parents, g.undirected) == bound and scorer.bounds == 1  # kept once worked out
        monkeypatch.undo()
        splits = []
        split = estimation._split
        monkeypatch.setattr(estimation, "_split", lambda *args: splits.append(1) or split(*args))
        score = scorer.score(g._parents, g.undirected)[0]
        assert bound > score
        assert scorer.bound(g._parents, g.undirected) == score
        assert (splits, scorer.bounds, scorer.graphs, scorer.one_edge_solves) == ([1], 1, 1, 1)

    def test_saturated_moment_not_positive_definite_bounds_at_infinity(self):
        g = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        scorer = EqualVarianceScorer(np.eye(3), 3)
        scorer._given = estimation._Conditioned(np.ones((3, 3)))  # nodes 1 and 2 share all their variance with node 0
        assert scorer.bound(g._parents, g.undirected) == math.inf


class TestConditionedMemo:
    @staticmethod
    def _moments(p: int) -> list:
        rng = np.random.default_rng(90 + p)
        data = Dataset(rng.normal(size=(200, p)) @ rng.normal(size=(p, p)))
        truth = random_chain_graph(p, 0.5, 0.5, seed=p)
        population = implied_distribution(rescale_equal_variances(random_parameters(truth, seed=p))).cov
        return [moment_matrix(data, p)[0], moment_matrix(population, p)[0]]

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_entries_are_the_conditional_covariance_table_to_the_bit(self, p):
        # one Schur update serves the scorer's memo and the independence table, so they agree bitwise
        for s in self._moments(p):
            table = sem._conditional_covariances(s)
            for order in (range(1 << p), reversed(range(1 << p))):  # entries read in either order
                given = estimation._Conditioned(s)
                for mask in order:
                    assert given[mask].tobytes() == table[mask].tobytes(), (p, mask)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_entries_are_least_squares_residual_moments(self, p):
        rng = np.random.default_rng(95 + p)
        values = rng.normal(size=(300, p)) @ rng.normal(size=(p, p))
        given = estimation._Conditioned(moment_matrix(Dataset(values), p)[0])
        for mask in range(1 << p):
            into = list(graphs._nodes(mask))
            residuals = values - values[:, into] @ np.linalg.lstsq(values[:, into], values, rcond=None)[0]
            scale = np.abs(values).max() ** 2
            assert np.allclose(given[mask], residuals.T @ residuals / 300, rtol=1e-10, atol=1e-10 * scale), mask

    def test_one_row_terms_are_residual_moments(self):
        # k regresses on the shared predictors S and its own O, the other row o on S alone
        rng = np.random.default_rng(97)
        values = rng.normal(size=(400, 6)) @ rng.normal(size=(6, 6))
        s = moment_matrix(Dataset(values), 6)[0]

        def residual(rows, into):
            x = values[:, into]
            return values[:, rows] - x @ np.linalg.lstsq(x, values[:, rows], rcond=None)[0] if into else values[:, rows]

        for shared, own, k in (([], [], 0), ([2, 3], [], 0), ([], [4, 5], 1), ([2], [3, 4], 0), ([3], [2, 5], 1)):
            o = 1 - k
            directed = {(z, v) for z in shared for v in (0, 1)} | {(z, k) for z in own}
            g = ChainGraph(6, directed=directed, undirected={(0, 1)})
            (record,) = _split(s, g)[1]
            both = residual([k, o], shared + own)
            on_shared = residual([o], shared)[:, 0]
            g0 = (both[:, 0] @ both[:, 0] + on_shared @ on_shared) / 400
            g1 = -2.0 * (both[:, 0] @ both[:, 1]) / 400
            g2 = (both[:, 1] @ both[:, 1] - on_shared @ on_shared) / 400
            assert np.allclose(record.one_edge.g_d, (g0, g1, g2), rtol=1e-10, atol=1e-12 * g0), (shared, own, k)
            assert record.one_edge.d == (1.0,)


class TestDecomposableBound:
    _CHORDAL = (
        [(0, 1), (1, 2)],  # a path
        [(0, 1), (0, 2), (0, 3)],  # a star
        [(0, 1), (1, 2), (0, 2), (2, 3)],  # a triangle with a pendant edge
        [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)],  # two triangles on one edge
        [(0, 1), (1, 2), (2, 3), (3, 4)],  # a five-node path
    )

    @staticmethod
    def _given(seed: int, p: int = 7):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(300, p)) @ rng.normal(size=(p, p))
        return estimation._Conditioned(moment_matrix(Dataset(values), p)[0])

    @pytest.mark.parametrize("predictors", [(), (5,), (5, 6)])
    def test_chordal_patterns_give_the_graphical_model_maximum(self, predictors):
        # the perfect elimination's sum of log conditional variances is log det of the covariance MLE under
        # the pattern, fit numerically to the residual moment on all the predictors
        given = self._given(100)
        for pattern in self._CHORDAL:
            nodes = sorted({v for e in pattern for v in e})
            mask = graphs._mask(predictors)
            e = given[mask][np.ix_(nodes, nodes)]
            fitted = ggm_mle_numeric(e, pattern)  # nodes are 0..m-1, so the pattern is local as it stands
            expected = np.linalg.slogdet(fitted)[1]
            got = estimation._decomposable_logdet(given, nodes, mask, frozenset(pattern))
            assert abs(got - expected) < 1e-6, pattern
            saturated = np.linalg.slogdet(e)[1]
            assert got > saturated + 1e-6  # a missing edge leaves a looser fit: a larger log det

    def test_a_four_cycle_is_bounded_with_its_fill_in(self):
        # the elimination joins the first node's two neighbours: the cycle's bound is its chordal cover's
        given = self._given(101)
        cycle = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        for predictors in (0, graphs._mask([5, 6])):
            got = estimation._decomposable_logdet(given, [0, 1, 2, 3], predictors, cycle)
            assert got == estimation._decomposable_logdet(given, [0, 1, 2, 3], predictors, cycle | {(1, 3)})
            e = given[predictors][:4, :4]
            own_maximum = np.linalg.slogdet(ipf(e, cycle).sigma)[1]  # the cycle's own, non-decomposable fit
            assert np.linalg.slogdet(e)[1] - 1e-9 <= got <= own_maximum + 1e-9

    def test_every_value_is_kept_by_component_predictors_and_edges(self, monkeypatch):
        scorer = EqualVarianceScorer(self._given(102)[0], 7)
        calls = []
        logdet = estimation._decomposable_logdet
        monkeypatch.setattr(estimation, "_decomposable_logdet", lambda *args: calls.append(args[1:]) or logdet(*args))
        a = ChainGraph(7, directed={(5, 0), (6, 1)}, undirected={(0, 1), (1, 2)})
        b = ChainGraph(7, directed={(5, 0), (6, 2), (3, 4)}, undirected={(0, 1), (1, 2)})  # same predictors {5, 6}
        c = ChainGraph(7, directed={(5, 0)}, undirected={(0, 1), (1, 2)})
        for g in (a, b, c, a):
            scorer.bound(g._parents, g.undirected)
        path = frozenset({(0, 1), (1, 2)})
        assert calls == [([0, 1, 2], graphs._mask([5, 6]), path), ([0, 1, 2], 1 << 5, path)]


def _one_row_records(count: int, seed: int, shrink: tuple = (0.0, 0.0), both: bool = False) -> list:
    """(T0, record, p) of random one-edge components 0 - 1 whose own predictors sit on at most one row, p = 2-6.

    Nodes 2.. are singletons; each is a parent of both rows, of one row or
    of neither. With `both`, each row has own predictors instead, p = 4-7:
    node 2 is a parent of row 0 alone, node 3 of row 1 alone, and each
    further singleton is a parent of both rows, of either one or of
    neither. Odd draws read a sample of correlated noise, even ones the
    population covariance of random equal-variance parameters on the graph.
    Each singleton's column is then scaled by 10^-u, u uniform on shrink,
    as a change of its units.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        p = int(rng.integers(4, 8) if both else rng.integers(2, 7))
        others = range(4 if both else 2, p)
        shared = {z for z in others if rng.random() < 0.4}
        row = int(rng.integers(2))
        directed = {(z, r) for z in shared for r in (0, 1)}
        if both:
            directed |= {(2, 0), (3, 1)} | {(z, r) for z in others if z not in shared and (r := int(rng.integers(3))) < 2}
        else:
            directed |= {(z, row) for z in others if z not in shared and rng.random() < 0.6}
        directed |= {(w, v) for v in range(2, p) for w in range(2, v) if rng.random() < 0.5}
        g = ChainGraph(p, directed=directed, undirected={(0, 1)})
        if i % 2:
            mix = np.linalg.cholesky(_random_pd(rng, p)).T
            s = moment_matrix(Dataset(rng.normal(size=(int(rng.integers(p + 2, 300)), p)) @ mix), p)[0]
        else:
            s = implied_distribution(rescale_equal_variances(random_parameters(g, seed=[seed, i]))).cov
        units = 10.0 ** -np.random.default_rng([seed, i, 1]).uniform(*shrink, size=p)
        units[:2] = 1.0
        s = units[:, None] * s * units
        singles, (record,) = _split(s, g)
        out.append((sum(variance for *_, variance in singles), record, p))
    return out


def _stationarity_degree(record) -> int:
    """The degree of the record's stationarity polynomial h D^2 = P - T0 Q, as its one-edge terms hold it."""
    return len(record.one_edge.series) - 1


class TestOneEdgeCubic:
    @staticmethod
    def _assert_roots_match_polyroots(coefficients, atol):
        ours = estimation._real_roots(list(coefficients[::-1]))
        ascending = np.array(coefficients[::-1], dtype=float)
        reference = polyroots(ascending[: np.flatnonzero(ascending)[-1] + 1])
        real = np.sort(reference.real[np.abs(reference.imag) <= atol])
        assert ours == sorted(ours)
        assert len(ours) == real.size and np.allclose(ours, real, rtol=0.0, atol=atol), (coefficients, ours, reference)

    @staticmethod
    def _cubic(roots, scale):
        """(a, b, c, d), highest degree first, of scale * prod (x - root) over the given roots."""
        return tuple(scale * polyfromroots(roots).real[::-1])

    def test_cubic_roots_match_polyroots(self):
        rng = np.random.default_rng(70)
        below = estimation._BELOW_ONE
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            while np.min(np.diff(three := np.sort(rng.uniform(-1.0, 1.0, 3)))) < 0.05:
                pass
            pair = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0))
            r, s = three[:2]
            self._assert_roots_match_polyroots(self._cubic(three, scale), 1e-9)  # three real roots
            self._assert_roots_match_polyroots(self._cubic([r, pair, pair.conjugate()], scale), 1e-9)  # one
            self._assert_roots_match_polyroots(self._cubic([r, r, s], scale), 1e-6)  # a double root
            # roots within rounding of +-1; 1 and the largest double below it are a double root to rounding
            for ends, atol in (([1.0, -1.0], 1e-9), ([below, -below], 1e-9), ([1.0, below], 1e-6)):
                self._assert_roots_match_polyroots(self._cubic([*ends, r], scale), atol)
            # a zero leading coefficient: two real roots, none, or the linear case
            self._assert_roots_match_polyroots((0.0, *self._cubic([r, s], scale)), 1e-9)
            self._assert_roots_match_polyroots((0.0, *self._cubic([pair, pair.conjugate()], scale)), 1e-9)
            self._assert_roots_match_polyroots((0.0, 0.0, *self._cubic([r], scale)), 1e-12)
            # one root far out, on either side of the spread the closed form takes
            far = math.copysign(10.0 ** rng.uniform(0.5, 8.0), rng.uniform(-1.0, 1.0))
            self._assert_roots_match_polyroots(self._cubic([r, s, far], scale), 1e-9)
            self._assert_roots_match_polyroots(self._cubic([r, far * pair, far * pair.conjugate()], scale), 1e-9)
            # a zero quadratic coefficient: the roots sum to zero, three real or one
            balanced = [r / 2.0, s / 2.0, -(r + s) / 2.0]
            centred = [r, complex(-r / 2.0, pair.imag), complex(-r / 2.0, -pair.imag)]
            for roots in (balanced, centred):
                a, _, c, d = self._cubic(roots, scale)
                self._assert_roots_match_polyroots((a, 0.0, c, d), 1e-9)

    def test_records_pick_their_route(self):
        s = _random_pd(np.random.default_rng(71), 5)
        for directed, degree in (
            (set(), 3),  # no predictors
            ({(2, 0), (2, 1), (3, 0), (3, 1)}, 3),  # identical parent sets
            ({(2, 0), (2, 1), (3, 1), (4, 1)}, 3),  # own predictors on one row
            ({(2, 0), (3, 1)}, 7),  # own predictors on both rows, k = 2
            ({(2, 0), (2, 1), (3, 0), (4, 1)}, 7),
            ({(2, 0), (3, 0), (4, 1)}, 9),  # k = 3
        ):
            g = ChainGraph(5, directed=directed, undirected={(0, 1)})
            singles, (record,) = _split(s, g)
            assert _stationarity_degree(record) == degree
            fixed_t = sum(variance for *_, variance in singles)
            self._assert_routes_agree(fixed_t, record, 5)

    def test_cubic_route_matches_the_series_route(self):
        # the series route, as it ran on every one-edge record, solves the same stationarity condition
        # singletons in other units (columns scaled by 1e-3 to 1e-6) put one root of the cubic far out
        records = _one_row_records(600, 72) + _one_row_records(300, 73, (3.0, 6.0))
        assert {p for *_, p in records} == {2, 3, 4, 5, 6}
        for fixed_t, record, p in records:
            assert _stationarity_degree(record) <= 3
            # the one-row build writes out the series of D = 1; the general product gives the same floats
            assert record.one_edge.series == estimation._series(list(record.one_edge.g_d), [1.0])
            self._assert_routes_agree(fixed_t, record, p)

    def test_both_row_records_match_the_series_route(self):
        # own predictors on both rows: D has a factor per own coefficient, so h D^2 has degree 2k + 3
        records = _one_row_records(300, 74, both=True)
        assert {p for *_, p in records} == {4, 5, 6, 7}
        for fixed_t, record, p in records:
            rows, cols = (index.tolist() for index in record.support)
            by_row = [{z for row, z in zip(rows, cols) if row == r} for r in (0, 1)]
            assert _stationarity_degree(record) == 2 * len(by_row[0] ^ by_row[1]) + 3
            self._assert_routes_agree(fixed_t, record, p)

    def test_both_row_records_in_other_units_match_a_direct_search(self):
        # Singletons in other units (columns scaled by 1e-3 to 1e-6) leave T0 small. Canonical correlations that
        # are zero in exact arithmetic come out near 1e-17 and, unless read as zero, add roots near 1e17 whose
        # companion eigenvalues cost the roots in (-1, 1) their accuracy: the series route misses the optimum
        # on 4 of these records, by up to 3e-4 of the objective's terms, so the reference is a search with no root.
        for fixed_t, record, p in _one_row_records(100, 75, (3.0, 6.0), both=True):
            rho, objective = estimation._one_edge_correlation(fixed_t, record, p)
            log_s = math.log((1.0 - rho) * (1.0 + rho))
            terms = abs(objective - log_s) + abs(log_s)
            assert abs(objective - one_edge_record_numeric(fixed_t, record, p)) <= 1e-12 * terms, (p, rho)

    @staticmethod
    def _assert_routes_agree(fixed_t, record, p):
        """rho within 1e-12 and the objective within 1e-12 of its terms' size, p |log(T / p)| + |log(1 - rho^2)|.

        The two terms can cancel to an objective near zero, whose rounding
        is still that of the terms.
        """
        rho, objective = estimation._one_edge_correlation(fixed_t, record, p)
        rho_ref, objective_ref = one_edge_series_correlation(fixed_t, record, p)
        log_s = math.log((1.0 - rho_ref) * (1.0 + rho_ref))
        assert abs(rho - rho_ref) <= 1e-12, (p, rho, rho_ref)
        terms = abs(objective_ref - log_s) + abs(log_s)
        assert abs(objective - objective_ref) <= 1e-12 * terms, (p, objective, objective_ref)


def _separable_states(count: int, seed: int) -> list:
    """(second moment, graph, kinds) of random states on 4-7 nodes whose components the edge sweeps solve.

    The nodes, in a random order, are cut into blocks of 1-4, each
    regressing on a random subset of the nodes before it. A two-node block
    is one edge whose nodes draw their parents apart, so both rows may
    have own predictors; a block of 3 or 4 is a star, a path or a random
    tree whose nodes share one parent tuple. Every state has at least two
    edges. A third of the moments are samples of correlated noise, a third
    random positive definite matrices and a third the population
    covariance of random equal-variance parameters on the graph.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = int(rng.integers(4, 8))
        order, blocks = rng.permutation(p).tolist(), []
        while order:
            size = int(rng.choice([1, 2, 3, 4], p=[0.3, 0.3, 0.2, 0.2]))
            blocks.append(order[:size])
            order = order[size:]
        directed, undirected, earlier, kinds = set(), set(), [], set()
        for block in blocks:
            shared = {z for z in earlier if rng.random() < 0.4}
            for v in block:
                own = {z for z in earlier if rng.random() < 0.4} if len(block) == 2 else shared
                directed |= {(z, v) for z in own}
            if len(block) == 2:
                first, second = ({z for z, w in directed if w == v} for v in block)
                if first - second and second - first:
                    kinds.add("own predictors on both rows")
            shape = int(rng.integers(3))
            for j in range(1, len(block)):
                k = (0, j - 1, int(rng.integers(j)))[shape]
                undirected.add((min(block[j], block[k]), max(block[j], block[k])))
            if len(block) > 2:
                kinds.add(("star", "path", "tree")[shape] + (" with parents" if shared else ""))
            earlier += block
        if len(undirected) < 2:
            continue
        kinds.add("mix" if sum(len(block) > 1 for block in blocks) > 1 else "one component")
        g = ChainGraph(p, directed=directed, undirected=undirected)
        if len(out) % 3 == 0:
            s = moment_matrix(Dataset(rng.normal(size=(int(rng.integers(p + 5, 300)), p)) @ rng.normal(size=(p, p))), p)[0]
        elif len(out) % 3 == 1:
            s = _random_pd(rng, p)
        else:
            s = implied_distribution(rescale_equal_variances(random_parameters(g, seed=[seed, len(out)]))).cov
        out.append((s, g, kinds))
    return out


class TestEdgeSweeps:
    def test_separable_states_match_the_tree_oracle(self):
        states = _separable_states(320, 70)
        kinds = [kind for *_, state_kinds in states for kind in state_kinds]
        for kind in ("star", "path", "tree with parents", "own predictors on both rows", "mix"):
            assert kinds.count(kind) >= 20, kind
        for s, g, _ in states:
            scorer = EqualVarianceScorer(s, g.p)
            loglik, converged = scorer.loglik(g)
            assert converged and scorer.sweep_solves == 1 and scorer.descents == 0, g
            assert abs(loglik - tree_equal_variance_numeric(s, g)) < 1e-8, g
            result = fit(s, g, equal_variances=True)
            assert result.converged and abs(result.loglik - loglik) < 1e-9

    def test_separable_states_match_the_constrained_oracle(self):
        rng = np.random.default_rng(71)
        graphs = [
            ChainGraph(4, undirected={(1, 2), (2, 3)}),  # a path
            ChainGraph(4, directed={(0, 1), (0, 2), (0, 3)}, undirected={(1, 2), (1, 3)}),  # a star with a parent
            ChainGraph(4, undirected={(0, 1), (0, 2), (0, 3)}),  # a four-node star
            ChainGraph(4, directed={(0, 2), (1, 3)}, undirected={(0, 1), (2, 3)}),  # own predictors on both rows
            ChainGraph(5, directed={(0, 2), (0, 3), (0, 4)}, undirected={(2, 3), (3, 4)}),  # a path with a parent
        ]
        for g in graphs:
            cov = _random_pd(rng, g.p)
            scorer = EqualVarianceScorer(cov, g.p)
            loglik, converged = scorer.loglik(g)
            assert converged and scorer.sweep_solves == 1
            assert abs(loglik - _equal_variance_oracle(cov, g)) < 1e-8, g

    @pytest.mark.parametrize(
        "directed",
        [
            {(0, 2), (0, 3), (1, 2), (1, 3)},  # same parents: GLS is least squares
            {(0, 2), (1, 2), (1, 3), (4, 3)},  # different parents, one shared
            {(0, 2), (1, 3), (4, 3)},  # own predictors on both rows
        ],
    )
    def test_one_edge_sweep_on_collinear_predictors_matches_the_line_search(self, directed):
        # nearly collinear predictors defeat SLSQP, so the sweeps on one edge are checked by a 1-D search
        g = ChainGraph(5, directed=directed, undirected={(2, 3)})
        rng = np.random.default_rng(72)
        for _ in range(4):
            cov = _random_pd(rng, 5)
            mix = np.eye(5)
            mix[1, 0], mix[1, 1] = 1.0 - 1e-4, 1e-4  # X1 becomes X0 plus 1e-4 of itself
            cov = mix @ cov @ mix.T
            singles, multi = _split(cov, g)
            solve = estimation._sweep(sum(variance for *_, variance in singles), multi, 5)
            assert solve.converged and solve.route == "sweep"
            oracle = one_edge_equal_variance_numeric(cov, sorted((k, j) for j, k in directed), (2, 3))
            assert abs(-0.5 * (5.0 * math.log(2.0 * math.pi) + 5.0 + solve.objective) - oracle) < 1e-8

    def test_only_separable_states_skip_the_descent(self, monkeypatch):
        calls = []
        descend = estimation._descend
        monkeypatch.setattr(estimation, "_descend", lambda *args: calls.append(1) or descend(*args))
        cov = _random_pd(np.random.default_rng(73), 5)
        for g in (
            ChainGraph(5, undirected={(0, 1), (1, 2), (3, 4)}),  # a path beside an edge
            ChainGraph(5, directed={(0, 2), (0, 3), (0, 4)}, undirected={(2, 3), (2, 4)}),  # a star sharing a parent
            ChainGraph(5, directed={(0, 1), (4, 2), (4, 3)}, undirected={(0, 4), (2, 3)}),  # own predictors on both
        ):
            result = fit(cov, g, equal_variances=True)
            assert result.converged and not calls, g
        for g in (
            ChainGraph(5, undirected={(0, 1), (1, 2), (0, 2)}),  # a cycle
            ChainGraph(5, directed={(0, 2), (1, 3)}, undirected={(2, 3), (3, 4)}),  # a tree with own predictors
        ):
            calls.clear()
            assert fit(cov, g, equal_variances=True).converged and calls, g
        # an edge whose best correlation lies within rounding of 1 leaves no positive-definite point to sweep to
        cov = np.diag([1e6, 1e6, 1e-6, 1e-6, 1e6])
        cov[2, 3] = cov[3, 2] = 0.5e-6
        cov[0, 1] = cov[1, 0] = 0.3e6
        calls.clear()
        scorer = EqualVarianceScorer(cov, 5)
        assert scorer.loglik(ChainGraph(5, undirected={(0, 1), (2, 3)}))[1] and calls
        assert (scorer.sweep_solves, scorer.descents) == (0, 1)


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


class TestEstimationRejections:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: moment_matrix(np.eye(3), 2), "covariance must be 2x2, got (3, 3)"),
            (
                lambda: moment_matrix(Dataset(np.random.default_rng(3).normal(size=(5, 3))), 2),
                "dataset has 3 columns, graph has 2 nodes",
            ),
            (lambda: penalized_score(np.eye(2), ChainGraph(2), n_eff=1), "n_eff must exceed 1"),
            (lambda: penalized_score(np.eye(2), ChainGraph(2), n_eff=0.5), "n_eff must exceed 1"),
            (lambda: penalized_score(Dataset(np.array([[1.0, 2.0]])), ChainGraph(2)), "n_eff must exceed 1"),
            (lambda: penalized_score(np.eye(2), ChainGraph(2)), "covariance input requires an explicit n_eff"),
        ],
        ids=["covariance-size", "dataset-columns", "n_eff-one", "n_eff-below-one", "one-row-dataset", "no-n_eff"],
    )
    def test_malformed_input_is_rejected(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message
