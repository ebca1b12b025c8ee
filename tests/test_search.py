from __future__ import annotations

import math

import numpy as np
import pytest

from ampcg import (
    CapacityError,
    ChainGraph,
    Dataset,
    SearchConfig,
    estimation,
    faithful_parameters,
    fit,
    greedy_search,
    identify_in_class,
    implied_distribution,
    markov_equivalent,
    random_chain_graph,
    random_parameters,
    rescale_equal_variances,
    sample,
    search,
    sem,
    skeleton_recovery,
    two_phase,
)


class TestIdentifyInClass:
    def test_two_node_dispersion_table(self):
        cov = np.array([[1.0, 1.0], [1.0, 2.0]])
        truth = ChainGraph(2, directed={(0, 1)})
        result = identify_in_class(truth, cov)
        assert result.chosen == truth
        assert result.class_size == 3
        by_graph = {row.graph: row.dispersion for row in result.table}
        assert by_graph[truth] < 1e-9
        assert abs(by_graph[ChainGraph(2, directed={(1, 0)})] - math.log(4.0)) < 1e-9
        assert abs(by_graph[ChainGraph(2, undirected={(0, 1)})] - math.log(2.0)) < 1e-9
        assert abs(result.margin - math.log(2.0)) < 1e-9

    def test_singleton_class_margin_infinite(self):
        cov = np.diag([1.0, 2.0])
        result = identify_in_class(ChainGraph(2), cov)
        assert result.chosen == ChainGraph(2)
        assert result.class_size == 1 and result.margin == math.inf

    def test_six_node_population_recovers_truth(self, six_node_graph):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        cov = implied_distribution(params).cov
        result = identify_in_class(six_node_graph, cov)
        assert result.chosen == six_node_graph
        assert result.margin > 1e-6

    def test_every_wrong_member_shows_variance_spread(self, six_node_graph):
        # equal-variance models of two distinct Markov-equivalent graphs
        # cannot induce the same distribution: the wrong member's exact fit
        # is forced into unequal error variances
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=33), 1.0)
        cov = implied_distribution(params).cov
        result = identify_in_class(six_node_graph, cov)
        for row in result.table:
            if row.graph == six_node_graph:
                assert row.dispersion < 1e-8
            else:
                assert row.dispersion > 1e-6

    def test_covariance_validated_once_per_call(self, six_node_graph, monkeypatch):
        calls = []
        original = estimation.moment_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "moment_matrix", counting)
        monkeypatch.setattr(search, "moment_matrix", counting)
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        result = identify_in_class(six_node_graph, implied_distribution(params).cov)
        assert result.class_size > 1
        assert len(calls) == 1

    def test_population_rows_match_unconstrained_fit(self):
        # the criterion-7 instances: on every member the closed-form
        # residual variances agree with the iterative fit's error variances
        members = 0
        for trial in range(60):
            g = random_chain_graph(2 + trial % 5, 0.5, 0.5, seed=trial + 7_000)
            params = rescale_equal_variances(random_parameters(g, seed=trial + 1), 1.0)
            cov = implied_distribution(params).cov
            for row in identify_in_class(g, cov).table:
                reference = fit(cov, row.graph)
                assert abs(row.dispersion - reference.dispersion) < 1e-9
                assert abs(row.loglik - reference.loglik) < 1e-9
                assert row.converged
                members += 1
        assert members > 60

    def test_population_runs_no_fit(self, six_node_graph, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("population identification ran a fit")

        # no IPF, GLS loop or L-BFGS solve; no SemParameters or GaussianDistribution
        names = ("ipf", "_alternating_fit", "_equal_variance_solve", "SemParameters", "implied_distribution")
        for name in names:
            monkeypatch.setattr(estimation, name, forbidden)
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        result = identify_in_class(six_node_graph, implied_distribution(params).cov)
        assert result.class_size > 1
        assert result.chosen == six_node_graph

    def test_dataset_path_uses_score(self):
        truth = ChainGraph(2, directed={(0, 1)})
        params = rescale_equal_variances(random_parameters(truth, seed=3), 1.0)
        data = sample(implied_distribution(params), 20_000, seed=4)
        result = identify_in_class(truth, data)
        assert result.chosen == truth
        assert all(row.score is not None for row in result.table)
        assert result.margin > 0

    def test_dataset_rows_match_equal_variance_fit(self):
        truth = ChainGraph(4, directed={(0, 1), (0, 2)}, undirected={(1, 2), (2, 3)})
        params = rescale_equal_variances(random_parameters(truth, seed=8), 1.0)
        data = sample(implied_distribution(params), 1000, seed=9)
        result = identify_in_class(truth, data)
        assert result.class_size > 1
        for row in result.table:
            reference = fit(data, row.graph, equal_variances=True)
            assert abs(row.loglik - reference.loglik) < 1e-9
            assert row.converged == reference.converged
            assert row.dispersion == reference.dispersion == 0.0


class TestGreedySearch:
    def test_independent_data_returns_empty_graph(self):
        cov = np.diag([1.0, 1.3, 0.8])
        assert greedy_search(cov, SearchConfig(restarts=2)) == ChainGraph(3)

    def test_two_node_exact(self):
        truth = ChainGraph(2, directed={(0, 1)})
        params = rescale_equal_variances(random_parameters(truth, seed=5), 1.0)
        cov = implied_distribution(params).cov
        assert greedy_search(cov, SearchConfig(restarts=2)) == truth

    def test_three_node_chain_exact(self):
        truth = ChainGraph(3, directed={(0, 1), (1, 2)})
        params = rescale_equal_variances(random_parameters(truth, seed=6), 1.0)
        cov = implied_distribution(params).cov
        assert greedy_search(cov, SearchConfig(restarts=3)) == truth

    def test_deterministic_given_seed(self):
        truth = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        params = rescale_equal_variances(random_parameters(truth, seed=7), 1.0)
        cov = implied_distribution(params).cov
        cfg = SearchConfig(restarts=3, seed=11)
        assert greedy_search(cov, cfg) == greedy_search(cov, cfg)

    def test_collinear_column_fails_before_searching(self, monkeypatch):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(500, 3))
        values[:, 2] = values[:, 0] + values[:, 1]
        data = Dataset(values, labels=("X1", "X2", "X3"))

        def no_scoring(*args, **kwargs):
            raise AssertionError("a candidate was scored")

        monkeypatch.setattr(estimation.EqualVarianceScorer, "loglik", no_scoring)
        with pytest.raises(ValueError, match="column X3 is a linear combination"):
            greedy_search(data, SearchConfig(restarts=2))

    def test_input_validated_once_per_search(self, monkeypatch):
        calls = []
        original = estimation.moment_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "moment_matrix", counting)
        truth = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        params = rescale_equal_variances(random_parameters(truth, seed=10), 1.0)
        data = sample(implied_distribution(params), 1000, seed=11)
        greedy_search(data, SearchConfig(restarts=2))
        assert len(calls) == 1


class TestSkeletonRecovery:
    def test_six_node_population(self, six_node_graph):
        params, _ = faithful_parameters(six_node_graph, seed=41)
        cov = implied_distribution(params).cov
        result = skeleton_recovery(cov)
        assert result.consistent
        assert markov_equivalent(result.graph, six_node_graph)

    def test_independent_population_gives_empty(self):
        result = skeleton_recovery(np.diag([1.0, 2.0, 0.7]))
        assert result.consistent and result.graph == ChainGraph(3)

    def test_collider_recovered(self):
        truth = ChainGraph(3, directed={(0, 1), (2, 1)})
        params, _ = faithful_parameters(truth, seed=42)
        cov = implied_distribution(params).cov
        result = skeleton_recovery(cov)
        assert result.consistent
        assert markov_equivalent(result.graph, truth)

    def test_unrealizable_triplexes_fall_back_to_skeleton(self):
        # 0 and 2, and 1 and 3, are marginally independent on the 4-cycle
        # 0 - 1 - 2 - 3 - 0, so every node is a triplex center: no chain
        # graph has those triplexes
        a = 0.3
        cov = np.array([[1, a, 0, a], [a, 1, a, 0], [0, a, 1, a], [a, 0, a, 1.0]])
        result = skeleton_recovery(cov)
        assert not result.consistent
        assert result.graph == ChainGraph(4, undirected={(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_non_finite_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            skeleton_recovery(cov)

    def test_finite_sample_flag_is_best_effort(self):
        truth = ChainGraph(3, directed={(0, 1), (2, 1)})
        params, _ = faithful_parameters(truth, seed=43)
        data = sample(implied_distribution(params), 2000, seed=44)
        result = skeleton_recovery(data)
        assert result.graph.p == 3  # flag may go either way; output must exist

    def test_cap_checked_before_table(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("built a partial-correlation table over the cap")

        monkeypatch.setattr(sem, "_partial_correlations", forbidden)
        monkeypatch.setattr(search, "_independences", forbidden)
        with pytest.raises(CapacityError, match="capped at p=8, got p=9"):
            skeleton_recovery(np.eye(9))

    def test_sweeps_run_no_single_query(self, six_node_graph, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a CI sweep inverted a submatrix per query")

        monkeypatch.setattr(sem, "_partial_correlation", forbidden)
        monkeypatch.setattr(search, "_partial_correlation", forbidden, raising=False)
        params, draws = faithful_parameters(six_node_graph, seed=41)
        assert draws >= 1
        dist = implied_distribution(params)
        assert markov_equivalent(skeleton_recovery(dist.cov).graph, six_node_graph)
        assert skeleton_recovery(sample(dist, 500, seed=45)).graph.p == 6

    def test_conditioned_entries_never_decide(self, six_node_graph, monkeypatch):
        # a table entry with a query node in its own conditioning set is
        # never read: forcing every such entry to True, then to False,
        # changes no faithful draw and no recovered skeleton
        params, _ = faithful_parameters(six_node_graph, seed=41)
        dist = implied_distribution(params)
        data = sample(dist, 500, seed=45)

        def outcomes():
            drawn, draws = faithful_parameters(six_node_graph, seed=41)
            skeletons = [skeleton_recovery(x) for x in (dist.cov, data)]
            return draws, drawn.beta.tolist(), [(r.graph, r.consistent) for r in skeletons]

        expected = outcomes()
        assert markov_equivalent(expected[2][0][0], six_node_graph)
        original = sem._independences
        for value in (True, False):

            def forced(s, n=None, value=value):
                table = original(s, n)
                bits = sem._mask_bits(len(s))
                table[bits[:, :, None] | bits[:, None, :]] = value
                return table

            monkeypatch.setattr(sem, "_independences", forced)
            monkeypatch.setattr(search, "_independences", forced)
            assert outcomes() == expected


class TestTwoPhase:
    def test_population_composition_recovers_truth(self, six_node_graph):
        params, _ = faithful_parameters(six_node_graph, seed=51, sigma2=1.0)
        cov = implied_distribution(params).cov
        result = two_phase(cov)
        assert result.chosen == six_node_graph

    def test_choice_survives_a_change_of_units(self, six_node_graph):
        params, _ = faithful_parameters(six_node_graph, seed=51, sigma2=1.0)
        cov = implied_distribution(params).cov
        assert two_phase(1e-11 * cov).chosen == two_phase(cov).chosen == six_node_graph
        assert identify_in_class(six_node_graph, 1e-11 * cov).chosen == six_node_graph
