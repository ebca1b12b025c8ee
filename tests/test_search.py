from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcg import (
    CapacityError,
    ChainGraph,
    Dataset,
    EqualVarianceScorer,
    SearchConfig,
    canonical_key,
    equivalence_class,
    estimation,
    faithful_parameters,
    fit,
    greedy_search,
    identify_in_class,
    implied_distribution,
    is_chain_graph,
    markov_equivalent,
    random_chain_graph,
    random_parameters,
    rescale_equal_variances,
    sample,
    search,
    sem,
    skeleton_recovery,
    structural_hamming_distance,
    two_phase,
)
from ampcg.estimation import moment_matrix
from ampcg.graphs import Triplex, _cycle_through, _mask, orientations
from ampcg.separation import pairwise_queries

from .conftest import chain_graphs
from .oracles import enumerate_chain_graphs, equal_variance_bic, greedy_full_scan, identify_in_class_loop

# Recorded before greedy scoring kept per-component records: (truth, greedy_search with 2 restarts
# at n=2000, identify_in_class at n=1000) on seeded p=4 problems, as "a>b" arrows and "a-b" edges.
# A change to the scoring path must choose the same graphs, or show that a better score moved one.
_PINNED_CHOICES = (
    ("1>2 3>2", "1>2 3>2", "1>2 3>2"),
    ("0>2", "0>2", "0>2"),
    ("3>1", "3>1", "3>1"),
    ("3>0 2-3", "2>3 3>0", "3>0 2-3"),
    ("1>0 1>2 3>0 3>2", "1>0 1>2 3>0 3>2", "1>0 1>2 3>0 3>2"),
    ("0>1 0>2 0>3 1-2 2-3", "0>1 0>2 0>3 2>1 2>3", "0>1 0>2 0>3 2>1 2>3"),
    ("2>0", "2>0", "2>0"),
    ("0>2 3>2", "0>2 3>2", "0>2 3>2"),
    ("0>1 0>2 1>2 1>3 3>2", "0>1 0>2 1>2 1>3 3>2", "0>1 0>2 1>2 1>3 3>2"),
    ("0>1 2>1 2>3", "0>1 2>1 2>3", "0>1 2>1 2>3"),
    ("0>3 1>0 2>0 1-2", "0>3 1>0 2>0 1-2", "0>3 1>0 2>0 1-2"),
    ("0>3 1>0 1>2", "0>3 1>0 1>2", "0>3 1>0 1>2"),
    ("1>0 3>0 3>2", "1>0 3>0 3>2", "1>0 3>0 3>2"),
    ("1>0 2>0 3>0 3>1", "1>0 2>0 3>0 3>1", "1>0 2>0 3>0 3>1"),
    ("0-2 0-3", "0-2 0-3", "0>2 3>0"),
    ("0>1 0-2", "0>1 0-2", "0>1 0-2"),
    ("0-1", "0>2 0-1", "0-1"),
    ("0>1 0>2 0>3 2>1 3>2", "0>1 0>3 2>1 2-3", "0>1 0>2 0>3 2>1 3>2"),
    ("2>1", "2>1", "2>1"),
    ("1>3", "1>3", "1>3"),
)

# Recorded while greedy search still built and checked every neighbour graph: (truth,
# greedy_search with 2 restarts at n=2000) on seeded p=5 problems.
_PINNED_P5_CHOICES = (
    ("0>1 0>2 0>4 1-2 1-4 2-3 2-4", "0>1 0>2 0>4 1>2 2>3 4>2 1-4"),
    ("0>2 0>4 1>0 1>3", "0>2 0>4 1>0 1>3"),
    ("0>1 3>1 3>2 0-3 1-2", "0>1 3>1 3>2 0-3 1-2"),
    ("1>2 2>0 3>2 4>0 1-3", "0>2 2>1 3>0 3>2 4>0 4>2"),
    ("0>4 1>2 2>4 3>0 3>2 0-1", "0>4 1>2 2>4 3>0 3>2 0-1"),
    ("0>2 4>0", "0>2 4>0"),
    ("1>4 2>4 3>0 4>0 1-2", "1>4 2>4 3>0 4>0 1-2"),
    ("1>0 1>4 3-4", "1>0 1>4 3-4"),
)


def _edges(g: ChainGraph) -> str:
    return " ".join([f"{a}>{b}" for a, b in sorted(g.directed)] + [f"{a}-{b}" for a, b in sorted(g.undirected)])


def test_data_choices_are_pinned():
    found = []
    for i in range(len(_PINNED_CHOICES)):
        truth = random_chain_graph(4, 0.4, 0.3, seed=sem.compose_seed(2026, i))
        params = rescale_equal_variances(random_parameters(truth, seed=sem.compose_seed(2026, i, 1)))
        dist = implied_distribution(params)
        greedy = greedy_search(sample(dist, 2000, seed=sem.compose_seed(2026, i, 2)), SearchConfig(restarts=2, seed=i))
        chosen = identify_in_class(truth, sample(dist, 1000, seed=sem.compose_seed(2026, i, 3))).chosen
        found.append((_edges(truth), _edges(greedy), _edges(chosen)))
    assert tuple(found) == _PINNED_CHOICES


def test_five_node_greedy_choices_are_pinned():
    found = []
    for i in range(len(_PINNED_P5_CHOICES)):
        truth = random_chain_graph(5, 0.4, 0.3, seed=sem.compose_seed(2026, 5, i))
        params = rescale_equal_variances(random_parameters(truth, seed=sem.compose_seed(2026, 5, i, 1)))
        data = sample(implied_distribution(params), 2000, seed=sem.compose_seed(2026, 5, i, 2))
        found.append((_edges(truth), _edges(greedy_search(data, SearchConfig(restarts=2, seed=i)))))
    assert tuple(found) == _PINNED_P5_CHOICES


def _bits(result) -> tuple:
    """Everything an identification result says, floats as their exact hex."""
    rows = tuple((row.graph, row.dispersion.hex(), row.gap.hex()) for row in result.table)
    return result.chosen, result.margin.hex(), result.loglik.hex(), result.class_size, result.converged, rows


class TestIdentifyInClass:
    @pytest.mark.parametrize("p", range(2, 10))
    def test_ranks_the_class_bitwise_as_a_member_loop(self, p):
        # one array pass over the class gives every row, margin and choice of the one-member-at-a-time loop, to the bit
        sizes = []
        for trial in range(3):
            g = random_chain_graph(p, 0.5, 0.4, seed=sem.compose_seed(2024, p, trial))
            dist = implied_distribution(rescale_equal_variances(random_parameters(g, seed=trial), 1.0))
            for data_or_cov in (dist.cov, sample(dist, 30 * p, seed=trial)):
                result = identify_in_class(g, data_or_cov)
                assert _bits(result) == _bits(identify_in_class_loop(g, data_or_cov))
                sizes.append(result.class_size)
        assert max(sizes) >= 3

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

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        original = estimation.moment_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "moment_matrix", counting)
        monkeypatch.setattr(search, "moment_matrix", counting)
        return calls

    def test_covariance_validated_once_per_call(self, six_node_graph, validations):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        result = identify_in_class(six_node_graph, implied_distribution(params).cov)
        assert result.class_size > 1
        assert len(validations) == 1

    def test_dataset_validated_once_per_call(self, six_node_graph, validations):
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        result = identify_in_class(six_node_graph, sample(implied_distribution(params), 1000, seed=32))
        assert result.class_size > 1
        assert len(validations) == 1

    def test_population_rows_match_unconstrained_fit(self):
        # the criterion-7 instances: on every member the closed-form
        # residual variances agree with the iterative fit's error variances
        members = 0
        for trial in range(60):
            g = random_chain_graph(2 + trial % 5, 0.5, 0.5, seed=trial + 7_000)
            params = rescale_equal_variances(random_parameters(g, seed=trial + 1), 1.0)
            cov = implied_distribution(params).cov
            result = identify_in_class(g, cov)
            assert result.converged
            for row in result.table:
                reference = fit(cov, row.graph)
                assert abs(row.dispersion - reference.dispersion) < 1e-9
                assert abs(result.loglik - reference.loglik) < 1e-9
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

    def test_population_solves_each_regression_once(self, six_node_graph, monkeypatch):
        # the population check and the member loop share one solve per (node, parent set)
        cov = implied_distribution(rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)).cov
        solves = []
        original = np.linalg.solve

        def counting(a, b):
            if np.ndim(b) == 1:  # a regression's normal equations; a log-likelihood solves for a matrix
                solves.append(1)
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        result = identify_in_class(six_node_graph, cov)
        monkeypatch.undo()
        regressions = {(v, into) for row in result.table for v, into in enumerate(row.graph._parents) if into}
        assert result.class_size > 1
        assert len(solves) == len(regressions)

    def test_population_checks_the_class_reproduces_the_input(self):
        chain = ChainGraph(3, directed={(0, 1), (1, 2)})
        cov = implied_distribution(rescale_equal_variances(random_parameters(chain, seed=2), 1.0)).cov
        with pytest.raises(ValueError, match="residuals of X1 and X2 .* without an undirected edge"):
            identify_in_class(ChainGraph(3, directed={(0, 1)}), cov)
        assert identify_in_class(chain, cov).chosen == chain
        assert identify_in_class(ChainGraph(3, directed={(0, 1), (0, 2), (1, 2)}), cov).class_size > 1  # complete

    def test_dataset_path_ranks_on_gap(self):
        truth = ChainGraph(2, directed={(0, 1)})
        params = rescale_equal_variances(random_parameters(truth, seed=3), 1.0)
        data = sample(implied_distribution(params), 20_000, seed=4)
        result = identify_in_class(truth, data)
        assert result.chosen == truth
        gaps = [row.gap for row in result.table]
        assert gaps == sorted(gaps)
        assert result.margin == gaps[1] - gaps[0] > 0

    def test_dataset_rows_match_unconstrained_fit(self):
        # Markov-equivalent members share one model, so the fit of the member
        # with the fewest undirected edges is every member's: each row's
        # residual variances on it are the member's own fitted error variances
        members = 0
        for trial in range(40):
            g = random_chain_graph(2 + trial % 5, 0.5, 0.5, seed=trial + 7_000)
            params = rescale_equal_variances(random_parameters(g, seed=trial + 1), 1.0)
            data = sample(implied_distribution(params), 500, seed=trial + 2)
            rep = fit(data, min(equivalence_class(g), key=lambda h: len(h.undirected)))
            result = identify_in_class(g, data)
            assert result.loglik == rep.loglik and result.converged == rep.converged
            for row in result.table:
                reference = fit(data, row.graph)
                assert abs(row.dispersion - reference.dispersion) < 1e-9
                assert abs(result.loglik - reference.loglik) < 1e-9
                members += 1
        assert members > 40

    @pytest.mark.parametrize("p", range(3, 8))
    def test_every_member_fit_gives_one_covariance(self, p):
        # why any one member's fit serves the class: Markov-equivalent members share one model,
        # so every member's converged unconstrained fit reaches the same maximum
        members = 0
        for trial in range(6):
            g = random_chain_graph(p, 0.5, 0.4, seed=sem.compose_seed(27, p, trial))
            params = rescale_equal_variances(random_parameters(g, seed=trial), 1.0)
            data = sample(implied_distribution(params), 40 * p, seed=trial)
            fits = [fit(data, h) for h in equivalence_class(g)]
            assert all(f.converged for f in fits)
            first = fits[0]
            for f in fits[1:]:
                assert np.max(np.abs(f.cov - first.cov)) <= 1e-9 * np.max(np.abs(first.cov))
                assert abs(f.loglik - first.loglik) <= 1e-9 * abs(first.loglik)
                members += 1
        assert members > 0

    def test_dag_member_gap_is_the_equal_variance_likelihood_ratio(self):
        dags = 0
        for trial in range(40):
            g = random_chain_graph(2 + trial % 5, 0.5, 0.5, seed=trial + 7_100)
            params = rescale_equal_variances(random_parameters(g, seed=trial + 1), 1.0)
            data = sample(implied_distribution(params), 200, seed=trial + 3)
            for row in identify_in_class(g, data).table:
                if row.graph.undirected:
                    continue
                ratio = fit(data, row.graph).loglik - fit(data, row.graph, equal_variances=True).loglik
                assert abs(ratio - row.graph.p / 2 * row.gap) < 1e-12
                dags += 1
        assert dags > 40

    def test_dataset_runs_one_fit(self, six_node_graph, monkeypatch):
        # the unconstrained fit is the public `fit` of the member with the fewest undirected edges,
        # the first in canonical order on a tie, and it runs once per call
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return estimation.fit(*args, **kwargs)

        assert search.fit is estimation.fit
        monkeypatch.setattr(search, "fit", counting)
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        data = sample(implied_distribution(params), 1000, seed=32)
        result = identify_in_class(six_node_graph, data)
        members = equivalence_class(six_node_graph)
        fewest = min(len(h.undirected) for h in members)
        member = next(h for h in members if len(h.undirected) == fewest)
        assert calls == [member] and result.class_size > 1
        assert len(member.undirected) < len(six_node_graph.undirected)  # not the representative
        rep = estimation.fit(data, member)
        assert (result.loglik, result.converged) == (rep.loglik, rep.converged)

    def test_dataset_runs_no_equal_variance_solve(self, six_node_graph, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("identification on data ran an equal-variance solve")

        for name in ("_equal_variance_solve", "_descend", "_one_edge_correlation"):
            monkeypatch.setattr(estimation, name, forbidden)
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        data = sample(implied_distribution(params), 1000, seed=32)
        result = identify_in_class(six_node_graph, data)
        assert result.class_size > 1 and result.chosen == six_node_graph

    def test_nonconverged_representative_fit_is_flagged(self):
        # no member of this class is a DAG, and on six rows the GLS/IPF alternation of every
        # member, the one with the fewest undirected edges included, stops short at the round cap
        g = random_chain_graph(5, 0.6, 0.6, seed=99)
        data = Dataset(np.random.default_rng(595).normal(size=(6, 5)))
        members = equivalence_class(g)
        assert all(h.undirected for h in members)
        assert not fit(data, min(members, key=lambda h: len(h.undirected))).converged
        assert not fit(data, g).converged
        result = identify_in_class(g, data)
        assert result.class_size > 1
        assert not result.converged


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

    def test_neighbors_are_the_chain_graphs_one_edge_state_away(self):
        every = {p: list(enumerate_chain_graphs(p)) for p in (3, 4)}
        rng = np.random.default_rng(8)
        picked = every[3] + [every[4][i] for i in rng.choice(len(every[4]), size=30, replace=False)]
        assert len(picked) == 50 + 30
        for g in picked:
            moves = list(search._moves(g))
            assert len(set(moves)) == len(moves)
            neighbors = [search._graph(g.p, *move) for move in moves]
            # a move's parent tuples are the ones its graph holds, so both share cache keys
            assert [(h._parents, h.undirected) for h in neighbors] == moves
            assert set(neighbors) == {h for h in every[g.p] if structural_hamming_distance(g, h) == 1}, g

    @settings(max_examples=60, deadline=None)
    @given(chain_graphs(max_p=6))
    def test_a_move_builds_the_graph_the_constructor_builds(self, g):
        # the taken move is built on the trusted path, from masks, yet is the public constructor's graph
        for parents, undirected in search._moves(g):
            built = search._graph(g.p, parents, undirected)
            h = ChainGraph(g.p, [(j, k) for k, into in enumerate(parents) for j in into], undirected)
            assert type(built) is ChainGraph and built == h and hash(built) == hash(h)
            assert canonical_key(built) == canonical_key(h) and vars(built) == vars(h)
            assert (built._child_masks, built._neighbor_masks) == (h._child_masks, h._neighbor_masks)
            assert built.labels is None and is_chain_graph(built)

    @settings(max_examples=100, deadline=None)
    @given(chain_graphs(max_p=6))
    def test_walk_from_the_pair_decides_every_edge_state(self, g):
        valid = []
        for a, b in itertools.combinations(range(g.p), 2):
            own = g.edge_between(a, b)
            directed = {e for e in g.directed if set(e) != {a, b}}
            undirected = g.undirected - {(a, b)}
            for state in (None, "->", "<-", "--"):
                h = ChainGraph(
                    g.p,
                    directed | {"->": {(a, b)}, "<-": {(b, a)}}.get(state, set()),
                    undirected | ({(a, b)} if state == "--" else set()),
                )
                assert h.edge_between(a, b) == state
                children = [_mask(x) for x in h._children]
                neighbors = [_mask(x) for x in h._neighbors]
                assert is_chain_graph(h) == (state is None or not _cycle_through(children, neighbors, a)), h
                if state != own and is_chain_graph(h):
                    valid.append((h._parents, h.undirected))
        assert list(search._moves(g)) == valid

    def test_scoring_a_move_matches_scoring_its_graph(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4)))
        by_move, by_graph = EqualVarianceScorer(data, 4), EqualVarianceScorer(data, 4)
        names = (
            "graphs",
            "records_built",
            "records_reused",
            "one_edge_solves",
            "sweep_solves",
            "sweeps",
            "descents",
            "descent_steps",
            "nonconverged",
        )
        starts = [ChainGraph(4, undirected={(0, 1), (1, 2)}), ChainGraph(4, {(0, 1), (2, 1)}, {(2, 3)})]
        for g in starts + [random_chain_graph(4, 0.5, 0.5, seed=seed) for seed in range(6)]:
            for move in search._moves(g):
                assert by_move.state_loglik(*move) == by_graph.loglik(search._graph(4, *move))
                assert [getattr(by_move, name) for name in names] == [getattr(by_graph, name) for name in names]
        assert by_move.descents > 0 and by_move.sweep_solves > 0 and by_move.one_edge_solves > 0

    @pytest.mark.parametrize(
        "offdiagonal",
        [
            # (0,1), (0,2), (0,3), (1,2), (1,3), (2,3): improving moves tie exactly, and the first
            # of them in pair order is not the one with fewest directed edges and least key
            (0.0, 0.25, 0.25, 0.5, 0.0, 0.5),
            (0.25, 0.25, 0.25, 0.0, 0.5, 0.5),
        ],
    )
    def test_ties_break_as_a_sorted_scan_of_every_neighbour(self, offdiagonal):
        cov = np.eye(4)
        for (a, b), value in zip(itertools.combinations(range(4), 2), offdiagonal):
            cov[a, b] = cov[b, a] = value
        every = list(enumerate_chain_graphs(4))
        scorer = EqualVarianceScorer(cov, 4)

        def score(h):
            return equal_variance_bic(scorer.loglik(h)[0], h, estimation._POPULATION_N_EFF)

        g = ChainGraph(4)
        while True:
            neighbors = [h for h in every if structural_hamming_distance(g, h) == 1]
            neighbors.sort(key=lambda h: (len(h.directed), canonical_key(h)))
            best = max(neighbors, key=score)  # the first of equal scores
            if score(best) <= score(g):
                break
            g = best
        assert greedy_search(cov, SearchConfig(restarts=1)) == greedy_full_scan(cov, SearchConfig(restarts=1)) == g

    def test_bounded_scan_chooses_as_a_full_scan(self):
        problems = 0
        for p, count in ((3, 12), (4, 12), (5, 10), (6, 6)):
            for i in range(count):
                truth = random_chain_graph(p, 0.4, 0.3, seed=sem.compose_seed(2718, p, i))
                dist = implied_distribution(rescale_equal_variances(random_parameters(truth, seed=i)))
                source = dist.cov if i % 2 else sample(dist, 500, seed=sem.compose_seed(2718, p, i, 1))
                cfg = SearchConfig(restarts=2, seed=i)
                assert greedy_search(source, cfg) == greedy_full_scan(source, cfg), (p, i)
                problems += 1
        assert problems >= 40

    def test_scores_fewer_states_than_it_bounds(self, six_node_graph, monkeypatch):
        scorers = []

        class Counted(EqualVarianceScorer):
            def __init__(self, *args):
                super().__init__(*args)
                scorers.append(self)

        monkeypatch.setattr(search, "EqualVarianceScorer", Counted)
        params = rescale_equal_variances(random_parameters(six_node_graph, seed=31), 1.0)
        greedy_search(sample(implied_distribution(params), 1000, seed=32), SearchConfig(restarts=2))
        (scorer,) = scorers
        assert 0 < scorer.graphs < scorer.bounds

    @settings(max_examples=50, deadline=None)
    @given(st.lists(chain_graphs(min_p=4, max_p=4), min_size=2, max_size=8))
    def test_rank_orders_states_as_graphs(self, graphs):
        by_state = sorted(graphs, key=lambda g: search._rank(g._parents, g.undirected))
        assert by_state == sorted(graphs, key=lambda g: (len(g.directed), canonical_key(g)))

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

        monkeypatch.setattr(estimation.EqualVarianceScorer, "state_loglik", no_scoring)
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

    def test_builds_one_graph_of_a_larger_class(self, monkeypatch):
        truth = ChainGraph(4, directed={(0, 1), (2, 1)}, undirected={(2, 3)})
        params, _ = faithful_parameters(truth, seed=7)
        built = []
        build = ChainGraph._from_masks

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(ChainGraph, "_from_masks", counting)
        members = len(equivalence_class(truth))
        assert members > 1 and len(built) == members
        for x in (implied_distribution(params).cov, sample(implied_distribution(params), 1000, seed=8)):
            built.clear()
            result = skeleton_recovery(x)
            assert len(built) == 1 and result.consistent and markov_equivalent(result.graph, truth)
            assert result.graph == ChainGraph(4, result.graph.directed, result.graph.undirected)

    def test_keeps_each_pairs_first_separating_set_in_query_order(self, monkeypatch):
        asked = []

        def spy(p, adjacency, target):
            asked.append((set(adjacency), set(target)))
            return orientations(p, adjacency, target)

        monkeypatch.setattr(search, "orientations", spy)
        for p, seed, n in ((5, 3, None), (6, 8, None), (6, 8, 300), (5, 11, 200)):
            truth = random_chain_graph(p, 0.4, 0.3, seed=seed)
            dist = implied_distribution(faithful_parameters(truth, seed=seed)[0])
            x = dist.cov if n is None else sample(dist, n, seed=seed)
            indep = sem._independences(*moment_matrix(x, p))
            sepset = {}
            for j, k, cond in pairwise_queries(p):  # one scalar lookup per query, the first hit kept
                if (j, k) not in sepset and indep[_mask(cond), j, k]:
                    sepset[(j, k)] = cond
            adjacency = set(itertools.combinations(range(p), 2)) - set(sepset)
            target = {
                Triplex(j, k, l)
                for (j, l), cond in sepset.items()
                for k in range(p)
                if k not in cond and {(min(j, k), max(j, k)), (min(k, l), max(k, l))} <= adjacency
            }
            asked.clear()
            skeleton_recovery(x)
            assert asked == [(adjacency, target)]

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
        with pytest.raises(CapacityError, match="capped at p=12, got p=13"):
            skeleton_recovery(np.eye(13))

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
    @pytest.mark.parametrize("p", [9, 10, 11, 12])
    def test_population_exact_up_to_the_class_cap(self, p):
        for seed in range(3):
            truth = random_chain_graph(p, 0.3, 0.3, seed=seed)
            params = rescale_equal_variances(random_parameters(truth, seed=seed))
            assert two_phase(implied_distribution(params).cov).chosen == truth

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
