from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcg import (
    CapacityError,
    ChainGraph,
    SeparationQuery,
    all_separations,
    magnify,
    markov_equivalent,
    random_chain_graph,
    separated,
    separated_magnified,
    separation,
)
from ampcg.graphs import _mask
from ampcg.separation import pairwise_queries

from .conftest import chain_graphs
from .oracles import brute_force_separated, enumerate_chain_graphs, literal_route_separated


def _singleton_queries(p):
    for j, k in itertools.combinations(range(p), 2):
        rest = [x for x in range(p) if x != j and x != k]
        for r in range(len(rest) + 1):
            for cond in itertools.combinations(rest, r):
                yield SeparationQuery(frozenset({j}), frozenset({k}), frozenset(cond))


def _separated_triples(g):
    return {
        (min(q.a), min(q.b), tuple(sorted(q.c)))
        for q in _singleton_queries(g.p)
        if separated(g, q)
    }


class TestQueryTable:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_query_table_indexes_every_pairwise_query(self, p):
        queries, masks, js, ks = separation._query_table(p)
        assert queries == tuple((min(q.a), min(q.b), tuple(sorted(q.c))) for q in _singleton_queries(p))
        assert pairwise_queries(p) is queries
        assert list(zip(masks.tolist(), js.tolist(), ks.tolist())) == [(_mask(c), j, k) for j, k, c in queries]
        assert not any(a.flags.writeable for a in (masks, js, ks))  # shared by every caller
        assert separation._query_table(p)[1] is masks


class TestQueryValidation:
    def test_sets_must_be_disjoint(self):
        with pytest.raises(ValueError):
            SeparationQuery(frozenset({0}), frozenset({0}))
        with pytest.raises(ValueError):
            SeparationQuery(frozenset({0}), frozenset({1}), frozenset({1}))

    def test_sets_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SeparationQuery(frozenset(), frozenset({1}))

    def test_out_of_range_node(self):
        g = ChainGraph(2, directed={(0, 1)})
        with pytest.raises(ValueError):
            separated(g, SeparationQuery(frozenset({0}), frozenset({5})))


class TestSixNodeExamples:
    def test_blocked_by_common_parent(self, six_node_graph):
        assert separated(six_node_graph, SeparationQuery(frozenset({1}), frozenset({2}), frozenset({0})))

    def test_open_through_common_parent(self, six_node_graph):
        assert not separated(six_node_graph, SeparationQuery(frozenset({1}), frozenset({2})))

    def test_conditioning_on_triplex_center_opens(self, six_node_graph):
        q = SeparationQuery(frozenset({1}), frozenset({2}), frozenset({0, 3}))
        assert not separated(six_node_graph, q)

    def test_oracle_confirms_six_node_answers(self, six_node_graph):
        d, u = set(six_node_graph.directed), set(six_node_graph.undirected)
        assert literal_route_separated(6, d, u, {1}, {2}, {0}, max_edges=8)
        assert not literal_route_separated(6, d, u, {1}, {2}, set(), max_edges=8)
        assert not literal_route_separated(6, d, u, {1}, {2}, {0, 3}, max_edges=8)

    def test_implementations_agree_without_hand_value(self, six_node_graph):
        # no asserted truth value; the two implementations must only agree
        q = SeparationQuery(frozenset({4}), frozenset({1}), frozenset({2, 3}))
        assert separated(six_node_graph, q) == brute_force_separated(six_node_graph, q)


class TestBasics:
    def test_disconnected_nodes_always_separated(self):
        g = ChainGraph(4, directed={(0, 1)})
        assert separated(g, SeparationQuery(frozenset({0, 1}), frozenset({2}), frozenset({3})))

    def test_direct_edge_never_separated(self):
        g = ChainGraph(2, directed={(0, 1)})
        assert not separated(g, SeparationQuery(frozenset({0}), frozenset({1})))
        assert not brute_force_separated(g, SeparationQuery(frozenset({0}), frozenset({1})))

    def test_set_valued_queries(self):
        g = ChainGraph(4, directed={(0, 2), (1, 2)}, undirected={(2, 3)})
        assert separated(g, SeparationQuery(frozenset({0, 1}), frozenset({3})))
        assert not separated(g, SeparationQuery(frozenset({0, 1}), frozenset({3}), frozenset({2})))
        assert separated(g, SeparationQuery(frozenset({0}), frozenset({1})))

    def test_brute_force_max_len_validation(self):
        g = ChainGraph(2, directed={(0, 1)})
        with pytest.raises(ValueError):
            brute_force_separated(g, SeparationQuery(frozenset({0}), frozenset({1})), max_len=0)


class TestAgreement:
    def test_exhaustive_p_le_3_against_both_oracles(self):
        for p in (2, 3):
            for g in enumerate_chain_graphs(p):
                d, u = set(g.directed), set(g.undirected)
                for q in _singleton_queries(p):
                    fast = separated(g, q)
                    swept = brute_force_separated(g, q)
                    literal = literal_route_separated(p, d, u, set(q.a), set(q.b), set(q.c), 3 * p)
                    assert fast == swept == literal, (g, q)

    def test_exhaustive_set_valued_queries_p3(self):
        # every assignment of nodes to (a | b | c | unused), a and b non-empty
        for g in enumerate_chain_graphs(3):
            d, u = set(g.directed), set(g.undirected)
            mg = magnify(g)
            for roles in itertools.product(range(4), repeat=3):
                a = frozenset(i for i, r in enumerate(roles) if r == 0)
                b = frozenset(i for i, r in enumerate(roles) if r == 1)
                c = frozenset(i for i, r in enumerate(roles) if r == 2)
                if not a or not b:
                    continue
                q = SeparationQuery(a, b, c)
                fast = separated(g, q)
                assert fast == brute_force_separated(g, q)
                assert fast == literal_route_separated(3, d, u, set(a), set(b), set(c), 9)
                assert fast == separated_magnified(mg, q)

    @settings(max_examples=120, deadline=None)
    @given(chain_graphs(min_p=2, max_p=6), st.data())
    def test_random_graph_agreement(self, g, data):
        nodes = list(range(g.p))
        j, k = data.draw(st.permutations(nodes))[:2]
        rest = [x for x in nodes if x not in (j, k)]
        cond = data.draw(st.sets(st.sampled_from(rest), max_size=len(rest))) if rest else set()
        q = SeparationQuery(frozenset({j}), frozenset({k}), frozenset(cond))
        assert separated(g, q) == brute_force_separated(g, q)

    @settings(max_examples=100, deadline=None)
    @given(chain_graphs(min_p=2, max_p=6), st.data())
    def test_symmetry_and_decomposition(self, g, data):
        nodes = list(range(g.p))
        perm = data.draw(st.permutations(nodes))
        j, k = perm[0], perm[1]
        rest = perm[2:]
        cut = data.draw(st.integers(0, len(rest)))
        cond = frozenset(rest[:cut])
        extra = [x for x in rest[cut:]]
        q = SeparationQuery(frozenset({j}), frozenset({k}), cond)
        assert separated(g, q) == separated(g, SeparationQuery(q.b, q.a, q.c))
        if extra:
            bigger = SeparationQuery(frozenset({j, extra[0]}), frozenset({k}), cond)
            if separated(g, bigger):
                assert separated(g, q)


class TestMagnified:
    def test_undirected_pair_open_through_error_nodes(self):
        mg = magnify(ChainGraph(2, undirected={(0, 1)}))
        assert not separated_magnified(mg, SeparationQuery(frozenset({0}), frozenset({1})))

    def test_empty_base_graph(self):
        mg = magnify(ChainGraph(3))
        for q in _singleton_queries(3):
            assert separated_magnified(mg, q)

    def test_error_nodes_not_queryable(self):
        mg = magnify(ChainGraph(2, directed={(0, 1)}))
        with pytest.raises(ValueError):
            separated_magnified(mg, SeparationQuery(frozenset({0}), frozenset({2})))

    def test_exhaustive_agreement_with_base_p_le_3(self):
        for p in (2, 3):
            for g in enumerate_chain_graphs(p):
                mg = magnify(g)
                for q in _singleton_queries(p):
                    assert separated_magnified(mg, q) == separated(g, q), (g, q)

    def test_six_node_spot_checks(self, six_node_graph):
        mg = magnify(six_node_graph)
        for q in itertools.islice(_singleton_queries(6), 0, 240, 7):
            assert separated_magnified(mg, q) == separated(six_node_graph, q)


class TestAllSeparations:
    def test_empty_graph_everything_separated(self):
        got = all_separations(ChainGraph(3))
        assert len(got) == 3 * 2  # 3 pairs x (empty set + the third node)

    def test_complete_graph_nothing_separated(self):
        g = ChainGraph(3, directed={(0, 1), (0, 2), (1, 2)})
        assert all_separations(g) == frozenset()

    def test_equivalent_graphs_same_separations(self):
        g = ChainGraph(3, directed={(0, 1), (2, 1)})
        h = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        assert markov_equivalent(g, h)
        assert all_separations(g) == all_separations(h)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            all_separations(ChainGraph(13))

    @pytest.mark.parametrize("p", [7, 8])
    def test_above_six_nodes_matches_single_queries(self, p):
        rng = random.Random(p)
        for seed in range(3):
            g = random_chain_graph(p, 0.3 + 0.2 * seed, 0.3, seed=(p, seed))
            separations = all_separations(g)
            assert separations == _separated_triples(g), g
            for q in rng.sample(list(_singleton_queries(p)), 5):
                want = brute_force_separated(g, q)
                assert ((min(q.a), min(q.b), tuple(sorted(q.c))) in separations) == want

    def test_searches_once_per_node_and_set_with_a_later_node_outside(self, six_node_graph, monkeypatch):
        searches = []
        route_ends = separation._route_ends

        def counting(masks, sources, given):
            searches.append((sources, given))
            return route_ends(masks, sources, given)

        monkeypatch.setattr(separation, "_route_ends", counting)
        all_separations(six_node_graph)
        assert len(searches) == len(set(searches)) == 129  # the count the docstring gives, for 240 queries

    def test_one_search_per_node_and_set_matches_single_queries(self):
        for p in range(1, 5):
            for g in enumerate_chain_graphs(p):
                assert all_separations(g) == _separated_triples(g), g

    @settings(max_examples=200, deadline=None)
    @given(chain_graphs(min_p=2, max_p=6), st.data())
    def test_random_graphs_match_single_queries(self, g, data):
        separations = all_separations(g)
        assert separations == _separated_triples(g)
        queries = list(_singleton_queries(g.p))
        for q in data.draw(st.lists(st.sampled_from(queries), min_size=1, max_size=4)):
            want = brute_force_separated(g, q)
            assert separated(g, q) == want
            assert ((min(q.a), min(q.b), tuple(sorted(q.c))) in separations) == want
