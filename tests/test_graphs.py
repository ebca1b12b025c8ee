from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcg import (
    CapacityError,
    ChainGraph,
    GraphStructureError,
    Triplex,
    adjacencies,
    chain_components,
    determined_closure,
    equivalence_class,
    find_semidirected_cycle,
    is_chain_graph,
    magnify,
    markov_equivalent,
    orientations,
    random_chain_graph,
    relatives,
    structural_hamming_distance,
    triplexes,
)

from .conftest import chain_graphs
from .oracles import (
    enumerate_chain_graphs,
    equivalence_class_brute,
    has_semidirected_cycle_matrix,
    triplex_scan,
)


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError):
            ChainGraph(3, directed={(1, 1)})

    def test_duplicate_pair_rejected(self):
        with pytest.raises(GraphStructureError):
            ChainGraph(3, directed={(0, 1)}, undirected={(0, 1)})
        with pytest.raises(GraphStructureError):
            ChainGraph(3, directed={(0, 1), (1, 0)})

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphStructureError):
            ChainGraph(2, directed={(0, 2)})

    def test_label_count_checked(self):
        with pytest.raises(GraphStructureError):
            ChainGraph(2, labels=("only",))

    def test_undirected_stored_sorted(self):
        g = ChainGraph(3, undirected={(2, 0)})
        assert g.undirected == frozenset({(0, 2)})

    def test_labels_do_not_affect_equality(self):
        a = ChainGraph(2, directed={(0, 1)})
        b = ChainGraph(2, directed={(0, 1)}, labels=("u", "v"))
        assert a == b and hash(a) == hash(b)


class TestValidity:
    def test_minimal_semidirected_cycle(self):
        g = ChainGraph(3, directed={(0, 1), (2, 0)}, undirected={(1, 2)})
        assert not is_chain_graph(g)
        cycle = find_semidirected_cycle(g)
        assert cycle[0] == cycle[-1] and len(cycle) >= 3

    def test_directed_cycle(self):
        assert not is_chain_graph(ChainGraph(3, directed={(0, 1), (1, 2), (2, 0)}))

    def test_six_node_example_is_valid(self, six_node_graph):
        assert is_chain_graph(six_node_graph)

    def test_empty_graph_is_valid(self):
        assert is_chain_graph(ChainGraph(5))

    def test_directed_edge_inside_undirected_block(self):
        g = ChainGraph(3, directed={(0, 2)}, undirected={(0, 1), (1, 2)})
        assert not is_chain_graph(g)

    @settings(max_examples=150, deadline=None)
    @given(chain_graphs(max_p=5))
    def test_agrees_with_matrix_closure_oracle(self, g):
        assert not has_semidirected_cycle_matrix(g.p, set(g.directed), set(g.undirected))

    def test_exhaustive_validity_against_oracle_p3(self):
        pairs = list(itertools.combinations(range(3), 2))
        for states in itertools.product(range(4), repeat=3):
            directed, undirected = set(), set()
            for (a, b), state in zip(pairs, states):
                if state == 1:
                    directed.add((a, b))
                elif state == 2:
                    directed.add((b, a))
                elif state == 3:
                    undirected.add((a, b))
            g = ChainGraph(3, frozenset(directed), frozenset(undirected))
            assert is_chain_graph(g) == (not has_semidirected_cycle_matrix(3, directed, undirected))


class TestRelatives:
    def test_parents_of_node_3(self, six_node_graph):
        assert relatives(six_node_graph, {3}, "parents") == frozenset({0, 1})

    def test_descendants_follow_directed_paths_only(self, six_node_graph):
        assert relatives(six_node_graph, {2}, "descendants") == frozenset({4})

    def test_parents_of_empty_set(self, six_node_graph):
        assert relatives(six_node_graph, set(), "parents") == frozenset()

    def test_non_descendants_complement(self, six_node_graph):
        de = relatives(six_node_graph, {0}, "descendants")
        nd = relatives(six_node_graph, {0}, "non_descendants")
        assert de | nd == frozenset(range(6)) and not de & nd

    def test_adjacents(self, six_node_graph):
        assert relatives(six_node_graph, {4}, "adjacents") == frozenset({2, 5})

    def test_bad_kind_and_bad_node(self, six_node_graph):
        with pytest.raises(ValueError):
            relatives(six_node_graph, {0}, "cousins")
        with pytest.raises(ValueError):
            relatives(six_node_graph, {9}, "parents")


class TestComponentsAndTriplexes:
    def test_six_node_components(self, six_node_graph):
        assert chain_components(six_node_graph) == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        )

    def test_dag_all_singletons(self):
        g = ChainGraph(4, directed={(0, 1), (1, 2), (2, 3)})
        assert all(len(c) == 1 for c in chain_components(g))

    def test_undirected_path_single_block(self):
        g = ChainGraph(3, undirected={(0, 1), (1, 2)})
        assert chain_components(g) == (frozenset({0, 1, 2}),)

    def test_six_node_triplexes(self, six_node_graph):
        assert triplexes(six_node_graph) == frozenset(
            {Triplex(1, 3, 2), Triplex(2, 4, 5), Triplex(3, 5, 4)}
        )

    def test_collider(self):
        g = ChainGraph(3, directed={(0, 1), (2, 1)})
        assert triplexes(g) == frozenset({Triplex(0, 1, 2)})

    def test_complete_graph_has_none(self):
        g = ChainGraph(3, directed={(0, 1), (0, 2), (1, 2)})
        assert triplexes(g) == frozenset()

    @settings(max_examples=150, deadline=None)
    @given(chain_graphs(max_p=5))
    def test_triplexes_match_oracle(self, g):
        got = {(t.j, t.k, t.l) for t in triplexes(g)}
        assert got == triplex_scan(g.p, set(g.directed), set(g.undirected))


class TestMarkovEquivalence:
    def test_single_edge_orientations_equivalent(self):
        assert markov_equivalent(ChainGraph(2, directed={(0, 1)}), ChainGraph(2, undirected={(0, 1)}))

    def test_collider_vs_flag(self):
        g = ChainGraph(3, directed={(0, 1), (2, 1)})
        h = ChainGraph(3, directed={(0, 1)}, undirected={(1, 2)})
        assert markov_equivalent(g, h)

    def test_collider_vs_chain(self):
        g = ChainGraph(3, directed={(0, 1), (2, 1)})
        h = ChainGraph(3, directed={(0, 1), (1, 2)})
        assert not markov_equivalent(g, h)

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError):
            markov_equivalent(ChainGraph(2), ChainGraph(3))


class TestMagnify:
    def test_six_node_magnification_exact(self, six_node_graph):
        mg = magnify(six_node_graph)
        assert mg.base.p == 12
        assert mg.error_of == tuple(range(6, 12))
        expected_directed = set(six_node_graph.directed) | {(6 + j, j) for j in range(6)}
        assert mg.base.directed == frozenset(expected_directed)
        assert mg.base.undirected == frozenset({(8, 9), (10, 11)})

    def test_single_node(self):
        mg = magnify(ChainGraph(1))
        assert mg.base.directed == frozenset({(1, 0)}) and not mg.base.undirected

    def test_undirected_pair(self):
        mg = magnify(ChainGraph(2, undirected={(0, 1)}))
        assert mg.base.directed == frozenset({(2, 0), (3, 1)})
        assert mg.base.undirected == frozenset({(2, 3)})

    @settings(max_examples=100, deadline=None)
    @given(chain_graphs(max_p=5))
    def test_magnified_graph_is_valid_and_doubles(self, g):
        mg = magnify(g)
        assert is_chain_graph(mg.base)
        assert mg.base.p == 2 * g.p
        assert g.directed <= mg.base.directed


class TestDeterminedClosure:
    def test_parentless_node_determines_its_error(self, six_node_graph):
        mg = magnify(six_node_graph)
        assert determined_closure(mg, {0}) == frozenset({0, 6})

    def test_empty_set(self, six_node_graph):
        assert determined_closure(magnify(six_node_graph), set()) == frozenset()

    def test_edge_pair_determines_both_errors(self):
        mg = magnify(ChainGraph(2, directed={(0, 1)}))
        assert determined_closure(mg, {0, 1}) == frozenset({0, 1, 2, 3})

    @settings(max_examples=80, deadline=None)
    @given(chain_graphs(max_p=4), st.data())
    def test_monotone_and_idempotent(self, g, data):
        mg = magnify(g)
        small = data.draw(st.sets(st.integers(0, mg.base.p - 1), max_size=mg.base.p))
        extra = data.draw(st.sets(st.integers(0, mg.base.p - 1), max_size=mg.base.p))
        closed = determined_closure(mg, small)
        assert closed <= determined_closure(mg, small | extra)
        assert determined_closure(mg, closed) == closed


class TestEquivalenceClass:
    def test_two_node_class(self):
        cls = equivalence_class(ChainGraph(2, directed={(0, 1)}))
        keys = {(tuple(sorted(h.directed)), tuple(sorted(h.undirected))) for h in cls}
        assert keys == {(((0, 1),), ()), (((1, 0),), ()), ((), ((0, 1),))}

    def test_collider_class(self):
        cls = equivalence_class(ChainGraph(3, directed={(0, 1), (2, 1)}))
        assert len(cls) == 3
        assert ChainGraph(3, undirected={(0, 1), (1, 2)}) not in cls

    def test_empty_graph_class(self):
        assert equivalence_class(ChainGraph(4)) == [ChainGraph(4)]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            equivalence_class(ChainGraph(13))

    def test_representative_with_semidirected_cycle_rejected(self):
        g = ChainGraph(3, directed={(0, 1), (1, 2)}, undirected={(0, 2)})
        with pytest.raises(ValueError, match="semidirected cycle: X1 -> X2 -> X3 - X1"):
            equivalence_class(g)

    def test_members_keep_representative_labels(self):
        g = ChainGraph(3, directed={(0, 1), (2, 1)}, labels=("a", "b", "c"))
        cls = equivalence_class(g)
        assert len(cls) == 3
        assert all(h.labels == ("a", "b", "c") for h in cls)

    @pytest.mark.parametrize("p", [8, 9, 10])
    def test_members_are_distinct_equivalent_chain_graphs(self, p):
        for seed in range(3):
            g = random_chain_graph(p, 0.35, 0.3, seed=seed)
            cls = equivalence_class(g)
            assert g in cls
            assert len(set(cls)) == len(cls)
            assert all(is_chain_graph(h) and markov_equivalent(g, h) for h in cls)

    @settings(max_examples=60, deadline=None)
    @given(chain_graphs(min_p=2, max_p=4))
    def test_matches_brute_force_enumeration(self, g):
        cls = equivalence_class(g)
        got = {(h.directed, h.undirected) for h in cls}
        want = equivalence_class_brute(g.p, set(g.directed), set(g.undirected))
        assert got == want

    def test_matches_brute_force_p5_sample(self):
        for seed in range(6):
            g = random_chain_graph(5, 0.45, 0.4, seed=seed)
            got = {(h.directed, h.undirected) for h in equivalence_class(g)}
            want = equivalence_class_brute(g.p, set(g.directed), set(g.undirected))
            assert got == want

    def test_matches_brute_force_p6_sparse_sample(self):
        found = 0
        seed = 0
        while found < 4 and seed < 60:
            g = random_chain_graph(6, 0.35, 0.4, seed=seed)
            seed += 1
            if not 1 <= g.n_edges() <= 8:
                continue
            found += 1
            got = {(h.directed, h.undirected) for h in equivalence_class(g)}
            want = equivalence_class_brute(g.p, set(g.directed), set(g.undirected))
            assert got == want
        assert found == 4


class TestOrientations:
    def test_order_of_marks(self):
        got = list(orientations(2, {(0, 1)}, frozenset()))
        assert got == [
            ChainGraph(2, undirected={(0, 1)}),
            ChainGraph(2, directed={(0, 1)}),
            ChainGraph(2, directed={(1, 0)}),
        ]

    def test_unrealizable_four_cycle_yields_nothing(self):
        cycle = {(0, 1), (1, 2), (2, 3), (0, 3)}
        target = {Triplex(1, 0, 3), Triplex(0, 1, 2), Triplex(1, 2, 3), Triplex(0, 3, 2)}
        assert list(orientations(4, cycle, target)) == []

    def test_triplex_off_the_skeleton_yields_nothing(self):
        assert list(orientations(3, {(0, 1)}, {Triplex(0, 1, 2)})) == []


class TestRandomChainGraph:
    def test_deterministic(self):
        a = random_chain_graph(6, 0.4, 0.3, seed=1)
        b = random_chain_graph(6, 0.4, 0.3, seed=1)
        assert a == b

    def test_zero_probability_gives_empty(self):
        g = random_chain_graph(6, 0.0, 0.0, seed=7)
        assert not g.directed and not g.undirected

    def test_full_probability_gives_complete_dag(self):
        g = random_chain_graph(6, 1.0, 0.0, seed=7)
        assert is_chain_graph(g)
        assert len(g.directed) == 15 and not g.undirected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.floats(0, 1), st.floats(0, 1), st.integers(0, 10_000))
    def test_always_valid(self, p, edge_prob, undirected_frac, seed):
        assert is_chain_graph(random_chain_graph(p, edge_prob, undirected_frac, seed))


class TestUtilities:
    def test_enumeration_counts_small(self):
        assert sum(1 for _ in enumerate_chain_graphs(1)) == 1
        assert sum(1 for _ in enumerate_chain_graphs(2)) == 4
        count3 = sum(1 for _ in enumerate_chain_graphs(3))
        brute3 = sum(
            0 if has_semidirected_cycle_matrix(3, d, u) else 1
            for d, u in _all_assignments(3)
        )
        assert count3 == brute3

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            list(enumerate_chain_graphs(6))

    def test_structural_hamming(self, six_node_graph):
        assert structural_hamming_distance(six_node_graph, six_node_graph) == 0
        flipped = ChainGraph(
            6,
            directed={(1, 0), (0, 2), (0, 3), (1, 3), (2, 4), (3, 5)},
            undirected={(2, 3), (4, 5)},
        )
        assert structural_hamming_distance(six_node_graph, flipped) == 1
        assert structural_hamming_distance(six_node_graph, ChainGraph(6)) == 8

    def test_adjacencies(self, six_node_graph):
        assert (2, 3) in adjacencies(six_node_graph)
        assert (0, 5) not in adjacencies(six_node_graph)


def _all_assignments(p):
    pairs = list(itertools.combinations(range(p), 2))
    for states in itertools.product(range(4), repeat=len(pairs)):
        directed, undirected = set(), set()
        for (a, b), state in zip(pairs, states):
            if state == 1:
                directed.add((a, b))
            elif state == 2:
                directed.add((b, a))
            elif state == 3:
                undirected.add((a, b))
        yield directed, undirected
