"""Route-based separation in chain graphs.

A route is a sequence of adjacent nodes; nodes may repeat. Every interior
position of a route has a status given by its two incident edges: the
occurrence is a *triplex* occurrence when both edges point at the node, or
one points at it and the other is undirected; otherwise it is a non-triplex
occurrence. A route is open given a conditioning set C when every triplex
occurrence sits at a node in C and every non-triplex occurrence at a node
outside C; the two endpoint positions are unconstrained. A is separated
from B given C when no open route joins a node of A to a node of B.

Because openness is a per-step condition, an open route that revisits a
(node, entry-edge-kind) state can be spliced down to one that does not, so
separation is decidable by reachability over at most 3p states. Node sets
are bitmasks, and the graph is held as the children, parents and
neighbours of each node set (`_masks`, each union worked out once per
set), read off the child and neighbour masks the graph keeps from its one
build (see `graphs`) and parent masks built per call. One search, `_route_ends`, grows three masks at once, the nodes
entered by an arrowhead, by a tail and by an undirected edge, until none
grows; it returns every node an open route from A given C reaches.
:func:`separated` asks whether that meets B.

Sweeps over every pairwise query share one order, `_query_table`: the
queries of :func:`pairwise_queries` with index arrays that read them off
a table indexed by conditioning mask and nodes. `_separations` fills one
integer table per graph, `reach[given, j]`, the nodes an open route from
j reaches given the node set `given`, by one search per (node,
conditioning set) with a later node outside it, and reads every pairwise
query off it in that order as a boolean vector. `sem.faithful_parameters`
compares that vector with a draw's independences, :func:`all_separations`
keeps the separated queries, and ``ampcg sep --enumerate`` prints it. The
table covers all 2^p conditioning sets, so it stops where every
exhaustive enumeration in the library stops, at `graphs.CLASS_CAP` (12)
nodes.

A query's nodes are integers by the library's one rule (`seeds._integer`)
when a `SeparationQuery` is built, and nodes of the graph by its node-set
rule (`graphs._node_indices`) when it is asked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .graphs import ChainGraph, MagnifiedGraph, _capped, _mask, _node_indices, _union, determined_closure
from .seeds import _integer

__all__ = [
    "SeparationQuery",
    "all_separations",
    "pairwise_queries",
    "separated",
    "separated_magnified",
]

@dataclass(frozen=True)
class SeparationQuery:
    """Disjoint node sets (a, b, c) asking whether a and b are separated by c."""

    a: frozenset
    b: frozenset
    c: frozenset = frozenset()

    def __post_init__(self):
        a, b, c = (frozenset(_integer(x, "query node") for x in nodes) for nodes in (self.a, self.b, self.c))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not a or not b:
            raise ValueError("query sets a and b must be non-empty")
        if a & b or a & c or b & c:
            raise ValueError("query sets a, b, c must be pairwise disjoint")


class _Unions(dict):
    """The union of per-node bitmasks over a node bitmask, worked out on first lookup of each mask."""

    def __init__(self, per_node: list):
        super().__init__()
        self.per_node = per_node

    def __missing__(self, mask: int) -> int:
        out = self[mask] = _union(self.per_node, mask)
        return out


def _masks(g: ChainGraph) -> tuple:
    """The children, parents and neighbours of every node set of g, each as a `_Unions` over node bitmasks.

    The child and neighbour masks are the ones g keeps; the parent masks are built here.
    """
    return _Unions(g._child_masks), _Unions([_mask(x) for x in g._parents]), _Unions(g._neighbor_masks)


def _route_ends(masks: tuple, sources: int, given: int) -> int:
    """Bitmask of every node at which an open route from a node of `sources` given `given` ends.

    `masks` are `_masks(g)`; `sources` and `given` are node bitmasks. A
    route enters a node by an arrowhead (from a parent), by a tail (from a
    child) or by an undirected edge, and openness at the node decides where
    it may go on. A node outside `given` passes it on to its children
    always, to its parents only when entered by a tail, and to its
    neighbours unless entered by an arrowhead. A node in `given` passes it
    to no child, to its parents unless entered by a tail, and to its
    neighbours only when entered by an arrowhead. Going on to a child
    enters it by an arrowhead, to a parent by a tail. Three masks hold the
    nodes entered each way and grow by their newly entered nodes until
    none changes.
    """
    children, parents, neighbors = masks
    head = new_head = children[sources]
    tail = new_tail = parents[sources]
    und = new_und = neighbors[sources]
    free = ~given
    while new_head | new_tail | new_und:
        reach_head = children[(new_head | new_tail | new_und) & free]
        reach_tail = parents[(new_head | new_und) & given | new_tail & free]
        reach_und = neighbors[new_head & given | (new_tail | new_und) & free]
        new_head, new_tail, new_und = reach_head & ~head, reach_tail & ~tail, reach_und & ~und
        head, tail, und = head | new_head, tail | new_tail, und | new_und
    return head | tail | und


def separated(g: ChainGraph, q: SeparationQuery) -> bool:
    """True iff no open route joins q.a to q.b given q.c."""
    _node_indices(itertools.chain(q.a, q.b, q.c), g.p, "query node")
    return not _route_ends(_masks(g), _mask(q.a), _mask(q.c)) & _mask(q.b)


def separated_magnified(mg: MagnifiedGraph, q: SeparationQuery) -> bool:
    """Separation over the original nodes, read off the magnified graph.

    A node outside the conditioning set that is functionally determined by
    it blocks and opens routes exactly as if it were conditioned on, so the
    conditioning set is first closed under determination (which pulls in
    the error nodes of fully conditioned families) and the ordinary route
    criterion is then applied to the magnified graph. Agrees with
    :func:`separated` on the original graph for every query over the
    original nodes.
    """
    _node_indices(itertools.chain(q.a, q.b, q.c), mg.original_p, "query node")
    closed = determined_closure(mg, q.c)
    return separated(mg.base, SeparationQuery(q.a, q.b, frozenset(closed)))


def pairwise_queries(p: int) -> tuple:
    """Every (j, k, cond) with j < k and cond a subset of the other nodes.

    Pairs come in `itertools.combinations` order; for each pair the
    conditioning sets run by size, each size in combinations order, so the
    first separating set met for a pair is a smallest one. The tuple is
    `_query_table`'s, built once per node count.
    """
    return _query_table(p)[0]


@cache
def _query_table(p: int) -> tuple:
    """Every pairwise query over p nodes with the index arrays that read it off a per-mask table.

    Returns (queries, masks, js, ks): the (j, k, cond) of `pairwise_queries`
    in its order, and read-only integer arrays with each query's
    `_mask(cond)`, j and k, so `table[masks, js, ks]` (or
    `table[masks, js] >> ks`) decides every query in one fancy index.
    Built once per node count and shared by `_separations`,
    `sem.faithful_parameters` and `search.skeleton_recovery`.
    """
    queries = []
    for j, k in itertools.combinations(range(p), 2):
        rest = [x for x in range(p) if x != j and x != k]
        for r in range(len(rest) + 1):
            queries.extend((j, k, cond) for cond in itertools.combinations(rest, r))
    index = np.array([(_mask(cond), j, k) for j, k, cond in queries], dtype=int).reshape(-1, 3).T.copy()
    index.setflags(write=False)  # its rows are shared by every caller
    return (tuple(queries), *index)


def _separations(g: ChainGraph) -> np.ndarray:
    """Whether each pairwise query of g is a separation, as a boolean vector in `_query_table` order.

    One integer table, `reach[given, j]`, holds the bitmask of the nodes an
    open route from j reaches given the node set `given` (`_route_ends`).
    Only the entries the queries read are filled: j outside `given` with a
    later node outside it, 129 searches at p=6 for the 240 queries, all
    sharing one `_masks(g)`. Query (j, k, cond) is a separation when bit k
    of `reach[_mask(cond), j]` is clear. Graphs over `graphs.CLASS_CAP`
    (12) nodes, the one node-count limit of every exhaustive enumeration,
    raise `CapacityError`.
    """
    _capped(g.p, "separation enumeration")
    masks = _masks(g)
    reach = np.zeros((1 << g.p, g.p), dtype=int)
    for given in range(1 << g.p):
        free = ~given & ((1 << g.p) - 1)
        for j in range(g.p):
            if free >> j & 1 and free >> (j + 1):
                reach[given, j] = _route_ends(masks, 1 << j, given)
    _queries, givens, js, ks = _query_table(g.p)
    return (reach[givens, js] >> ks & 1) == 0


def all_separations(g: ChainGraph) -> frozenset:
    """Every separated triple (j, k, C) over singleton pairs, canonically encoded.

    Pairwise queries suffice to pin down the represented independence model
    for the Gaussian use made of it here; set-valued queries remain
    available through :func:`separated`. The triples are the queries of
    `pairwise_queries` that `_separations` marks; graphs over
    `graphs.CLASS_CAP` (12) nodes raise `CapacityError`.
    """
    separated_queries = _separations(g)  # checks the cap before the queries are listed
    return frozenset(itertools.compress(pairwise_queries(g.p), separated_queries))
