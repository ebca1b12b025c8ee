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
separation is decidable by reachability over at most 3p states. One search,
`_reachable`, finds every node an open route from A given C reaches;
:func:`separated` asks whether it meets B, and :func:`all_separations`
reads every pair (j, k) given C off one search from j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import CapacityError, ChainGraph, MagnifiedGraph, determined_closure

__all__ = [
    "SeparationQuery",
    "all_separations",
    "pairwise_queries",
    "separated",
    "separated_magnified",
]

_HEAD, _TAIL, _UND = 0, 1, 2
SEPARATION_CAP = 6  # largest node count whose pairwise separations are enumerated


@dataclass(frozen=True)
class SeparationQuery:
    """Disjoint node sets (a, b, c) asking whether a and b are separated by c."""

    a: frozenset
    b: frozenset
    c: frozenset = frozenset()

    def __post_init__(self):
        a = frozenset(int(x) for x in self.a)
        b = frozenset(int(x) for x in self.b)
        c = frozenset(int(x) for x in self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not a or not b:
            raise ValueError("query sets a and b must be non-empty")
        if a & b or a & c or b & c:
            raise ValueError("query sets a, b, c must be pairwise disjoint")


def _incidence(g: ChainGraph):
    """Per node: tuples (other, kind at this node, kind at other)."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.p)]
    for j, k in g.directed:
        adj[j].append((k, _TAIL, _HEAD))
        adj[k].append((j, _HEAD, _TAIL))
    for j, k in g.undirected:
        adj[j].append((k, _UND, _UND))
        adj[k].append((j, _UND, _UND))
    return [tuple(sorted(x)) for x in adj]


def _triplex_step(entry: int, exit_at_node: int) -> bool:
    return (entry == _HEAD and exit_at_node != _TAIL) or (entry == _UND and exit_at_node == _HEAD)


def _check_query(g: ChainGraph, q: SeparationQuery) -> None:
    for x in itertools.chain(q.a, q.b, q.c):
        if not (0 <= x < g.p):
            raise ValueError(f"query node {x} out of range for p={g.p}")


def _reachable(adj, a, c) -> set:
    """Every node at which an open route from a node of `a` given `c` ends."""
    visited = {(other, at_other) for x in a for other, _at_x, at_other in adj[x]}
    stack = list(visited)
    while stack:
        node, entry = stack.pop()
        node_given = node in c
        for other, at_node, at_other in adj[node]:
            state = (other, at_other)
            if _triplex_step(entry, at_node) == node_given and state not in visited:
                visited.add(state)
                stack.append(state)
    return {node for node, _entry in visited}


def separated(g: ChainGraph, q: SeparationQuery) -> bool:
    """True iff no open route joins q.a to q.b given q.c."""
    _check_query(g, q)
    return not _reachable(_incidence(g), q.a, q.c) & q.b


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
    p = mg.original_p
    for x in itertools.chain(q.a, q.b, q.c):
        if not (0 <= x < p):
            raise ValueError(f"query node {x} must be an original node (0..{p - 1})")
    closed = determined_closure(mg, q.c)
    return separated(mg.base, SeparationQuery(q.a, q.b, frozenset(closed)))


def pairwise_queries(p: int):
    """Every (j, k, cond) with j < k and cond a subset of the other nodes.

    Pairs come in `itertools.combinations` order; for each pair the
    conditioning sets run by size, each size in combinations order, so the
    first separating set met for a pair is a smallest one.
    """
    for j, k in itertools.combinations(range(p), 2):
        rest = [x for x in range(p) if x != j and x != k]
        for r in range(len(rest) + 1):
            for cond in itertools.combinations(rest, r):
                yield j, k, cond


def all_separations(g: ChainGraph) -> frozenset:
    """Every separated triple (j, k, C) over singleton pairs, canonically encoded.

    Pairwise queries suffice to pin down the represented independence model
    for the Gaussian use made of it here; set-valued queries remain
    available through :func:`separated`. Queries that share j and C share
    one reachability search from j, so each (node, conditioning set) with a
    later node outside it is searched once: 129 searches at p=6 for the
    240 queries. Graphs over `SEPARATION_CAP` nodes raise `CapacityError`.
    """
    if g.p > SEPARATION_CAP:
        raise CapacityError(f"separation enumeration capped at p={SEPARATION_CAP}, got p={g.p}")
    adj = _incidence(g)
    out = set()
    for j in range(g.p):
        others = [x for x in range(g.p) if x != j]
        for r in range(len(others) + 1):
            for cond in itertools.combinations(others, r):
                later = [k for k in range(j + 1, g.p) if k not in cond]
                if later:
                    reached = _reachable(adj, (j,), cond)
                    out.update((j, k, cond) for k in later if k not in reached)
    return frozenset(out)
