"""Chain graphs with directed and undirected edges.

Nodes are integers ``0..p-1``. A directed edge ``(j, k)`` is an arrow from
node ``j`` to node ``k``; undirected edges are unordered pairs. Everything
purely graphical lives here: validity, relatives, chain components,
triplexes, Markov equivalence, magnification onto explicit error nodes,
determination closure, and enumeration of every chain graph with given
adjacencies and triplexes, which is how a Markov equivalence class is
listed. Graphs are immutable values; every operation returns a new graph.

The searches that run on every class hold node sets as Python ``int``
bitmasks, bit v standing for node v: per node a child mask and a
neighbour mask. `_cycle_through` decides whether a semidirected cycle
passes through a node by a closure over two masks, and it is the one
cycle walk that `orientations` and `search._moves` share;
`separation` reads the same masks, plus parent masks, for its routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "CapacityError",
    "ChainGraph",
    "GraphStructureError",
    "MagnifiedGraph",
    "Triplex",
    "adjacencies",
    "canonical_key",
    "chain_components",
    "determined_closure",
    "equivalence_class",
    "find_semidirected_cycle",
    "is_chain_graph",
    "magnify",
    "markov_equivalent",
    "orientations",
    "random_chain_graph",
    "relatives",
    "structural_hamming_distance",
    "triplexes",
]

RELATIVE_KINDS = ("parents", "descendants", "non_descendants", "adjacents")
CLASS_CAP = 12  # largest node count of every exhaustive enumeration: classes, separations, CI sweeps


def _default_label(j: int) -> str:
    """The label of node j in a graph or dataset without labels: X1, X2, ..."""
    return f"X{j + 1}"


class GraphStructureError(ValueError):
    """A candidate graph is malformed: bad index, self-loop or duplicate edge."""


class CapacityError(ValueError):
    """An exhaustive enumeration would run over `CLASS_CAP` nodes."""


class Triplex(NamedTuple):
    """Induced subgraph j ~ k ~ l with center k: j and l non-adjacent, no
    edge points out of k, and at least one of the two edges points into k.
    Canonical form has j < l."""

    j: int
    k: int
    l: int


@dataclass(frozen=True)
class ChainGraph:
    """Simple graph with directed and undirected edges over ``p`` nodes.

    The constructor normalizes edge containers and rejects malformed input
    (self-loops, out-of-range indices, more than one edge per node pair).
    It does *not* reject semidirected cycles, so that :func:`is_chain_graph`
    can classify arbitrary simple candidates; all other operations assume
    the candidate passed that check.
    """

    p: int
    directed: frozenset = frozenset()
    undirected: frozenset = frozenset()
    labels: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise GraphStructureError(f"node count must be a positive integer, got {self.p!r}")
        directed = frozenset((int(j), int(k)) for j, k in self.directed)
        undirected = frozenset((min(int(j), int(k)), max(int(j), int(k))) for j, k in self.undirected)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)
        seen: set[tuple[int, int]] = set()
        for j, k in itertools.chain(directed, undirected):
            if j == k:
                raise GraphStructureError(f"self-loop at node {j}")
            if not (0 <= j < self.p and 0 <= k < self.p):
                raise GraphStructureError(f"edge ({j}, {k}) out of range for p={self.p}")
            pair = (min(j, k), max(j, k))
            if pair in seen:
                raise GraphStructureError(f"more than one edge between nodes {pair[0]} and {pair[1]}")
            seen.add(pair)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.p:
                raise GraphStructureError(f"expected {self.p} labels, got {len(labels)}")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def _from_masks(cls, p: int, children: list, neighbors: list, labels: tuple | None) -> "ChainGraph":
        """The graph in which node v points at the nodes of bitmask children[v] and joins those of neighbors[v].

        Trusted: the masks must describe a simple graph on p nodes and
        `labels` must already be normalised (None or a tuple of p strings),
        since none of `__post_init__`'s checks runs. The relatives caches
        are filled straight from the masks. The result is equal to, and
        hashes like, the graph the public constructor builds from the same
        edges and labels.
        """
        kids = tuple(map(_nodes, children))
        into: list[list[int]] = [[] for _ in range(p)]
        for a, out in enumerate(kids):
            for b in out:
                into[b].append(a)
        nbrs = tuple(map(_nodes, neighbors))
        graph = cls.__new__(cls)
        graph.__dict__.update(
            p=p,
            directed=frozenset((a, b) for a, out in enumerate(kids) for b in out),
            undirected=frozenset((a, b) for a, out in enumerate(nbrs) for b in out if a < b),
            labels=labels,
            _parents=tuple(map(tuple, into)),
            _children=kids,
            _neighbors=nbrs,
        )
        return graph

    # -- cached adjacency structure ------------------------------------

    @cached_property
    def _parents(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.p)]
        for j, k in self.directed:
            out[k].append(j)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.p)]
        for j, k in self.directed:
            out[j].append(k)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.p)]
        for j, k in self.undirected:
            out[j].append(k)
            out[k].append(j)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def _adjacencies(self) -> frozenset:
        pairs = {(min(j, k), max(j, k)) for j, k in self.directed}
        return frozenset(pairs | set(self.undirected))

    @cached_property
    def _triplexes(self) -> frozenset:
        found = set()
        for k in range(self.p):
            into = [(j, True) for j in self._parents[k]] + [(j, False) for j in self._neighbors[k]]
            for (j, dj), (l, dl) in itertools.combinations(into, 2):
                if (dj or dl) and not self.adjacent(j, l):
                    found.add(Triplex(min(j, l), k, max(j, l)))
        return frozenset(found)

    @cached_property
    def _components(self) -> tuple[frozenset, ...]:
        return _blocks(self.p, self.undirected)

    # -- small helpers ---------------------------------------------------

    def adjacent(self, j: int, k: int) -> bool:
        return (min(j, k), max(j, k)) in self._adjacencies

    def edge_between(self, j: int, k: int) -> str | None:
        """Edge kind between j and k: '->', '<-', '--' or None."""
        if (j, k) in self.directed:
            return "->"
        if (k, j) in self.directed:
            return "<-"
        if (min(j, k), max(j, k)) in self.undirected:
            return "--"
        return None

    def node_label(self, j: int) -> str:
        return self.labels[j] if self.labels is not None else _default_label(j)

    def n_edges(self) -> int:
        return len(self.directed) + len(self.undirected)


@dataclass(frozen=True)
class MagnifiedGraph:
    """A chain graph over the original nodes plus one error node apiece.

    ``error_of[j]`` is the index of node j's error node in ``base``. Error
    nodes have no parents, each points at exactly its own original node,
    and all undirected edges run between error nodes.
    """

    base: ChainGraph
    error_of: tuple

    def __post_init__(self):
        object.__setattr__(self, "error_of", tuple(int(x) for x in self.error_of))
        p = len(self.error_of)
        if self.base.p != 2 * p:
            raise GraphStructureError("magnified graph must have exactly 2p nodes")
        errors = set(self.error_of)
        for j, nj in enumerate(self.error_of):
            if (nj, j) not in self.base.directed:
                raise GraphStructureError(f"missing error edge {nj} -> {j}")
            if self.base._parents[nj]:
                raise GraphStructureError(f"error node {nj} must have no parents")
        for a, b in self.base.undirected:
            if a not in errors or b not in errors:
                raise GraphStructureError("undirected edges may only join error nodes")

    @property
    def original_p(self) -> int:
        return len(self.error_of)


def _blocks(p: int, undirected: Iterable) -> tuple:
    """The node sets that undirected edges join, ordered by least node: the chain components."""
    block = [frozenset({v}) for v in range(p)]
    for a, b in undirected:
        if b not in block[a]:
            merged = block[a] | block[b]
            for v in merged:
                block[v] = merged
    return tuple(sorted(set(block), key=min))


def _validate_nodes(g: ChainGraph, s: Iterable[int]) -> frozenset:
    out = frozenset(int(x) for x in s)
    for x in out:
        if not (0 <= x < g.p):
            raise ValueError(f"node index {x} out of range for p={g.p}")
    return out


def _mask(nodes: Iterable[int]) -> int:
    """The bitmask of a node set: bit v is set when node v is in it."""
    return sum(1 << v for v in nodes)


def _nodes(mask: int) -> tuple:
    """The nodes of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _union(table: list, mask: int) -> int:
    """The union of the per-node bitmasks table[v] over the nodes v of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _cycle_through(children: list, neighbors: list, start: int) -> bool:
    """True iff a semidirected cycle passes through start; the graph is per-node child and neighbour bitmasks.

    A closure over two masks, each node taken from a to-do mask once: the
    nodes a walk from start reaches along undirected edges alone, which is
    start's undirected block, and the nodes it reaches along undirected
    edges and forward arrows having taken at least one arrow, which grows
    from the block's children. The cycle exists iff start joins the
    second mask.
    """
    goal = 1 << start
    block = todo = goal
    while todo:
        low = todo & -todo
        todo ^= low
        new = neighbors[low.bit_length() - 1] & ~block
        block |= new
        todo |= new
    arrowed = todo = _union(children, block)
    while todo:
        if arrowed & goal:
            return True
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        new = (children[v] | neighbors[v]) & ~arrowed
        arrowed |= new
        todo |= new
    return False


def find_semidirected_cycle(g: ChainGraph) -> list[int] | None:
    """Return one semidirected cycle as a node sequence [u, v, ..., u], or None.

    A semidirected cycle starts with a directed edge u -> v and returns to u
    along edges that are undirected or directed the same way around.
    """
    for u, v in sorted(g.directed):
        parent: dict[int, int | None] = {v: None}
        queue = [v]
        while queue:
            x = queue.pop(0)
            for y in itertools.chain(g._children[x], g._neighbors[x]):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if u in parent:
            chain = [u]
            cur = parent[u]
            while cur is not None:
                chain.append(cur)
                cur = parent[cur]
            # chain is u..v walking predecessors; reverse to v..u, prepend u
            return [u] + chain[::-1]
    return None


def is_chain_graph(g: ChainGraph) -> bool:
    """True iff the simple graph has no semidirected cycle."""
    return find_semidirected_cycle(g) is None


def relatives(g: ChainGraph, s: Iterable[int], kind: str) -> frozenset:
    """Parents, descendants, non-descendants or adjacents of the node set s.

    Descendants follow directed paths of length >= 1 only; an undirected
    edge never extends descent, and a node is not its own descendant unless
    a directed path loops back to it (impossible in a valid chain graph).
    """
    s = _validate_nodes(g, s)
    if kind not in RELATIVE_KINDS:
        raise ValueError(f"unknown relative kind {kind!r}; expected one of {RELATIVE_KINDS}")
    if kind == "parents":
        return frozenset(itertools.chain.from_iterable(g._parents[k] for k in s))
    if kind == "adjacents":
        out: set[int] = set()
        for k in s:
            out.update(g._parents[k])
            out.update(g._children[k])
            out.update(g._neighbors[k])
        return frozenset(out)
    reached: set[int] = set()
    stack = list(itertools.chain.from_iterable(g._children[k] for k in s))
    while stack:
        v = stack.pop()
        if v not in reached:
            reached.add(v)
            stack.extend(g._children[v])
    if kind == "descendants":
        return frozenset(reached)
    return frozenset(range(g.p)) - frozenset(reached)


def chain_components(g: ChainGraph) -> tuple:
    """Partition of the nodes into maximal undirected-connected blocks."""
    return g._components


def triplexes(g: ChainGraph) -> frozenset:
    """All triplexes of g in canonical (min, center, max) form."""
    return g._triplexes


def adjacencies(g: ChainGraph) -> frozenset:
    """Unordered adjacent node pairs, ignoring edge type."""
    return g._adjacencies


def markov_equivalent(g: ChainGraph, h: ChainGraph) -> bool:
    """True iff g and h have the same adjacencies and the same triplexes."""
    if g.p != h.p:
        raise ValueError(f"node count mismatch: {g.p} vs {h.p}")
    return g._adjacencies == h._adjacencies and g._triplexes == h._triplexes


def magnify(g: ChainGraph) -> MagnifiedGraph:
    """Attach an explicit error node to every node.

    The result has 2p nodes: original node j keeps index j, its error node
    gets index p + j and an edge (p + j) -> j. Directed edges are kept and
    every undirected edge {j, k} is replaced by {p + j, p + k} between the
    error nodes.
    """
    p = g.p
    directed = set(g.directed)
    directed.update((p + j, j) for j in range(p))
    undirected = {(p + j, p + k) for j, k in g.undirected}
    if g.labels is None:
        labels = tuple(map(_default_label, range(p))) + tuple(f"N{j + 1}" for j in range(p))
    else:
        labels = g.labels + tuple(f"N_{x}" for x in g.labels)
    base = ChainGraph(2 * p, frozenset(directed), frozenset(undirected), labels=labels)
    return MagnifiedGraph(base=base, error_of=tuple(range(p, 2 * p)))


def determined_closure(mg: MagnifiedGraph, c: Iterable[int]) -> frozenset:
    """Smallest superset of c closed under functional determination.

    Node j is determined once its parents and its error node all are; the
    error node is determined once node j and j's parents all are. Computed
    by fixed-point iteration, so it is monotone and idempotent.
    """
    closed = set(_validate_nodes(mg.base, c))
    p = mg.original_p
    parents0 = [tuple(x for x in mg.base._parents[j] if x != mg.error_of[j]) for j in range(p)]
    changed = True
    while changed:
        changed = False
        for j in range(p):
            nj = mg.error_of[j]
            pa_in = all(x in closed for x in parents0[j])
            if j not in closed and pa_in and nj in closed:
                closed.add(j)
                changed = True
            if nj not in closed and pa_in and j in closed:
                closed.add(nj)
                changed = True
    return frozenset(closed)


def canonical_key(g: ChainGraph) -> tuple:
    """Total order on graphs of equal size; used for deterministic output."""
    return (g.p, tuple(sorted(g.directed)), tuple(sorted(g.undirected)))


def orientations(p: int, adjacency: Iterable, target: Iterable, labels=None) -> Iterator[ChainGraph]:
    """Every chain graph on p nodes with exactly these adjacencies and triplexes.

    Depth first over the node pairs of `adjacency` in sorted order, marking
    each pair (a, b) as a - b, then a -> b, then b -> a. A candidate triplex
    (two edges meeting at a center whose far ends are not adjacent) is
    decided as soon as its later edge is marked, and a mark that closes a
    semidirected cycle among the edges marked so far is dropped at once, so
    every graph yielded is a chain graph, in a fixed order. Yields nothing
    when no chain graph fits.

    The marks are held as per-node child and neighbour bitmasks: a triplex
    check is a few bit tests, and the cycle check is one `_cycle_through`
    walk from a. The pairs and `labels` are checked once per call, by the
    one `ChainGraph` over the skeleton, and each graph is built once from
    the masks (`ChainGraph._from_masks`). Lazy: a caller that stops after
    the first graph pays for no other.
    """
    skeleton = ChainGraph(p, undirected=adjacency, labels=labels)  # rejects bad pairs and labels
    edges = sorted(skeleton.undirected)
    target = frozenset(target)
    index = {e: i for i, e in enumerate(edges)}
    checks: list[list] = [[] for _ in edges]  # by the later edge of each candidate
    candidates = set()
    for k, ends in enumerate(skeleton._neighbors):
        for j, l in itertools.combinations(ends, 2):
            if (j, l) not in index:
                t = Triplex(j, k, l)
                candidates.add(t)
                later = max(index[(min(j, k), max(j, k))], index[(min(k, l), max(k, l))])
                checks[later].append((j, k, l, (1 << j) | (1 << l), t in target))
    if not target <= candidates:
        return
    children = [0] * p
    neighbors = [0] * p
    tried = [0] * len(edges)  # marks tried so far on each pair of the current branch
    i = 0
    while i >= 0:
        if i == len(edges):
            yield ChainGraph._from_masks(p, children, neighbors, skeleton.labels)
            i -= 1
            continue
        a, b = edges[i]
        children[a] &= ~(1 << b)
        children[b] &= ~(1 << a)
        neighbors[a] &= ~(1 << b)
        neighbors[b] &= ~(1 << a)
        mark = tried[i]
        if mark == 3:
            tried[i] = 0
            i -= 1
            continue
        tried[i] = mark + 1
        if mark == 0:
            neighbors[a] |= 1 << b
            neighbors[b] |= 1 << a
        elif mark == 1:
            children[a] |= 1 << b
        else:
            children[b] |= 1 << a
        for j, k, l, far, want in checks[i]:
            if (not children[k] & far and (children[j] | children[l]) >> k & 1 == 1) != want:
                break
        else:
            # the marks before this one close no cycle, so a new one runs through a
            if not _cycle_through(children, neighbors, a):
                i += 1


def _require_chain_graph(g: ChainGraph) -> None:
    """Raise ValueError naming a semidirected cycle of g, if it has one."""
    cycle = find_semidirected_cycle(g)
    if cycle is not None:
        parts = [g.node_label(cycle[0])]
        for a, b in zip(cycle, cycle[1:]):
            parts.append(f" {'->' if (a, b) in g.directed else '-'} {g.node_label(b)}")
        raise ValueError(f"not a chain graph; semidirected cycle: {''.join(parts)}")


def equivalence_class(g: ChainGraph) -> list:
    """The Markov equivalence class of the chain graph g, sorted by `canonical_key`.

    Its members are the chain graphs with g's adjacencies and triplexes,
    each carrying g's labels. A g with a semidirected cycle is rejected
    with ValueError, and one over `CLASS_CAP` nodes with `CapacityError`.
    """
    if g.p > CLASS_CAP:
        raise CapacityError(f"equivalence-class enumeration capped at p={CLASS_CAP}, got p={g.p}")
    _require_chain_graph(g)
    return sorted(orientations(g.p, g._adjacencies, g._triplexes, labels=g.labels), key=canonical_key)


def random_chain_graph(p: int, edge_prob: float, undirected_frac: float, seed) -> ChainGraph:
    """Sample a valid chain graph.

    Construction guarantees validity: nodes get a random order and are
    grouped into consecutive blocks (each node joins the previous block
    with probability `undirected_frac`). Pairs inside a block become
    undirected edges with probability `edge_prob`; pairs across blocks
    become directed edges pointing from the earlier block.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    for name, value in (("edge_prob", edge_prob), ("undirected_frac", undirected_frac)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(p)
    block_of = np.zeros(p, dtype=int)
    block = 0
    for pos in range(1, p):
        if rng.random() >= undirected_frac:
            block += 1
        block_of[order[pos]] = block
    directed = set()
    undirected = set()
    for pos_a in range(p):
        for pos_b in range(pos_a + 1, p):
            a, b = int(order[pos_a]), int(order[pos_b])
            if rng.random() >= edge_prob:
                continue
            if block_of[a] == block_of[b]:
                undirected.add((min(a, b), max(a, b)))
            else:
                directed.add((a, b))
    return ChainGraph(p, frozenset(directed), frozenset(undirected))


def structural_hamming_distance(g: ChainGraph, h: ChainGraph) -> int:
    """Number of node pairs whose edge presence or type differs."""
    if g.p != h.p:
        raise ValueError(f"node count mismatch: {g.p} vs {h.p}")
    return sum(
        1
        for j, k in itertools.combinations(range(g.p), 2)
        if g.edge_between(j, k) != h.edge_between(j, k)
    )
