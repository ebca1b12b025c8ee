"""Chain graphs with directed and undirected edges.

Nodes are integers ``0..p-1``. A directed edge ``(j, k)`` is an arrow from
node ``j`` to node ``k``; undirected edges are unordered pairs. Everything
purely graphical lives here: validity, relatives, chain components,
triplexes, Markov equivalence, magnification onto explicit error nodes,
determination closure, and enumeration of every chain graph with given
adjacencies and triplexes, which is how a Markov equivalence class is
listed. Graphs are immutable values; every operation returns a new graph.

A graph's structure is built once, from per-node child and neighbour
masks, Python ``int`` bitmasks with bit v standing for node v: one fill,
`ChainGraph._fill`, serves the public constructor and `_from_masks` alike
and sets the edge sets, each node's sorted parents, children and
neighbours, the `canonical_key`, and the two mask tuples, which the graph
keeps. One walk decides every cycle question: `_cycle_through`, a closure
over the two masks, decides whether a semidirected cycle passes through a
node, for `is_chain_graph` (and so for every check that rejects a graph
with such a cycle), `orientations` and `search._moves`;
`find_semidirected_cycle` only names a cycle for an error message.
`separation` reads the kept masks, plus parent masks, for its routes.

Three input rules live here, one function each, and every entry point that
takes the input calls its rule: `_node_indices` for a node set (integers
by `seeds._integer`, in 0..p-1), `_node_labels` for labels (a list or
tuple of distinct strings, one per node, column or covariance row), and
`_capped` for the node-count limit `CLASS_CAP` of every exhaustive
enumeration. Each caller passes the noun its message names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .seeds import _integer, compose_seed

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


def _node_indices(nodes: Iterable, p: int, noun: str = "node", error: type = ValueError) -> tuple:
    """The nodes of `nodes` as a tuple of ints, in order, or `error` naming the first that is not a node of a p-node graph.

    The library's one rule for caller-supplied nodes: each an integer
    (`seeds._integer`, so 1.5 and True are rejected, not truncated) in
    0..p-1; "<noun> <value> is out of range for p=<p>" otherwise.
    """
    out = tuple([_integer(x, noun, error=error) for x in nodes])
    for x in out:
        if not 0 <= x < p:
            raise error(f"{noun} {x} is out of range for p={p}")
    return out


def _node_labels(labels, p: int | None, noun: str, error: type = ValueError, field: str = "labels") -> tuple:
    """`labels` as a tuple, or `error` unless it is a list or tuple of distinct strings, p of them unless p is None.

    The library's one rule for labels: a bare string is not a list of
    labels and a number is not a label, so neither is split or converted.
    Each `noun` (node, column, covariance row) has one label, and a label
    names one `noun` only. A file reader passes its `field` to name it and
    p None to leave the count to the caller.
    """
    if not (isinstance(labels, (list, tuple)) and all(isinstance(x, str) for x in labels)):
        raise error(f"{field} must be a list of strings, got {labels!r}")
    if p is not None and len(labels) != p:
        raise error(f"expected {p} labels, one per {noun}, got {len(labels)}")
    seen = set()
    for label in labels:
        if label in seen:
            raise error(f"label {label!r} names more than one {noun}")
        seen.add(label)
    return tuple(labels)


def _capped(p: int, what: str) -> None:
    """Raise `CapacityError` naming `what` if p is over `CLASS_CAP`, the one node-count limit of every exhaustive enumeration."""
    if p > CLASS_CAP:
        raise CapacityError(f"{what} capped at p={CLASS_CAP}, got p={p}")


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields` as given, without running `__post_init__`.

    The library's one way to build a value from input it has already
    checked (`ChainGraph._from_masks`, `estimation.fit`,
    `sem.random_parameters`, `sem.rescale_equal_variances`): the caller
    vouches that `fields` are what the public constructor would store for
    the same input, so none of its checks runs again.
    """
    value = cls.__new__(cls)
    value.__dict__.update(fields)
    return value


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
    by the library's input rules (a node count that is not a positive
    integer, a node that is not an integer in 0..p-1, labels that are not
    p distinct strings) and self-loops and more than one edge per node
    pair, each with `GraphStructureError`.
    It does *not* reject semidirected cycles, so that :func:`is_chain_graph`
    can classify arbitrary simple candidates. Where a class or a model
    meets a graph from outside the library (`equivalence_class`, the graph
    readers, the public `sem.SemParameters` constructor,
    `sem.random_parameters`, `estimation.fit`, `estimation.fit_component`,
    `EqualVarianceScorer.loglik`), a graph with such a cycle is rejected
    with ValueError naming one, once per call; other operations, and the
    values the library builds from a checked graph (`_trusted`), assume
    the candidate passed that check. The structure is filled once, on
    construction (`_fill`).
    """

    p: int
    directed: frozenset = frozenset()
    undirected: frozenset = frozenset()
    labels: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        p = _integer(self.p, "node count", positive=True, error=GraphStructureError)
        directed = frozenset(_node_indices(e, p, error=GraphStructureError) for e in self.directed)
        undirected = frozenset(tuple(sorted(_node_indices(e, p, error=GraphStructureError))) for e in self.undirected)
        children, neighbors = [0] * p, [0] * p  # the edges checked so far, as `_fill` takes them
        for j, k in itertools.chain(directed, undirected):
            if j == k:
                raise GraphStructureError(f"self-loop at node {j}")
            if (children[j] >> k | children[k] >> j | neighbors[j] >> k) & 1:
                raise GraphStructureError(f"more than one edge between nodes {min(j, k)} and {max(j, k)}")
            if (j, k) in directed:
                children[j] |= 1 << k
            else:
                neighbors[j] |= 1 << k
                neighbors[k] |= 1 << j
        if self.labels is not None:
            object.__setattr__(self, "labels", _node_labels(self.labels, p, "node", GraphStructureError))
        object.__setattr__(self, "p", p)
        self._fill(children, neighbors)

    @classmethod
    def _from_masks(cls, p: int, children: list, neighbors: list, labels: tuple | None) -> "ChainGraph":
        """The graph in which node v points at the nodes of bitmask children[v] and joins those of neighbors[v].

        Trusted (`_trusted`): the masks must describe a simple graph on p
        nodes and `labels` must already be normalised (None or a tuple of p
        strings), since none of `__post_init__`'s checks runs. The result is
        equal to, hashes like and holds the same attributes as the graph the
        public constructor builds from the same edges and labels: both are
        filled by `_fill`.
        """
        graph = _trusted(cls, p=p, labels=labels)
        graph._fill(children, neighbors)
        return graph

    def _fill(self, children: list, neighbors: list) -> None:
        """Set the edge sets and every relative of each node from per-node child and neighbour bitmasks.

        The one build path of a graph's structure, run once per graph: the
        masks themselves are kept (`_child_masks`, `_neighbor_masks`) for
        the bitmask walks of `is_chain_graph`, `search._moves` and
        `separation`; the sorted per-node `_parents`, `_children` and
        `_neighbors` tuples are read off them, the edges read off those in
        node order come out sorted, and so does the `canonical_key`
        (`_key`).
        """
        kids = tuple(map(_nodes, children))
        into: list[list[int]] = [[] for _ in range(self.p)]
        for a, out in enumerate(kids):
            for b in out:
                into[b].append(a)
        nbrs = tuple(map(_nodes, neighbors))
        directed = tuple([(a, b) for a, out in enumerate(kids) for b in out])
        undirected = tuple([(a, b) for a, out in enumerate(nbrs) for b in out if a < b])
        self.__dict__.update(
            directed=frozenset(directed),
            undirected=frozenset(undirected),
            _parents=tuple(map(tuple, into)),
            _children=kids,
            _neighbors=nbrs,
            _key=(self.p, directed, undirected),
            _child_masks=tuple(children),
            _neighbor_masks=tuple(neighbors),
        )

    # -- lazy structure ---------------------------------------------------

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
        object.__setattr__(self, "error_of", _node_indices(self.error_of, self.base.p, "error node", GraphStructureError))
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
    """True iff the simple graph has no semidirected cycle.

    A semidirected cycle leaves some node by an arrow, so one
    `_cycle_through` walk from each node with a child, over the graph's
    kept masks, decides it.
    """
    children, neighbors = g._child_masks, g._neighbor_masks
    return not any(_cycle_through(children, neighbors, v) for v in range(g.p) if children[v])


def relatives(g: ChainGraph, s: Iterable[int], kind: str) -> frozenset:
    """Parents, descendants, non-descendants or adjacents of the node set s.

    Descendants follow directed paths of length >= 1 only; an undirected
    edge never extends descent, and a node is not its own descendant unless
    a directed path loops back to it (impossible in a valid chain graph).
    """
    s = frozenset(_node_indices(s, g.p))
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
    error nodes. Error node j is labelled ``N_<label of j>``, or ``N<j+1>``
    when g has no labels; a label already taken by a node, or by an earlier
    error node, gets further ``N_`` prefixes until it is free.
    """
    p = g.p
    directed = set(g.directed)
    directed.update((p + j, j) for j in range(p))
    undirected = {(p + j, p + k) for j, k in g.undirected}
    names = tuple(map(g.node_label, range(p)))
    taken = set(names)
    errors = []
    for j, name in enumerate(names):
        label = f"N{j + 1}" if g.labels is None else f"N_{name}"
        while label in taken:
            label = f"N_{label}"
        taken.add(label)
        errors.append(label)
    labels = names + tuple(errors)
    base = ChainGraph(2 * p, frozenset(directed), frozenset(undirected), labels=labels)
    return MagnifiedGraph(base=base, error_of=tuple(range(p, 2 * p)))


def determined_closure(mg: MagnifiedGraph, c: Iterable[int]) -> frozenset:
    """Smallest superset of c closed under functional determination.

    Node j is determined once its parents and its error node all are; the
    error node is determined once node j and j's parents all are. Computed
    by fixed-point iteration, so it is monotone and idempotent.
    """
    closed = set(_node_indices(c, mg.base.p))
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
    """Total order on graphs of equal size; used for deterministic output.

    The key is (p, sorted directed edges, sorted undirected edges), kept
    on the graph (`ChainGraph._key`).
    """
    return g._key


def orientations(p: int, adjacency: Iterable, target: Iterable, labels=None) -> Iterator[ChainGraph]:
    """Every chain graph on p nodes with exactly these adjacencies and triplexes.

    Depth first over the node pairs of `adjacency` in sorted order, marking
    each pair (a, b) as a - b, then a -> b, then b -> a. A candidate triplex
    (two edges meeting at a center whose far ends are not adjacent) is
    decided as soon as its later edge is marked, and a mark that closes a
    semidirected cycle among the edges marked so far is dropped at once, so
    every graph yielded is a chain graph, in a fixed order. Yields nothing
    when no chain graph fits.

    The pairs and `labels` are checked once per call, by one `ChainGraph`
    over the skeleton, and the triplexes' nodes by the node-set rule
    (`_node_indices`). A triplex is read in its canonical form, ends in
    ascending order, so Triplex(2, 1, 0) names the same triplex as
    Triplex(0, 1, 2). The enumeration itself is `_orientations`. Lazy: a
    caller that stops after the first graph pays for no other.
    """
    skeleton = ChainGraph(p, undirected=adjacency, labels=labels)  # rejects bad pairs and labels
    checked = (Triplex(*_node_indices(t, skeleton.p, "triplex node")) for t in target)
    target = frozenset(Triplex(min(t.j, t.l), t.k, max(t.j, t.l)) for t in checked)  # the canonical form
    yield from _orientations(skeleton.p, sorted(skeleton.undirected), skeleton._neighbors, target, skeleton.labels)


def _orientations(p: int, edges: list, ends: tuple, target: frozenset, labels: tuple | None) -> Iterator[ChainGraph]:
    """`orientations` on checked input: the sorted skeleton pairs and each node's sorted skeleton neighbours.

    The marks are held as per-node child and neighbour bitmasks: a triplex
    check is a few bit tests, and the cycle check is one `_cycle_through`
    walk from a. Each graph is built once from the masks
    (`ChainGraph._from_masks`), with `labels` as given.
    """
    index = {e: i for i, e in enumerate(edges)}
    checks: list[list] = [[] for _ in edges]  # by the later edge of each candidate
    candidates = set()
    for k, around in enumerate(ends):
        for j, l in itertools.combinations(around, 2):
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
            yield ChainGraph._from_masks(p, children, neighbors, labels)
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
    """Raise ValueError naming a semidirected cycle of g, if it has one.

    `is_chain_graph` decides; `find_semidirected_cycle` runs only to name
    the cycle it found.
    """
    if not is_chain_graph(g):
        cycle = find_semidirected_cycle(g)
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
    _capped(g.p, "equivalence-class enumeration")
    _require_chain_graph(g)
    ends = tuple(tuple(sorted(g._parents[v] + g._children[v] + g._neighbors[v])) for v in range(g.p))
    return sorted(_orientations(g.p, sorted(g._adjacencies), ends, g._triplexes, g.labels), key=canonical_key)


def random_chain_graph(p: int, edge_prob: float, undirected_frac: float, seed) -> ChainGraph:
    """Sample a valid chain graph.

    Construction guarantees validity: nodes get a random order and are
    grouped into consecutive blocks (each node joins the previous block
    with probability `undirected_frac`). Pairs inside a block become
    undirected edges with probability `edge_prob`; pairs across blocks
    become directed edges pointing from the earlier block. The seed goes
    through `seeds.compose_seed`, so a negative one raises ValueError
    naming it.
    """
    p = _integer(p, "p", positive=True)
    for name, value in (("edge_prob", edge_prob), ("undirected_frac", undirected_frac)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    rng = np.random.default_rng(compose_seed(seed))
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
