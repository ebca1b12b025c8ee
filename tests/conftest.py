from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ampcg import ChainGraph

# CI runs replay the same examples, so a red run reproduces locally with CI=1;
# local runs keep drawing fresh examples.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def six_node_graph() -> ChainGraph:
    """Two singleton components feeding two undirected pairs; the running example."""
    return ChainGraph(
        6,
        directed={(0, 1), (0, 2), (0, 3), (1, 3), (2, 4), (3, 5)},
        undirected={(2, 3), (4, 5)},
    )


@st.composite
def chain_graphs(draw, min_p: int = 1, max_p: int = 5):
    """Arbitrary valid chain graphs with shrink-friendly structure.

    A node order is cut into blocks and each pair gets one edge flag: an
    undirected edge inside a block, an arrow forward across blocks, as in
    `random_chain_graph`. Every draw is therefore valid, and shrinking
    heads for one block with no edges.
    """
    p = draw(st.integers(min_p, max_p))
    order = draw(st.permutations(range(p)))
    cuts = draw(st.lists(st.booleans(), min_size=p - 1, max_size=p - 1))
    block = dict(zip(order, itertools.accumulate(cuts, initial=0)))
    pairs = list(itertools.combinations(order, 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, flag in zip(pairs, flags) if flag]
    directed = {(a, b) for a, b in edges if block[a] != block[b]}
    undirected = {(a, b) for a, b in edges if block[a] == block[b]}
    return ChainGraph(p, directed, undirected)
