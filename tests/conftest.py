from __future__ import annotations

import itertools
import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ampcg import ChainGraph, Dataset, random_chain_graph

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


def near_collinear_input(seed) -> tuple[ChainGraph, Dataset]:
    """(graph, dataset) of one near-collinear input, drawn from `seed` alone.

    A `random_chain_graph(p, 0.7, 0.6)` on 2-6 nodes and p + 1 to 59 rows
    of standard normal data, one column of which is another plus normal
    noise of standard deviation 10^-u, u uniform in [2, 5.5]: data that
    passes `moment_matrix` and fits with an ill-conditioned error
    covariance.
    """
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 7))
    g = random_chain_graph(p, 0.7, 0.6, seed=seed)
    x = rng.normal(size=(int(rng.integers(p + 1, 60)), p))
    a, b = rng.choice(p, 2, replace=False)
    x[:, b] = x[:, a] + 10 ** -rng.uniform(2, 5.5) * rng.normal(size=len(x))
    return g, Dataset(x)
