"""The ``hierarchies`` strategy reaches every shape its docstring promises,
so that a later narrowing of it shows."""

from __future__ import annotations

import pytest
from hypothesis import Phase, find, settings
from hypothesis.errors import NoSuchExample
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from sueflow import PowerCost

from conftest import hierarchies


def cyclic(level):
    return level.index.topo is None


def edges_on_cycles(level):
    index = level.index
    n = index.n_nodes
    graph = csr_matrix(([1.0] * len(index.tails), (index.tails, index.heads)), shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="strong")
    return [e for e, a, b in zip(level.edges, index.tails, index.heads) if labels[a] == labels[b]]


SHAPES = {
    # every level but the deepest has a portal per OD pair of the next
    "a cyclic level above a portal": lambda net: any(map(cyclic, net.levels[:-1])),
    "a cyclic level below a portal": lambda net: any(map(cyclic, net.levels[1:])),
    "a power cost on a cycle": lambda net: any(
        isinstance(edge.cost, PowerCost) for level in net.levels for edge in edges_on_cycles(level)
    ),
    "an origin that is its own destination on a cyclic level": lambda net: any(
        cyclic(level) and any(od.origin == od.destination for od in level.od_pairs)
        for level in net.levels
    ),
}


def test_draws_every_shape_and_no_cycle_when_acyclic():
    # The first draw of each shape will do; shrinking it takes minutes.
    search = settings(max_examples=200, derandomize=True, database=None, phases=[Phase.generate])
    for shape, holds in SHAPES.items():
        net, _ = find(hierarchies(), lambda case: holds(case[0]), settings=search)
        assert holds(net), shape
    with pytest.raises(NoSuchExample):
        find(hierarchies(acyclic=True), lambda case: any(map(cyclic, case[0].levels)),
             settings=search)
