"""Shared builders: hand-made instances and a random-hierarchy generator."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from sueflow import (
    AffineCost,
    ConstantCost,
    Edge,
    LevelGraph,
    NetworkHierarchy,
    ODPair,
    ODRef,
    PowerCost,
)
from sueflow.cli import parse_network

FIXTURES = Path(__file__).parent / "fixtures"


def parallel_net(costs, demand=1.0, gamma=1.0) -> NetworkHierarchy:
    """Single level, one OD, one parallel edge per cost."""
    edges = tuple(
        Edge(id=f"e{i + 1}", tail="o", head="d", cost=c) for i, c in enumerate(costs)
    )
    level = LevelGraph(
        nodes=("o", "d"), edges=edges, od_pairs=(ODPair("o", "d", demand),)
    )
    return NetworkHierarchy(levels=[level], gammas=[gamma])


def two_edge_net() -> NetworkHierarchy:
    return parallel_net([AffineCost(1.0, 1.0), AffineCost(2.0, 1.0)])


def diamond_net(demand=1.0, gamma=1.0) -> NetworkHierarchy:
    level = LevelGraph(
        nodes=("o", "a", "b", "d"),
        edges=(
            Edge(id="oa", tail="o", head="a", cost=AffineCost(1.0, 1.0)),
            Edge(id="ad", tail="a", head="d", cost=AffineCost(1.0, 1.0)),
            Edge(id="ob", tail="o", head="b", cost=AffineCost(1.2, 0.5)),
            Edge(id="bd", tail="b", head="d", cost=AffineCost(0.8, 0.5)),
        ),
        od_pairs=(ODPair("o", "d", demand),),
    )
    return NetworkHierarchy(levels=[level], gammas=[gamma])


def chain3_net() -> NetworkHierarchy:
    """Three single-route levels: plain weight 2 + portal, 3 + portal, 4."""
    level1 = LevelGraph(
        nodes=("o", "a", "d"),
        edges=(
            Edge(id="c1", tail="o", head="a", cost=ConstantCost(2.0)),
            Edge(id="g1", tail="a", head="d", target_od=ODRef(1, 0)),
        ),
        od_pairs=(ODPair("o", "d", 1.0),),
    )
    level2 = LevelGraph(
        nodes=("u", "x", "w"),
        edges=(
            Edge(id="c2", tail="u", head="x", cost=ConstantCost(3.0)),
            Edge(id="g2", tail="x", head="w", target_od=ODRef(2, 0)),
        ),
        od_pairs=(ODPair("u", "w"),),
    )
    level3 = LevelGraph(
        nodes=("s", "t"),
        edges=(Edge(id="c3", tail="s", head="t", cost=ConstantCost(4.0)),),
        od_pairs=(ODPair("s", "t"),),
    )
    return NetworkHierarchy(levels=[level1, level2, level3], gammas=[1.0, 1.0, 1.0])


def three_level_net() -> NetworkHierarchy:
    """Three levels with real route choice at every level."""
    level1 = LevelGraph(
        nodes=("o", "a", "d"),
        edges=(
            Edge(id="oa", tail="o", head="a", cost=AffineCost(1.0, 0.6)),
            Edge(id="g1", tail="a", head="d", target_od=ODRef(1, 0)),
            Edge(id="od", tail="o", head="d", cost=AffineCost(2.2, 0.4)),
        ),
        od_pairs=(ODPair("o", "d", 1.5),),
    )
    level2 = LevelGraph(
        nodes=("u", "x", "w"),
        edges=(
            Edge(id="ux", tail="u", head="x", cost=AffineCost(0.4, 0.5)),
            Edge(id="g2", tail="x", head="w", target_od=ODRef(2, 0)),
            Edge(id="uw", tail="u", head="w", cost=AffineCost(1.1, 0.7)),
        ),
        od_pairs=(ODPair("u", "w"),),
    )
    level3 = LevelGraph(
        nodes=("s", "t"),
        edges=(
            Edge(id="s1", tail="s", head="t", cost=AffineCost(0.3, 0.9)),
            Edge(id="s2", tail="s", head="t", cost=PowerCost(0.35, 0.2, 1.0, 2.0)),
        ),
        od_pairs=(ODPair("s", "t"),),
    )
    return NetworkHierarchy(levels=[level1, level2, level3], gammas=[1.0, 0.7, 0.5])


def grid3_level(od_pairs) -> LevelGraph:
    """Bidirectional 3x3 grid of affine edges, nodes ``r{i}c{j}``: a cyclic level."""

    def node(i, j):
        return f"r{i}c{j}"

    edges = []
    for i in range(3):
        for j in range(3):
            for ni, nj in ((i, j + 1), (i + 1, j), (i, j - 1), (i - 1, j)):
                if 0 <= ni < 3 and 0 <= nj < 3:
                    a = 0.8 + 0.05 * ((3 * i + 7 * j + 5 * ni + nj) % 9)
                    edges.append(
                        Edge(f"e{len(edges)}", node(i, j), node(ni, nj), cost=AffineCost(a, 0.1))
                    )
    return LevelGraph(
        nodes=tuple(node(i, j) for i in range(3) for j in range(3)),
        edges=tuple(edges),
        od_pairs=tuple(od_pairs),
    )


def plain_flows(net: NetworkHierarchy, res) -> list[float]:
    """The plain-edge flows of loading ``res``, in ``net.plain_edge_order()``."""
    return [res.flows[k][i] for k, i in net.plain_edge_order()]


@pytest.fixture(scope="session")
def two_level_net() -> NetworkHierarchy:
    return parse_network(FIXTURES / "two_level.json")


def random_hierarchy(seed: int) -> tuple[NetworkHierarchy, list[float]]:
    """Small random valid hierarchy plus a dual point near free flow.

    Levels are DAGs over ordered nodes with a guaranteed origin-destination
    chain; portal edges at level k bind bijectively to level k+1 OD pairs.
    Free-flow times sit in a narrow band so no route's choice probability
    underflows, which keeps finite-difference gradient checks meaningful.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    portal_counts = [int(rng.integers(1, 3)) for _ in range(m - 1)] + [0]

    levels: list[LevelGraph] = []
    total_edges = 0
    for k in range(m):
        n_nodes = int(rng.integers(3, 6))
        names = [f"L{k}n{i}" for i in range(n_nodes)]
        edges = []

        def plain_cost():
            t0 = float(rng.uniform(1.0, 1.3))
            kind = rng.integers(0, 3)
            if kind == 0:
                return ConstantCost(t0)
            if kind == 1:
                return AffineCost(t0, float(rng.uniform(0.3, 1.5)))
            return PowerCost(
                t0,
                float(rng.uniform(0.1, 0.3)),
                float(rng.uniform(0.8, 2.0)),
                float(rng.integers(2, 5)),
            )

        # chain guaranteeing a route from node 0 to the last node
        chain = [0]
        while chain[-1] != n_nodes - 1:
            nxt = int(rng.integers(chain[-1] + 1, n_nodes))
            chain.append(nxt)
        eid = 0
        for a, b in zip(chain, chain[1:]):
            edges.append(Edge(f"L{k}e{eid}", names[a], names[b], cost=plain_cost()))
            eid += 1
        extra = int(rng.integers(0, 4))
        for _ in range(extra):
            a = int(rng.integers(0, n_nodes - 1))
            b = int(rng.integers(a + 1, n_nodes))
            edges.append(Edge(f"L{k}e{eid}", names[a], names[b], cost=plain_cost()))
            eid += 1
        # portals: forward pairs, bound to the next level's OD pairs in order
        for j in range(portal_counts[k]):
            a = int(rng.integers(0, n_nodes - 1))
            b = int(rng.integers(a + 1, n_nodes))
            edges.append(Edge(f"L{k}e{eid}", names[a], names[b], target_od=ODRef(k + 1, j)))
            eid += 1

        if k == 0:
            od_pairs = (ODPair(names[0], names[-1], float(rng.uniform(0.5, 2.0))),)
        else:
            od_pairs = tuple(
                ODPair(names[0], names[-1]) for _ in range(portal_counts[k - 1])
            )
        levels.append(LevelGraph(tuple(names), tuple(edges), od_pairs))
        total_edges += len(edges)
        if total_edges > 20:
            return random_hierarchy(seed + 1000)  # retry smaller draw

    gammas = [float(rng.uniform(0.2, 2.0)) for _ in range(m)]
    net = NetworkHierarchy(levels=levels, gammas=gammas)
    t = [c.free_flow_time + float(rng.uniform(0.0, 0.05)) for c in net.plain_costs()]
    return net, t


@st.composite
def dag_hierarchies(
    draw, max_nodes: int = 7, max_edges: int = 12
) -> tuple[NetworkHierarchy, list[float]]:
    """Random valid DAG hierarchy plus a dual point, built deepest level first.

    Each level lists its nodes and edges in a drawn order, and its OD pairs
    join any node to one it reaches, so a destination often has several
    origins, some upstream of others, and an OD pair may start at its
    destination. Portals join any nodes a route can use, so some carry no
    flow and their lower-level OD pairs get zero demand. Each level has 2
    to ``max_nodes`` nodes and 1 to ``max_edges`` plain edges.
    """
    m = draw(st.integers(1, 3), label="levels")
    levels: list[LevelGraph] = []
    portals = 0  # the OD pairs of the level below, one portal each
    for k in range(m - 1, -1, -1):
        n = draw(st.integers(2, max_nodes), label="nodes")
        forward = st.sampled_from([(a, b) for a in range(n) for b in range(a + 1, n)])
        arcs = draw(st.lists(forward, min_size=1, max_size=max_edges), label="plain edges")
        gates = draw(st.lists(forward, min_size=portals, max_size=portals), label="portals")
        edges = [
            Edge(f"L{k}e{i}", f"L{k}n{a}", f"L{k}n{b}", cost=ConstantCost(1.0))
            for i, (a, b) in enumerate(arcs)
        ] + [
            Edge(f"L{k}g{j}", f"L{k}n{a}", f"L{k}n{b}", target_od=ODRef(k + 1, j))
            for j, (a, b) in enumerate(gates)
        ]
        reach = [{v} for v in range(n)]
        for a in range(n - 1, -1, -1):
            for tail, head in arcs + gates:
                if tail == a:
                    reach[a] |= reach[head]
        pairs = [(o, d) for o in range(n) for d in sorted(reach[o])]
        ods = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6), label="OD pairs")
        demand = st.floats(0.5, 2.0) if k == 0 else st.none()
        od_pairs = tuple(ODPair(f"L{k}n{o}", f"L{k}n{d}", draw(demand)) for o, d in ods)
        nodes = tuple(draw(st.permutations([f"L{k}n{i}" for i in range(n)]), label="node order"))
        edges = tuple(draw(st.permutations(edges), label="edge order"))
        levels.insert(0, LevelGraph(nodes, edges, od_pairs))
        portals = len(od_pairs)
    gammas = [draw(st.floats(0.2, 2.0), label="gamma") for _ in range(m)]
    net = NetworkHierarchy(levels=levels, gammas=gammas)
    t = [draw(st.floats(0.2, 3.0), label="time") for _ in range(len(net.plain_edge_order()))]
    return net, t


@st.composite
def cyclic_levels(draw, max_nodes=64):
    """A one-level cyclic network and a dual point: a bidirectional grid,
    or a bidirectional ring with chords, of 3 to ``max_nodes`` nodes, with
    1 to 8 OD pairs between distinct nodes. Each arc has its own time in
    [0.5, 2]. With every time at least ``w_min`` and at most ``degree``
    out-edges per node, gamma ``< w_min / log(degree)`` keeps each row of
    the walk matrix summing below 1, so the walk sum converges.
    """
    if draw(st.booleans(), label="grid"):
        rows = draw(st.integers(2, 8), label="rows")
        cols = draw(st.integers(2, max_nodes // rows), label="columns")
        n = rows * cols
        pairs = {(v, v + 1) for v in range(n) if (v + 1) % cols} | {
            (v, v + cols) for v in range(n - cols)}
    else:
        n = draw(st.integers(3, max_nodes), label="nodes")
        pairs = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
        chord = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for a, b in draw(st.lists(chord, max_size=n), label="chords"):
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    arcs = sorted(pairs) + sorted((b, a) for a, b in pairs)
    t = [draw(st.floats(0.5, 2.0), label=f"t{a}-{b}") for a, b in arcs]
    degree = max(sum(1 for a, _ in arcs if a == v) for v in range(n))
    gamma = draw(st.floats(0.1, 0.9), label="gamma factor") * min(t) / math.log(degree)
    node = st.integers(0, n - 1)
    ends = st.tuples(node, node).filter(lambda od: od[0] != od[1])
    ods = draw(st.lists(ends, min_size=1, max_size=8), label="OD pairs")
    level = LevelGraph(
        nodes=tuple(f"v{v}" for v in range(n)),
        edges=tuple(Edge(f"e{a}-{b}", f"v{a}", f"v{b}", cost=ConstantCost(1.0)) for a, b in arcs),
        od_pairs=tuple(
            ODPair(f"v{o}", f"v{d}", draw(st.floats(0.5, 3.0), label="demand")) for o, d in ods
        ),
    )
    return NetworkHierarchy([level], [gamma]), t


# Every DAG hierarchy source above, for property tests of loading.
any_dag_hierarchy = st.one_of(st.integers(0, 299).map(random_hierarchy), dag_hierarchies())
