"""Shared builders: hand-made instances and random hierarchies.

Tests pinned to given draws take them from ``random_hierarchy(seed)``, and
property tests draw from the strategy ``hierarchies``. On its cyclic levels
no portal lies on a cycle and gamma stays below the smallest plain time
over the log of the largest out-degree, so every walk sum converges.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
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


_COST_TYPES = {ConstantCost: "constant", AffineCost: "affine", PowerCost: "power"}


def network_doc(net: NetworkHierarchy) -> dict:
    """``net`` in the network file's JSON form, which ``parse_network`` reads."""

    def edge_doc(edge):
        doc = {"id": edge.id, "from": edge.tail, "to": edge.head}
        if edge.cost is None:
            target = {"level": edge.target_od.level + 1, "od": edge.target_od.od}
            return {**doc, "kind": "portal", "target_od": target}
        cost = {"type": _COST_TYPES[type(edge.cost)], **dataclasses.asdict(edge.cost)}
        return {**doc, "kind": "plain", "cost": cost}

    def od_doc(od):
        doc = {"origin": od.origin, "destination": od.destination}
        return doc if od.demand is None else {**doc, "demand": od.demand}

    levels = [
        {
            "nodes": list(level.nodes),
            "edges": [edge_doc(edge) for edge in level.edges],
            "od_pairs": [od_doc(od) for od in level.od_pairs],
        }
        for level in net.levels
    ]
    return {"version": 1, "gammas": list(net.gammas), "levels": levels}


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


_T0 = st.floats(1.0, 1.3)
# random_hierarchy's three cost families, over its parameter ranges.
_COSTS = st.one_of(
    st.builds(ConstantCost, _T0),
    st.builds(AffineCost, _T0, st.floats(0.3, 1.5)),
    st.builds(PowerCost, _T0, st.floats(0.1, 0.3), st.floats(0.8, 2.0),
              st.integers(2, 4).map(float)),
)


def _reach(n: int, arcs) -> list[set[int]]:
    """The nodes each node of ``range(n)`` reaches over ``arcs``, itself included."""
    reach = [{v} for v in range(n)]
    while True:  # one round and a check when every arc is forward
        before = sum(map(len, reach))
        for a, b in sorted(arcs, reverse=True):
            reach[a] |= reach[b]
        if sum(map(len, reach)) == before:
            return reach


@st.composite
def hierarchies(draw, max_nodes=7, acyclic=False) -> tuple[NetworkHierarchy, list[float]]:
    """Random valid hierarchy plus a dual point, built deepest level first.

    A level has 2 to ``max_nodes`` nodes, 1 to ``2 * max_nodes`` forward
    plain arcs, and a portal per OD pair of the level below on any forward
    pair, so some portals carry no flow. Its 1 to 6 OD pairs join a node
    to one it reaches, itself included. Nodes and edges come in a drawn
    order; costs are constant, affine or power, as in ``random_hierarchy``.

    Unless ``acyclic`` is set, half the levels give some plain arcs a
    reverse twin, skipping any twin that would put a portal on a cycle.
    Such a level's gamma is capped at U(0.1, 0.9) times its smallest plain
    time (at the dual point or free flow, so at any point a solve from it
    visits) over the log of its largest out-degree: each row of the walk
    matrix over a cycle then sums below 1.
    """
    m = draw(st.integers(1, 3), label="levels")
    levels, gammas, times = [], [], []
    portals = 0  # the OD pairs of the level below, one portal each
    for k in range(m - 1, -1, -1):
        n = draw(st.integers(2, max_nodes), label="nodes")
        forward = st.sampled_from([(a, b) for a in range(n) for b in range(a + 1, n)])
        arcs = draw(st.lists(forward, min_size=1, max_size=2 * max_nodes), label="plain arcs")
        gates = draw(st.lists(forward, min_size=portals, max_size=portals), label="portals")
        twins = []
        if not acyclic and draw(st.booleans(), label="cyclic"):
            for a, b in arcs:
                if draw(st.booleans(), label="twin"):
                    reach = _reach(n, arcs + twins + [(b, a)] + gates)
                    if all(p not in reach[q] for p, q in gates):
                        twins.append((b, a))
        plain = arcs + twins
        costs = draw(st.lists(_COSTS, min_size=len(plain), max_size=len(plain)), label="costs")
        edges = [
            Edge(f"L{k}e{i}", f"L{k}n{a}", f"L{k}n{b}", cost=cost)
            for i, ((a, b), cost) in enumerate(zip(plain, costs))
        ] + [
            Edge(f"L{k}g{j}", f"L{k}n{a}", f"L{k}n{b}", target_od=ODRef(k + 1, j))
            for j, (a, b) in enumerate(gates)
        ]
        reach = _reach(n, plain + gates)
        pairs = [(o, d) for o in range(n) for d in sorted(reach[o])]
        ods = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6), label="OD pairs")
        demand = st.floats(0.5, 2.0) if k == 0 else st.none()
        od_pairs = tuple(ODPair(f"L{k}n{o}", f"L{k}n{d}", draw(demand)) for o, d in ods)
        nodes = tuple(draw(st.permutations([f"L{k}n{i}" for i in range(n)]), label="node order"))
        edges = tuple(draw(st.permutations(edges), label="edge order"))
        t = [draw(st.floats(0.2, 3.0), label="time") for edge in edges if edge.is_plain]
        gamma = draw(st.floats(0.2, 2.0), label="gamma")
        if twins:
            w_min = min(t + [cost.free_flow_time for cost in costs])
            degree = max(Counter(a for a, _ in plain + gates).values())
            factor = draw(st.floats(0.1, 0.9), label="gamma factor")
            gamma = min(gamma, factor * w_min / math.log(max(degree, 2)))
        levels.insert(0, LevelGraph(nodes, edges, od_pairs))
        gammas.insert(0, gamma)
        times.insert(0, t)
        portals = len(od_pairs)
    return NetworkHierarchy(levels=levels, gammas=gammas), [x for t in times for x in t]
