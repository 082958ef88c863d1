"""Loading on awkward but legal topologies, cross-checked by enumeration."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sueflow import (
    AffineCost,
    ConstantCost,
    Edge,
    LevelGraph,
    NetworkHierarchy,
    ODPair,
    ODRef,
    dual_smooth_value,
    network_loading,
    validate_hierarchy,
)
from sueflow.loading import entropy_term, surrogate_primal, verify_conservation
from sueflow import oracle

from conftest import grid3_level, plain_flows


def assert_matches_enumeration(net, t):
    res = network_loading(net, t)
    verify_conservation(net, res)
    ref, _ = oracle.loading_by_enumeration(net, t)
    for k, level in enumerate(net.levels):
        for pos, edge in enumerate(level.edges):
            want = ref[k][edge.id]
            assert res.flows[k][pos] == pytest.approx(want, abs=1e-12 * (1 + abs(want)))
    return res


def gradient_check(net, t, tol=1e-6):
    flows = plain_flows(net, network_loading(net, t))
    h = 1e-5
    for pos in range(len(net.plain_edge_order())):
        tp, tm = list(t), list(t)
        tp[pos] += h
        tm[pos] -= h
        fd = (dual_smooth_value(net, tp) - dual_smooth_value(net, tm)) / (2 * h)
        assert abs(fd + flows[pos]) <= tol * max(abs(flows[pos]), 1e-9)


def test_two_ods_sharing_edges():
    # both trips funnel through the same middle edge; flows accumulate
    level = LevelGraph(
        nodes=("a", "b", "m", "n", "x", "y"),
        edges=(
            Edge("am", "a", "m", cost=AffineCost(1.0, 0.5)),
            Edge("bm", "b", "m", cost=AffineCost(1.1, 0.5)),
            Edge("mn", "m", "n", cost=AffineCost(0.5, 1.0)),
            Edge("nx", "n", "x", cost=AffineCost(1.0, 0.5)),
            Edge("ny", "n", "y", cost=AffineCost(1.2, 0.5)),
            Edge("ax", "a", "x", cost=AffineCost(2.6, 0.2)),
            Edge("by", "b", "y", cost=AffineCost(2.9, 0.2)),
        ),
        od_pairs=(ODPair("a", "x", 1.0), ODPair("b", "y", 2.0)),
    )
    net = NetworkHierarchy([level], [0.9])
    assert validate_hierarchy(net) == []
    t = [c.free_flow_time + 0.1 for c in net.plain_costs()]
    res = assert_matches_enumeration(net, t)
    gradient_check(net, t)
    # the shared edge carries contributions of both trips
    shared = res.flows[0][2]
    assert shared > max(res.flows[0][0], res.flows[0][1])


def test_serial_portals_with_shared_lower_edges():
    # one route crosses two portals whose target trips overlap below
    level1 = LevelGraph(
        nodes=("o", "m", "d"),
        edges=(
            Edge("g1", "o", "m", target_od=ODRef(1, 0)),
            Edge("g2", "m", "d", target_od=ODRef(1, 1)),
            Edge("bypass", "o", "d", cost=AffineCost(2.0, 0.5)),
        ),
        od_pairs=(ODPair("o", "d", 1.5),),
    )
    level2 = LevelGraph(
        nodes=("u", "v", "w"),
        edges=(
            Edge("uv", "u", "v", cost=AffineCost(0.4, 0.6)),
            Edge("vw", "v", "w", cost=AffineCost(0.5, 0.7)),
            Edge("uw", "u", "w", cost=AffineCost(1.0, 0.4)),
        ),
        od_pairs=(ODPair("u", "w"), ODPair("v", "w")),
    )
    net = NetworkHierarchy([level1, level2], [1.0, 0.8])
    assert validate_hierarchy(net) == []
    t = [c.free_flow_time + 0.05 for c in net.plain_costs()]
    res = assert_matches_enumeration(net, t)
    gradient_check(net, t)
    # edge vw serves both lower trips; its flow exceeds either induced demand share
    assert res.induced_demands[1][0] == pytest.approx(res.flows[0][0])
    assert res.induced_demands[1][1] == pytest.approx(res.flows[0][1])


def test_node_names_are_per_level_namespaces():
    # the same string names different nodes at different levels
    level1 = LevelGraph(
        nodes=("o", "d"),
        edges=(Edge("g", "o", "d", target_od=ODRef(1, 0)),),
        od_pairs=(ODPair("o", "d", 1.0),),
    )
    level2 = LevelGraph(
        nodes=("o", "d"),
        edges=(
            Edge("q1", "o", "d", cost=ConstantCost(1.0)),
            Edge("q2", "o", "d", cost=ConstantCost(1.0)),
        ),
        od_pairs=(ODPair("o", "d"),),
    )
    net = NetworkHierarchy([level1, level2], [1.0, 1.0])
    assert validate_hierarchy(net) == []
    res = network_loading(net, [1.0, 1.0])
    assert res.flows[1][0] == pytest.approx(0.5)
    assert res.smooth_value == pytest.approx(-(1.0 - math.log(2.0)), abs=1e-13)


def test_destination_with_outgoing_edges():
    # trips end at d even though the graph continues beyond it
    level = LevelGraph(
        nodes=("o", "d", "x"),
        edges=(
            Edge("od", "o", "d", cost=AffineCost(1.0, 1.0)),
            Edge("dx", "d", "x", cost=AffineCost(1.0, 1.0)),
            Edge("ox", "o", "x", cost=AffineCost(1.5, 1.0)),
        ),
        od_pairs=(ODPair("o", "d", 2.0),),
    )
    net = NetworkHierarchy([level], [1.0])
    assert validate_hierarchy(net) == []
    t = [1.0, 1.0, 1.5]
    res = assert_matches_enumeration(net, t)
    assert res.flows[0][0] == pytest.approx(2.0)  # single route o -> d
    assert res.flows[0][1] == 0.0
    assert res.flows[0][2] == 0.0
    gradient_check(net, t)


def test_origin_shared_by_two_ods():
    level = LevelGraph(
        nodes=("o", "x", "y"),
        edges=(
            Edge("ox", "o", "x", cost=AffineCost(1.0, 1.0)),
            Edge("oy", "o", "y", cost=AffineCost(1.0, 1.0)),
            Edge("xy", "x", "y", cost=AffineCost(0.2, 1.0)),
        ),
        od_pairs=(ODPair("o", "x", 1.0), ODPair("o", "y", 2.0)),
    )
    net = NetworkHierarchy([level], [0.7])
    assert validate_hierarchy(net) == []
    t = [1.05, 1.1, 0.25]
    assert_matches_enumeration(net, t)
    gradient_check(net, t)


def test_parallel_portal_and_plain_edge():
    # a portal competing directly with a plain edge between the same nodes
    level1 = LevelGraph(
        nodes=("o", "d"),
        edges=(
            Edge("g", "o", "d", target_od=ODRef(1, 0)),
            Edge("e", "o", "d", cost=AffineCost(1.0, 1.0)),
        ),
        od_pairs=(ODPair("o", "d", 1.0),),
    )
    level2 = LevelGraph(
        nodes=("u", "w"),
        edges=(Edge("q", "u", "w", cost=ConstantCost(1.0)),),
        od_pairs=(ODPair("u", "w"),),
    )
    net = NetworkHierarchy([level1, level2], [1.0, 1.0])
    t = [1.0, 1.0]
    res = assert_matches_enumeration(net, t)
    # equal one-edge costs either way: an even logit split
    assert res.flows[0][0] == pytest.approx(0.5)
    assert res.induced_demands[1][0] == pytest.approx(0.5)


def test_cyclic_grid_matches_enumeration():
    # Bidirectional 3x3 grid. At this temperature a walk that repeats a node
    # carries under exp(-80) of an OD's mass, so the walk sum of the cyclic
    # loading and the oracle's simple-path enumeration must agree.
    level = grid3_level((ODPair("r0c0", "r2c2", 1.0), ODPair("r2c0", "r0c2", 2.0)))
    net = NetworkHierarchy([level], [0.02])
    assert validate_hierarchy(net) == []
    t = net.free_flow_times()
    res = network_loading(net, t)
    verify_conservation(net, res)
    ref, _ = oracle.loading_by_enumeration(net, t)
    for pos, edge in enumerate(level.edges):
        want = ref[0][edge.id]
        assert abs(res.flows[0][pos] - want) <= 1e-9 * (1.0 + abs(want))


# OD pairs that share a destination are loaded together: one soft-min field
# and one forward pass carry all their demand. The tests below cross-check
# that against per-route enumeration, flows and entropy alike.


def assert_entropy_exact(net, t, res):
    # the path-free primal with the batched entropy equals the primal at the
    # enumerated route flows
    _, tables = oracle.loading_by_enumeration(net, t)
    exact = oracle.primal_objective(net, tables, res.flows)
    assert surrogate_primal(net, res.flows, entropy_term(net, res)) == pytest.approx(
        exact, rel=1e-12
    )


def test_three_origins_into_one_destination():
    # m is an origin and also an interior node of a's routes; (a, d) repeats
    level = LevelGraph(
        nodes=("a", "b", "m", "n", "d"),
        edges=(
            Edge("am", "a", "m", cost=AffineCost(1.0, 0.5)),
            Edge("an", "a", "n", cost=AffineCost(1.6, 0.4)),
            Edge("bm", "b", "m", cost=AffineCost(1.1, 0.5)),
            Edge("mn", "m", "n", cost=AffineCost(0.5, 1.0)),
            Edge("md", "m", "d", cost=AffineCost(1.4, 0.6)),
            Edge("nd", "n", "d", cost=AffineCost(0.9, 0.8)),
            Edge("bd", "b", "d", cost=AffineCost(2.5, 0.2)),
        ),
        od_pairs=(
            ODPair("a", "d", 1.0),
            ODPair("m", "d", 0.7),
            ODPair("b", "d", 1.5),
            ODPair("a", "d", 0.4),
            ODPair("b", "n", 0.6),
        ),
    )
    net = NetworkHierarchy([level], [0.9])
    assert validate_hierarchy(net) == []
    assert level.index.dest_slot == [0, 0, 0, 0, 1]
    t = [c.free_flow_time + 0.1 for c in net.plain_costs()]
    res = assert_matches_enumeration(net, t)
    assert_entropy_exact(net, t, res)
    gradient_check(net, t)


def test_lower_level_trips_share_a_destination():
    # four portals bind level-2 trips, three of them into w (two u -> w)
    # and one into z
    level1 = LevelGraph(
        nodes=("o", "m", "d"),
        edges=(
            Edge("g1", "o", "m", target_od=ODRef(1, 0)),
            Edge("g2", "m", "d", target_od=ODRef(1, 1)),
            Edge("g3", "o", "d", target_od=ODRef(1, 2)),
            Edge("g4", "m", "d", target_od=ODRef(1, 3)),
            Edge("bypass", "o", "d", cost=AffineCost(2.4, 0.5)),
        ),
        od_pairs=(ODPair("o", "d", 1.5), ODPair("m", "d", 0.5)),
    )
    level2 = LevelGraph(
        nodes=("u", "v", "z", "w"),
        edges=(
            Edge("uv", "u", "v", cost=AffineCost(0.4, 0.6)),
            Edge("uz", "u", "z", cost=AffineCost(0.7, 0.3)),
            Edge("vz", "v", "z", cost=AffineCost(0.3, 0.5)),
            Edge("vw", "v", "w", cost=AffineCost(0.5, 0.7)),
            Edge("zw", "z", "w", cost=AffineCost(0.6, 0.4)),
            Edge("uw", "u", "w", cost=AffineCost(1.0, 0.4)),
        ),
        od_pairs=(ODPair("u", "w"), ODPair("v", "w"), ODPair("u", "z"), ODPair("u", "w")),
    )
    net = NetworkHierarchy([level1, level2], [1.0, 0.8])
    assert validate_hierarchy(net) == []
    assert level2.index.dest_slot == [0, 0, 1, 0]
    t = [c.free_flow_time + 0.05 for c in net.plain_costs()]
    res = assert_matches_enumeration(net, t)
    assert_entropy_exact(net, t, res)
    gradient_check(net, t)


def test_cyclic_grid_two_origins_into_one_corner():
    # the grid and temperature of test_cyclic_grid_matches_enumeration, with
    # both trips bound for r2c2
    level = grid3_level((ODPair("r0c0", "r2c2", 1.0), ODPair("r2c0", "r2c2", 2.0)))
    net = NetworkHierarchy([level], [0.02])
    assert validate_hierarchy(net) == []
    t = net.free_flow_times()
    res = assert_matches_enumeration(net, t)
    assert_entropy_exact(net, t, res)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_loading_is_the_sum_of_one_od_loadings(data):
    # A chain 0 -> 1 -> ... -> n-1 plus random forward chords; OD pairs drawn
    # onto at most two destinations. Times and temperatures stay in a band
    # where no route's share is small enough to spoil the finite differences.
    n = data.draw(st.integers(3, 5), label="nodes")
    pairs = [(i, i + 1) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 2, n):
            if data.draw(st.booleans(), label=f"chord {i}-{j}"):
                pairs.append((i, j))
    nodes = tuple(f"v{i}" for i in range(n))
    edges = tuple(Edge(f"e{i}-{j}", nodes[i], nodes[j], cost=ConstantCost(1.0)) for i, j in pairs)
    dests = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2, unique=True),
                      label="destinations")
    ods = []
    for j in range(data.draw(st.integers(1, 4), label="od pairs")):
        dst = data.draw(st.sampled_from(dests), label=f"destination {j}")
        src = data.draw(st.integers(0, dst - 1), label=f"origin {j}")
        ods.append(ODPair(nodes[src], nodes[dst], data.draw(st.floats(0.5, 2.0), label="demand")))
    gamma = data.draw(st.floats(1.0, 2.0), label="gamma")
    t = [data.draw(st.floats(1.0, 1.3), label=f"t {i}-{j}") for i, j in pairs]

    net = NetworkHierarchy([LevelGraph(nodes, edges, tuple(ods))], [gamma])
    res = network_loading(net, t)
    flows, entropy = [0.0] * len(edges), 0.0
    for od in ods:
        alone = network_loading(NetworkHierarchy([LevelGraph(nodes, edges, (od,))], [gamma]), t)
        flows = [f + g for f, g in zip(flows, alone.flows[0])]
        entropy += alone.entropies[0]
    for got, want in zip(res.flows[0], flows):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(res.entropies[0] - entropy) <= 1e-12 * abs(entropy)
    gradient_check(net, t)
