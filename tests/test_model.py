"""Hierarchy validation and the compiled level index."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from sueflow import (
    AffineCost,
    ConstantCost,
    Edge,
    LevelGraph,
    NetworkHierarchy,
    ODPair,
    ODRef,
    validate_hierarchy,
)
from sueflow.loading import _layout

from conftest import chain3_net, parallel_net, two_edge_net


def codes(net):
    return [v.code for v in validate_hierarchy(net)]


class TestValidate:
    def test_well_formed_parallel_net(self):
        assert validate_hierarchy(two_edge_net()) == []

    def test_portal_at_last_level(self):
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("g", "o", "d", target_od=ODRef(1, 0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        assert "PortalAtLastLevel" in codes(NetworkHierarchy([level], [1.0]))

    def test_duplicate_portal_binding(self):
        level1 = LevelGraph(
            nodes=("o", "a", "d"),
            edges=(
                Edge("g1", "o", "a", target_od=ODRef(1, 0)),
                Edge("g2", "a", "d", target_od=ODRef(1, 0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        level2 = LevelGraph(
            nodes=("u", "w"),
            edges=(Edge("q", "u", "w", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("u", "w"),),
        )
        net = NetworkHierarchy([level1, level2], [1.0, 1.0])
        assert "DuplicatePortalBinding" in codes(net)

    def test_unbound_od(self):
        level1 = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("g", "o", "d", target_od=ODRef(1, 0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        level2 = LevelGraph(
            nodes=("u", "w"),
            edges=(Edge("q", "u", "w", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("u", "w"), ODPair("u", "w")),
        )
        net = NetworkHierarchy([level1, level2], [1.0, 1.0])
        assert "UnboundOD" in codes(net)

    def test_self_loop(self):
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(
                Edge("e", "o", "d", cost=AffineCost(1.0, 1.0)),
                Edge("loop", "o", "o", cost=AffineCost(1.0, 1.0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        found = codes(NetworkHierarchy([level], [1.0]))
        assert "SelfLoop" in found

    def test_unknown_endpoint(self):
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("e", "o", "x", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        found = codes(NetworkHierarchy([level], [1.0]))
        assert "UnknownEndpoint" in found

    def test_missing_level1_demand(self):
        net = parallel_net([AffineCost(1.0, 1.0)])
        level = LevelGraph(
            nodes=net.levels[0].nodes,
            edges=net.levels[0].edges,
            od_pairs=(ODPair("o", "d"),),
        )
        assert "BadDemand" in codes(NetworkHierarchy([level], [1.0]))
        for demand in (math.inf, math.nan):
            level = LevelGraph(
                nodes=net.levels[0].nodes,
                edges=net.levels[0].edges,
                od_pairs=(ODPair("o", "d", demand),),
            )
            assert "BadDemand" in codes(NetworkHierarchy([level], [1.0])), demand

    def test_demand_at_upper_level(self):
        net = chain3_net()
        level2 = net.levels[1]
        bad = LevelGraph(
            nodes=level2.nodes,
            edges=level2.edges,
            od_pairs=(ODPair("u", "w", 5.0),),
        )
        out = NetworkHierarchy([net.levels[0], bad, net.levels[2]], net.gammas)
        assert "DemandAtUpperLevel" in codes(out)

    def test_no_path(self):
        level = LevelGraph(
            nodes=("o", "d", "x"),
            edges=(Edge("e", "o", "x", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        assert "NoPathForOD" in codes(NetworkHierarchy([level], [1.0]))

    def test_cycle_without_cap(self):
        level = LevelGraph(
            nodes=("o", "a", "d"),
            edges=(
                Edge("e1", "o", "a", cost=AffineCost(1.0, 1.0)),
                Edge("e2", "a", "o", cost=AffineCost(1.0, 1.0)),
                Edge("e3", "a", "d", cost=AffineCost(1.0, 1.0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        # A cyclic level is ordinary input: its loading sums over walks and
        # reports a sum that diverges; validation checks structure only.
        assert codes(NetworkHierarchy([level], [1.0])) == []

    def test_gamma_checks(self):
        net = two_edge_net()
        assert "GammaCountMismatch" in codes(
            NetworkHierarchy(net.levels, [1.0, 1.0])
        )
        assert "NonpositiveGamma" in codes(NetworkHierarchy(net.levels, [0.0]))
        for gamma in (math.inf, math.nan):
            assert "NonpositiveGamma" in codes(NetworkHierarchy(net.levels, [gamma])), gamma

    def test_duplicate_edge_id(self):
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(
                Edge("e", "o", "d", cost=AffineCost(1.0, 1.0)),
                Edge("e", "o", "d", cost=AffineCost(2.0, 1.0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        assert "DuplicateEdgeId" in codes(NetworkHierarchy([level], [1.0]))

    def test_pure_function(self):
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("g", "o", "d", target_od=ODRef(1, 0)),),
            od_pairs=(ODPair("o", "d"),),
        )
        net = NetworkHierarchy([level], [0.0])
        assert validate_hierarchy(net) == validate_hierarchy(net)

    def test_edge_requires_exactly_one_kind(self):
        with pytest.raises(ValueError):
            Edge("e", "o", "d")
        with pytest.raises(ValueError):
            Edge("e", "o", "d", cost=AffineCost(1.0, 1.0), target_od=ODRef(1, 0))


A = AffineCost(1.0, 1.0)
OD = ODPair("o", "d", 1.0)


def one_level(nodes, edges, od_pairs):
    return NetworkHierarchy([LevelGraph(nodes, edges, od_pairs)], [1.0])


def chain3(top=None, middle=None):
    """``chain3_net`` with level 1's edges or level 2's OD pairs replaced."""
    l1, l2, l3 = chain3_net().levels
    if top is not None:
        l1 = LevelGraph(l1.nodes, top, l1.od_pairs)
    if middle is not None:
        l2 = LevelGraph(l2.nodes, l2.edges, middle)
    return NetworkHierarchy([l1, l2, l3], [1.0, 1.0, 1.0])


def violation_cases():
    """One network per violation code, with every violation it yields."""
    c1 = Edge("c1", "o", "a", cost=ConstantCost(2.0))
    return {
        "EmptyHierarchy": (NetworkHierarchy([], []), [
            ("EmptyHierarchy", "levels", "at least one level is required")]),
        "GammaCountMismatch": (NetworkHierarchy(two_edge_net().levels, [1.0, 1.0]), [
            ("GammaCountMismatch", "gammas", "2 temperatures for 1 levels")]),
        "NonpositiveGamma": (NetworkHierarchy(chain3_net().levels, [1.0, -0.5, 1.0]), [
            ("NonpositiveGamma", "gammas[1]", "gamma must be finite and > 0, got -0.5")]),
        "DuplicateNodeId": (one_level(("o", "d", "o"), (Edge("e", "o", "d", cost=A),), (OD,)), [
            ("DuplicateNodeId", "levels[0].nodes", "repeated node id")]),
        "DuplicateEdgeId": (
            one_level(("o", "d"), (Edge("e", "o", "d", cost=A), Edge("e", "o", "d", cost=A)),
                      (OD,)),
            [("DuplicateEdgeId", "levels[0].edges[1](e)", "edge id 'e' repeated")]),
        "SelfLoop": (
            one_level(("o", "d"), (Edge("e", "o", "d", cost=A), Edge("loop", "o", "o", cost=A)),
                      (OD,)),
            [("SelfLoop", "levels[0].edges[1](loop)", "self-loops are not allowed")]),
        "UnknownEndpoint": (
            one_level(("o", "d"), (Edge("e", "o", "x", cost=A),), (ODPair("y", "d", 1.0),)),
            [("UnknownEndpoint", "levels[0].edges[0](e)", "node 'x' not in level"),
             ("UnknownEndpoint", "levels[0].od_pairs[0]", "node 'y' not in level")]),
        "PortalAtLastLevel": (
            one_level(("o", "d"), (Edge("e", "o", "d", cost=A),
                                   Edge("g", "o", "d", target_od=ODRef(1, 0))), (OD,)),
            [("PortalAtLastLevel", "levels[0].edges[1](g)", "last level admits no portals")]),
        "BadPortalTarget": (
            chain3(top=(c1, Edge("g1", "a", "d", target_od=ODRef(2, 0)),
                        Edge("g0", "o", "d", target_od=ODRef(1, 3)))),
            [("BadPortalTarget", "levels[0].edges[1](g1)", "portal must target level 2, got 3"),
             ("BadPortalTarget", "levels[0].edges[2](g0)", "od index 3 out of range at level 2"),
             ("UnboundOD", "levels[1].od_pairs[0]", "no level-1 portal is bound to this OD pair")]),
        "BadDemand": (
            one_level(("o", "d"), (Edge("e", "o", "d", cost=A),),
                      (ODPair("o", "d"), ODPair("o", "d", math.inf))),
            [("BadDemand", "levels[0].od_pairs[0]",
              "level-1 demand must be finite and > 0, got None"),
             ("BadDemand", "levels[0].od_pairs[1]",
              "level-1 demand must be finite and > 0, got inf")]),
        "DemandSumOverflow": (
            one_level(("a", "b", "m", "d"),
                      (Edge("am", "a", "m", cost=A), Edge("bm", "b", "m", cost=A),
                       Edge("md", "m", "d", cost=A)),
                      (ODPair("a", "d", 1e308), ODPair("b", "d", 1e308))),
            [("DemandSumOverflow", "levels[0].od_pairs",
              "level-1 demands sum past the largest float")]),
        "DemandAtUpperLevel": (chain3(middle=(ODPair("u", "w", 5.0),)), [
            ("DemandAtUpperLevel", "levels[1].od_pairs[0]",
             "demands below level 1 are induced by portal flow, not data")]),
        "DuplicatePortalBinding": (
            chain3(top=(c1, Edge("g1", "a", "d", target_od=ODRef(1, 0)),
                        Edge("g0", "o", "d", target_od=ODRef(1, 0)))),
            [("DuplicatePortalBinding", "levels[1].od_pairs[0]",
              "bound by portals ['g1', 'g0'] at level 1")]),
        "UnboundOD": (chain3(middle=(ODPair("u", "w"), ODPair("x", "w"))), [
            ("UnboundOD", "levels[1].od_pairs[1]", "no level-1 portal is bound to this OD pair")]),
        "NoPathForOD": (one_level(("o", "d", "x"), (Edge("e", "o", "x", cost=A),), (OD,)), [
            ("NoPathForOD", "levels[0].od_pairs[0]", "no path 'o' -> 'd'")]),
    }


class TestViolationPaths:
    """Every violation code with its exact path and message."""

    @pytest.mark.parametrize("code", list(violation_cases()))
    def test_code_path_and_message(self, code):
        net, expected = violation_cases()[code]
        found = [(v.code, v.path, v.message) for v in validate_hierarchy(net)]
        assert found == expected
        assert code in [c for c, _, _ in found]


class TestLevelIndex:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_order_and_reachability_match_scipy(self, data):
        # Random level graphs without self-loops; cycles and parallel edges allowed.
        n = data.draw(st.integers(1, 7), label="nodes")
        node = st.integers(0, n - 1)
        arcs = data.draw(
            st.lists(st.tuples(node, node).filter(lambda a: a[0] != a[1]), max_size=14),
            label="edges",
        )
        ods = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=4), label="ods")
        level = LevelGraph(
            nodes=tuple(f"v{i}" for i in range(n)),
            edges=tuple(
                Edge(f"e{i}", f"v{a}", f"v{b}", cost=AffineCost(1.0, 1.0))
                for i, (a, b) in enumerate(arcs)
            ),
            od_pairs=tuple(ODPair(f"v{o}", f"v{d}", 1.0) for o, d in ods),
        )
        graph = csr_matrix(
            ([1.0] * len(arcs), ([a for a, _ in arcs], [b for _, b in arcs])), shape=(n, n)
        )
        _, labels = connected_components(graph, directed=True, connection="strong")
        cyclic = len(set(labels.tolist())) < n
        index = level.index
        assert (index.topo is None) == cyclic
        if index.topo is not None:
            assert sorted(index.topo) == list(range(n))
            position = {v: i for i, v in enumerate(index.topo)}
            for t, h in zip(index.tails, index.heads):
                assert position[t] < position[h]
        found = {
            v.path
            for v in validate_hierarchy(NetworkHierarchy([level], [1.0]))
            if v.code == "NoPathForOD"
        }
        expected = {
            f"levels[0].od_pairs[{j}]"
            for j, (o, d) in enumerate(ods)
            if d not in breadth_first_order(graph, o, directed=True, return_predecessors=False)
        }
        assert found == expected

    def test_compiled_once_per_level(self, two_level_net):
        level = two_level_net.levels[0]
        assert level.index is level.index
        # the portal binding is compiled into the network's layout, not the index
        assert _layout(two_level_net).portals[0] == [2]
        assert [i for k, i in two_level_net.plain_edge_order() if k == 0] == [0, 1, 3]

    def test_invalid_endpoints_are_not_compiled(self):
        # The graph checks skip a level whose edges name unknown nodes.
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("e", "o", "x", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        assert codes(NetworkHierarchy([level], [1.0])) == ["UnknownEndpoint"]
        assert "index" not in vars(level)

    def test_unknown_node_raises_value_error(self):
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("e1", "o", "x", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        with pytest.raises(ValueError, match="edge 'e1' names node 'x', which the level lacks"):
            level.index
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("e1", "o", "d", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("o", "d", 1.0), ODPair("o", "y", 1.0)),
        )
        with pytest.raises(ValueError, match="OD pair 1 names node 'y'"):
            level.index
        # Every tail is looked up before any head, and edges before OD pairs.
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("e1", "o", "x", cost=AffineCost(1.0, 1.0)),
                   Edge("e2", "z", "d", cost=AffineCost(1.0, 1.0))),
            od_pairs=(ODPair("w", "d", 1.0),),
        )
        with pytest.raises(ValueError, match="^edge 'e2' names node 'z', which the level lacks$"):
            level.index

    def test_destination_slots(self):
        # distinct destinations in order of first appearance, one slot per OD
        level = LevelGraph(
            nodes=("a", "b", "c", "d", "e"),
            edges=(
                Edge("ad", "a", "d", cost=AffineCost(1.0, 1.0)),
                Edge("be", "b", "e", cost=AffineCost(1.0, 1.0)),
                Edge("cd", "c", "d", cost=AffineCost(1.0, 1.0)),
            ),
            od_pairs=(
                ODPair("a", "d", 1.0),
                ODPair("b", "e", 1.0),
                ODPair("c", "d", 1.0),
                ODPair("a", "d", 2.0),
            ),
        )
        assert level.index.dests == [3, 4]
        assert level.index.dest_slot == [0, 1, 0, 0]
