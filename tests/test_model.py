"""Hierarchy validation, the compiled level index, and route-length bounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from sueflow import (
    AffineCost,
    Edge,
    LevelGraph,
    NetworkHierarchy,
    ODPair,
    ODRef,
    longest_path_bound,
    validate_hierarchy,
)
from sueflow.model import longest_path_bounds
from sueflow.oracle import expand_paths

from conftest import chain3_net, diamond_net, parallel_net, random_hierarchy, two_edge_net


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
        found = codes(NetworkHierarchy([level], [1.0], walk_cap=5))
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
        assert "CyclicLevelWithoutCap" in codes(NetworkHierarchy([level], [1.0]))
        assert "CyclicLevelWithoutCap" not in codes(
            NetworkHierarchy([level], [1.0], walk_cap=64)
        )

    def test_gamma_checks(self):
        net = two_edge_net()
        assert "GammaCountMismatch" in codes(
            NetworkHierarchy(net.levels, [1.0, 1.0])
        )
        assert "NonpositiveGamma" in codes(NetworkHierarchy(net.levels, [0.0]))

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
            for v in validate_hierarchy(NetworkHierarchy([level], [1.0], walk_cap=1))
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
        assert level.index.portal_for_od == {0: 2}
        assert level.index.plain_positions == [0, 1, 3]

    def test_invalid_endpoints_are_not_compiled(self):
        # The graph checks skip a level whose edges name unknown nodes.
        level = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("e", "o", "x", cost=AffineCost(1.0, 1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        assert codes(NetworkHierarchy([level], [1.0])) == ["UnknownEndpoint"]
        assert "index" not in vars(level)


class TestLongestPathBound:
    def test_parallel(self):
        # routes of 1 edge each
        assert longest_path_bound(two_edge_net(), 0) == 1

    def test_diamond(self):
        assert longest_path_bound(diamond_net(), 0) == 2

    def test_chain_of_levels(self):
        # one plain edge at each of three levels
        assert longest_path_bound(chain3_net(), 0) == 3

    def test_two_level_fixture_vs_expansion(self, two_level_net):
        expanded = expand_paths(two_level_net, ODRef(0, 0))
        brute = max(p.total_plain_edges for p in expanded)
        assert longest_path_bound(two_level_net, 0) == brute == 3
        self.assert_every_od_matches_expansion(two_level_net)

    @pytest.mark.parametrize("seed", [100, 101, 102, 103])
    def test_every_od_vs_expansion_random(self, seed):
        net, _ = random_hierarchy(seed)
        self.assert_every_od_matches_expansion(net)

    @staticmethod
    def assert_every_od_matches_expansion(net):
        bounds = longest_path_bounds(net)
        for k, level in enumerate(net.levels):
            for j in range(len(level.od_pairs)):
                brute = max(p.total_plain_edges for p in expand_paths(net, ODRef(k, j)))
                assert bounds[k][j] == brute
                if k == 0:
                    assert longest_path_bound(net, j) == brute

    def test_monotone_under_edge_addition(self):
        base = diamond_net()
        level = base.levels[0]
        more = LevelGraph(
            nodes=level.nodes,
            edges=level.edges + (Edge("ab", "a", "b", cost=AffineCost(0.1, 0.1)),),
            od_pairs=level.od_pairs,
        )
        bigger = NetworkHierarchy([more], base.gammas)
        assert longest_path_bound(bigger, 0) >= longest_path_bound(base, 0)
        assert longest_path_bound(bigger, 0) == 3

    def test_bad_index(self):
        with pytest.raises(ValueError):
            longest_path_bound(two_edge_net(), 5)
