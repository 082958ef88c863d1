"""Soft-min potentials, hierarchical weights, loading, and the objectives."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sueflow import (
    AffineCost,
    ConstantCost,
    Edge,
    LevelGraph,
    LoadingError,
    MassLeakError,
    NetworkHierarchy,
    NoPathError,
    ODPair,
    ODRef,
    dual_objective,
    dual_smooth_value,
    hierarchical_weights,
    network_loading,
    softmin_potentials,
    validate_hierarchy,
)
from sueflow import loading
from sueflow.loading import entropy_term, surrogate_primal, verify_conservation
from sueflow.model import LevelIndex
from sueflow import oracle

from conftest import (
    any_dag_hierarchy,
    chain3_net,
    diamond_net,
    grid3_level,
    parallel_net,
    random_hierarchy,
    three_level_net,
    two_edge_net,
)


def level_of(net, k=0):
    return net.levels[k]


def cyclic_level(demand=1.0):
    """a <-> b, each with an exit edge to d."""
    return LevelGraph(
        nodes=("a", "b", "d"),
        edges=(
            Edge("ab", "a", "b", cost=ConstantCost(1.0)),
            Edge("ba", "b", "a", cost=ConstantCost(1.2)),
            Edge("ad", "a", "d", cost=ConstantCost(2.0)),
            Edge("bd", "b", "d", cost=ConstantCost(1.5)),
        ),
        od_pairs=(ODPair("a", "d", demand),),
    )


class TestSoftminPotentials:
    def test_single_edge(self):
        net = parallel_net([ConstantCost(5.0)])
        rho = softmin_potentials(level_of(net), {"e1": 5.0}, 1.0, "d")
        assert rho["o"] == pytest.approx(5.0, abs=1e-14)
        assert rho["d"] == 0.0

    def test_two_parallel_unit(self):
        net = parallel_net([ConstantCost(1.0), ConstantCost(1.0)])
        rho = softmin_potentials(level_of(net), {"e1": 1.0, "e2": 1.0}, 1.0, "d")
        assert rho["o"] == pytest.approx(1.0 - math.log(2.0), abs=1e-14)

    def test_two_parallel_gamma_two(self):
        net = parallel_net([ConstantCost(1.0), ConstantCost(1.0)])
        rho = softmin_potentials(level_of(net), {"e1": 1.0, "e2": 1.0}, 2.0, "d")
        assert rho["o"] == pytest.approx(1.0 - 2.0 * math.log(2.0), abs=1e-14)

    def test_unreachable_is_inf(self):
        level = LevelGraph(
            nodes=("o", "d", "x"),
            edges=(Edge("e", "o", "d", cost=ConstantCost(1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        rho = softmin_potentials(level, {"e": 1.0}, 1.0, "d")
        assert math.isinf(rho["x"])

    def test_gamma_must_be_positive(self):
        net = parallel_net([ConstantCost(1.0)])
        with pytest.raises(ValueError):
            softmin_potentials(level_of(net), {"e1": 1.0}, 0.0, "d")

    def test_small_gamma_approaches_min(self):
        net = diamond_net()
        weights = {"oa": 1.0, "ad": 1.0, "ob": 1.2, "bd": 0.9}
        rho = softmin_potentials(level_of(net), weights, 1e-3, "d")
        assert rho["o"] == pytest.approx(2.0, abs=1e-2)

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_missing_weight_names_the_edge(self, cyclic):
        if cyclic:
            level, weights, missing = cyclic_level(), {"ab": 1.0, "ba": 1.2, "ad": 2.0}, "bd"
        else:
            level, weights, missing = level_of(two_edge_net()), {"e1": 1.0}, "e2"
        with pytest.raises(ValueError, match=f"no weight for edge '{missing}' of the level"):
            softmin_potentials(level, weights, 1.0, "d")

    def test_cyclic_walk_sum(self):
        # a <-> b with exit edges; closed-form geometric walk sums
        w = {"ab": 1.0, "ba": 1.2, "ad": 2.0, "bd": 1.5}
        gamma = 0.9
        e = {k: math.exp(-v / gamma) for k, v in w.items()}
        # q_a = e_ad + e_ab*q_b ; q_b = e_bd + e_ba*q_a
        q_a = (e["ad"] + e["ab"] * e["bd"]) / (1.0 - e["ab"] * e["ba"])
        q_b = e["bd"] + e["ba"] * q_a
        rho = softmin_potentials(cyclic_level(), w, gamma, "d")
        assert rho["a"] == pytest.approx(-gamma * math.log(q_a), abs=1e-10)
        assert rho["b"] == pytest.approx(-gamma * math.log(q_b), abs=1e-10)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e4])
    def test_cyclic_walk_sum_scales_with_units(self, c):
        w = {"ab": 1.0, "ba": 1.2, "ad": 2.0, "bd": 1.5}
        base = softmin_potentials(cyclic_level(), w, 0.9, "d")
        scaled = softmin_potentials(
            cyclic_level(), {k: c * v for k, v in w.items()}, c * 0.9, "d"
        )
        for v in ("a", "b"):
            assert scaled[v] == pytest.approx(c * base[v], rel=1e-12)

    def test_cyclic_divergent_raises(self):
        # two parallel edges each way between a and b: spectral radius 2*exp(-0.1)
        level = LevelGraph(
            nodes=("a", "b", "d"),
            edges=(
                Edge("ab1", "a", "b", cost=ConstantCost(1.0)),
                Edge("ab2", "a", "b", cost=ConstantCost(1.0)),
                Edge("ba1", "b", "a", cost=ConstantCost(1.0)),
                Edge("ba2", "b", "a", cost=ConstantCost(1.0)),
                Edge("bd", "b", "d", cost=ConstantCost(1.0)),
            ),
            od_pairs=(ODPair("a", "d", 1.0),),
        )
        w = {"ab1": 0.1, "ab2": 0.1, "ba1": 0.1, "ba2": 0.1, "bd": 1.0}
        with pytest.raises(LoadingError, match="destination 'd' diverges"):
            softmin_potentials(level, w, 1.0, "d")
        net = NetworkHierarchy([level], [1.0], walk_cap=1)
        with pytest.raises(LoadingError, match="'d' diverges at level 1"):
            network_loading(net, [w[e.id] for e in level.edges])


class TestHierarchicalWeights:
    def test_single_level_passthrough(self):
        net = two_edge_net()
        maps = hierarchical_weights(net, [1.3, 2.4])
        assert maps == [{"e1": 1.3, "e2": 2.4}]

    def test_portal_gets_soft_trip_cost(self):
        level1 = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("g", "o", "d", target_od=ODRef(1, 0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        level2 = LevelGraph(
            nodes=("u", "w"),
            edges=(
                Edge("q1", "u", "w", cost=ConstantCost(1.0)),
                Edge("q2", "u", "w", cost=ConstantCost(1.0)),
            ),
            od_pairs=(ODPair("u", "w"),),
        )
        net = NetworkHierarchy([level1, level2], [1.0, 1.0])
        maps = hierarchical_weights(net, [1.0, 1.0])
        assert maps[0]["g"] == pytest.approx(1.0 - math.log(2.0), abs=1e-14)

    def test_three_level_chain_aggregates_upward(self):
        net = chain3_net()
        maps = hierarchical_weights(net, [2.0, 3.0, 4.0])
        assert maps[1]["g2"] == pytest.approx(4.0, abs=1e-14)
        assert maps[0]["g1"] == pytest.approx(7.0, abs=1e-14)
        # full route weight at level 1
        assert maps[0]["c1"] + maps[0]["g1"] == pytest.approx(9.0, abs=1e-14)

    def test_portal_weight_tends_to_shortest_path(self):
        # small temperatures turn the smoothed trip cost into a min
        net = three_level_net()
        shrunk = NetworkHierarchy(net.levels, [1.0, 1e-3, 1e-3])
        t = [1.0, 2.2, 0.4, 1.1, 0.3, 0.6]
        maps = hierarchical_weights(shrunk, t)
        # level-3 shortest: min(0.3, 0.6); level-2 shortest: min(0.4+0.3, 1.1)
        assert maps[1]["g2"] == pytest.approx(0.3, abs=2e-2)
        assert maps[0]["g1"] == pytest.approx(0.7, abs=2e-2)

    def test_matches_enumeration_recursion(self, two_level_net):
        t = [1.1, 1.05, 2.6, 0.55, 0.4, 0.35]
        maps = hierarchical_weights(two_level_net, t)
        ref = oracle.trip_soft_cost(two_level_net, t, ODRef(1, 0))
        assert maps[0]["gate"] == pytest.approx(ref, abs=1e-12)


class TestDualSmoothValue:
    def test_single_route(self):
        net = parallel_net([ConstantCost(5.0)])
        assert dual_smooth_value(net, [5.0]) == pytest.approx(-5.0, abs=1e-14)

    def test_two_parallel_with_demand(self):
        net = parallel_net([ConstantCost(1.0), ConstantCost(1.0)], demand=2.0)
        expected = 2.0 * (math.log(2.0) - 1.0)
        assert dual_smooth_value(net, [1.0, 1.0]) == pytest.approx(expected, abs=1e-14)

    def test_additive_over_separate_ods(self):
        level = LevelGraph(
            nodes=("o1", "d1", "o2", "d2"),
            edges=(
                Edge("e1", "o1", "d1", cost=ConstantCost(1.0)),
                Edge("e2", "o2", "d2", cost=ConstantCost(2.0)),
            ),
            od_pairs=(ODPair("o1", "d1", 1.0), ODPair("o2", "d2", 3.0)),
        )
        net = NetworkHierarchy([level], [1.0])
        a = dual_smooth_value(net, [1.5, 2.5])
        assert a == pytest.approx(-1.5 - 3.0 * 2.5, abs=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_convex_along_segments(self, seed):
        import numpy as np

        net, t1 = random_hierarchy(seed)
        rng = np.random.default_rng(seed + 77)
        t2 = [v + float(rng.uniform(0.0, 0.4)) for v in t1]
        lam = float(rng.uniform(0.1, 0.9))
        mid = [lam * a + (1 - lam) * b for a, b in zip(t1, t2)]
        lhs = dual_smooth_value(net, mid)
        rhs = lam * dual_smooth_value(net, t1) + (1 - lam) * dual_smooth_value(net, t2)
        assert lhs <= rhs + 1e-12


class TestNetworkLoading:
    def test_symmetric_split(self):
        net = parallel_net([AffineCost(1.0, 1.0), AffineCost(1.0, 1.0)], demand=4.0)
        res = network_loading(net, [5.0, 5.0])
        assert res.flows[0][0] == res.flows[0][1]
        assert res.flows[0][0] == pytest.approx(2.0, abs=1e-12)

    def test_logit_shares(self):
        net = parallel_net([ConstantCost(1.0), ConstantCost(1.0)])
        res = network_loading(net, [0.0, math.log(2.0)])
        assert res.flows[0][0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.flows[0][1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_loading_accepts_any_finite_times(self):
        net = two_edge_net()
        res = network_loading(net, [0.2, -1.0])  # below free flow on purpose
        assert sum(res.flows[0]) == pytest.approx(1.0)

    def test_two_level_matches_enumeration(self, two_level_net):
        t = [1.1, 1.05, 2.6, 0.55, 0.4, 0.35]
        res = network_loading(two_level_net, t)
        ref_flows, _ = oracle.loading_by_enumeration(two_level_net, t)
        for k, level in enumerate(two_level_net.levels):
            for pos, edge in enumerate(level.edges):
                got = res.flows[k][pos]
                want = ref_flows[k][edge.id]
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_portal_flow_equals_induced_demand(self, two_level_net):
        res = network_loading(two_level_net, two_level_net.free_flow_times())
        gate_pos = [e.id for e in two_level_net.levels[0].edges].index("gate")
        assert res.flows[0][gate_pos] == pytest.approx(res.induced_demands[1][0])

    @pytest.mark.parametrize("seed", range(8))
    def test_conservation_random(self, seed):
        net, t = random_hierarchy(seed)
        res = network_loading(net, t)
        verify_conservation(net, res)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_identity_random(self, seed):
        net, t = random_hierarchy(seed)
        res = network_loading(net, t)
        flows = res.plain_flows(net)
        h = 1e-5
        for pos in range(net.num_plain_edges()):
            tp, tm = list(t), list(t)
            tp[pos] += h
            tm[pos] -= h
            fd = (dual_smooth_value(net, tp) - dual_smooth_value(net, tm)) / (2 * h)
            assert abs(fd + flows[pos]) <= 1e-6 * max(abs(flows[pos]), 1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_equivalence_random(self, seed):
        net, t = random_hierarchy(seed)
        res = network_loading(net, t)
        ref_flows, _ = oracle.loading_by_enumeration(net, t)
        for k, level in enumerate(net.levels):
            for pos, edge in enumerate(level.edges):
                want = ref_flows[k][edge.id]
                assert abs(res.flows[k][pos] - want) <= 1e-10 * (1.0 + abs(want))

    @pytest.mark.parametrize("seed", range(4))
    def test_value_flow_entropy_identity(self, seed):
        # smooth value equals gamma-weighted entropies minus <flows, times>
        net, t = random_hierarchy(seed)
        res = network_loading(net, t)
        rhs = sum(g * e for g, e in zip(net.gammas, res.entropies))
        rhs -= sum(f * v for f, v in zip(res.plain_flows(net), t))
        assert res.smooth_value == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))

    def test_no_path_raises(self):
        level = LevelGraph(
            nodes=("o", "d", "x"),
            edges=(Edge("e", "o", "x", cost=ConstantCost(1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        net = NetworkHierarchy([level], [1.0])
        with pytest.raises(NoPathError, match="no path 'o' -> 'd' at level 1"):
            network_loading(net, [1.0])

    def test_overflowing_trip_cost_is_not_a_missing_path(self):
        # Each time is finite, but the route o -> m -> d costs 2e308.
        level = LevelGraph(
            nodes=("o", "m", "d"),
            edges=(
                Edge("om", "o", "m", cost=ConstantCost(1.0)),
                Edge("md", "m", "d", cost=ConstantCost(1.0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        net = NetworkHierarchy([level], [1.0])
        with pytest.raises(LoadingError) as caught:
            network_loading(net, [1e308, 1e308])
        assert not isinstance(caught.value, NoPathError)
        assert str(caught.value) == "the trip cost 'o' -> 'd' at level 1 overflows to inf"

    def test_cyclic_loading_conserves(self):
        net = NetworkHierarchy([cyclic_level(demand=2.0)], [0.9], walk_cap=1)
        res = network_loading(net, [1.0, 1.2, 2.0, 1.5])
        verify_conservation(net, res, tol=1e-9)
        # gradient identity also holds for the walk-measure loading
        flows = res.plain_flows(net)
        h = 1e-6
        for pos in range(4):
            tp, tm = net.free_flow_times(), net.free_flow_times()
            tp[pos] += h
            tm[pos] -= h
            fd = (dual_smooth_value(net, tp) - dual_smooth_value(net, tm)) / (2 * h)
            assert abs(fd + flows[pos]) <= 1e-5 * max(abs(flows[pos]), 1e-9)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cyclic_loading_random_levels(self, data):
        n, arcs, t, gamma = draw_ring(data)
        demand = data.draw(st.floats(0.5, 3.0), label="demand")
        level = ring_level(n, arcs, [ODPair("v0", f"v{n - 1}", demand)])
        net = NetworkHierarchy([level], [gamma], walk_cap=1)
        res = network_loading(net, t)
        verify_conservation(net, res)
        assert_flows_are_minus_gradient(net, t, res, 1e-6 * demand)


def draw_ring(data):
    """A bidirectional ring plus random chords, each direction weighted on
    its own: the node count, the arcs, their weights and a gamma.

    With every weight at least w_min and at most `degree` out edges per
    node, gamma < w_min / log(degree) keeps each row of the walk matrix
    summing below 1, so the walk sum converges.
    """
    n = data.draw(st.integers(3, 6), label="nodes")
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    for i in range(n):
        for j in range(i + 2, n):
            if data.draw(st.booleans(), label=f"chord {i}-{j}"):
                pairs.add((i, j))
    arcs = sorted(pairs) + sorted((j, i) for i, j in pairs)
    weight = st.floats(0.5, 2.0)
    t = [data.draw(weight, label=f"w{i}-{j}") for i, j in arcs]
    degree = max(sum(1 for a, _ in arcs if a == v) for v in range(n))
    gamma = data.draw(st.floats(0.1, 0.9), label="gamma factor") * min(t) / math.log(degree)
    return n, arcs, t, gamma


def ring_level(n, arcs, od_pairs):
    return LevelGraph(
        nodes=tuple(f"v{i}" for i in range(n)),
        edges=tuple(
            Edge(f"e{i}-{j}", f"v{i}", f"v{j}", cost=ConstantCost(1.0)) for i, j in arcs
        ),
        od_pairs=tuple(od_pairs),
    )


def assert_flows_are_minus_gradient(net, t, res, tol, h=1e-5):
    """Central differences of the smooth dual term match minus the flows."""
    flows = res.plain_flows(net)
    for pos in range(len(t)):
        tp, tm = list(t), list(t)
        tp[pos] += h
        tm[pos] -= h
        fd = (dual_smooth_value(net, tp) - dual_smooth_value(net, tm)) / (2 * h)
        assert abs(fd + flows[pos]) <= tol


class TestUnknownNode:
    # an edge naming a node its level lacks; validate_hierarchy reports it,
    # and the library entry points that skip validation name it too
    @staticmethod
    def bad_level(od_demand=1.0):
        return LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("e1", "o", "x", cost=ConstantCost(1.0)),),
            od_pairs=(ODPair("o", "d", od_demand),),
        )

    def test_softmin_potentials(self):
        with pytest.raises(ValueError, match="edge 'e1' names node 'x'"):
            softmin_potentials(self.bad_level(), {"e1": 1.0}, 1.0, "d")

    def test_network_loading_names_the_level(self):
        level1 = LevelGraph(
            nodes=("o", "d"),
            edges=(Edge("g", "o", "d", target_od=ODRef(1, 0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        net = NetworkHierarchy([level1, self.bad_level(None)], [1.0, 1.0])
        with pytest.raises(ValueError, match="edge 'e1' names node 'x', .* at level 2"):
            network_loading(net, [1.0])
        with pytest.raises(ValueError, match="node 'x', .* at level 1"):
            network_loading(NetworkHierarchy([self.bad_level()], [1.0]), [1.0])


def shared_destination_grid():
    """Two levels of right/down grids, their OD pairs bound for few corners.

    Level 1 (4x4) has twelve OD pairs over three destinations, one of them
    with no demand, and two portals; level 2 (3x3) has the two portal trips,
    which share a destination.
    """
    def grid(size, k, portals):
        nodes = tuple(f"r{i}c{j}" for i in range(size) for j in range(size))
        edges = []
        for i in range(size):
            for j in range(size):
                for ni, nj in ((i, j + 1), (i + 1, j)):
                    if ni < size and nj < size:
                        edges.append(Edge(
                            f"L{k}e{len(edges)}", f"r{i}c{j}", f"r{ni}c{nj}",
                            cost=AffineCost(1.0 + 0.05 * ((3 * i + 5 * j) % 4), 0.1),
                        ))
        for od, (tail, head) in enumerate(portals):
            edges.append(Edge(f"L{k}g{od}", tail, head, target_od=ODRef(k + 1, od)))
        return nodes, tuple(edges)

    origins = ("r0c0", "r0c1", "r1c0", "r0c2", "r1c1", "r2c0")
    nodes, edges = grid(4, 0, [("r0c0", "r1c1"), ("r1c1", "r2c2")])
    ods = [ODPair(o, d, 0.5 + 0.1 * j) for j, o in enumerate(origins) for d in ("r3c3", "r3c2")]
    ods.append(ODPair("r0c0", "r2c2", 0.0))
    level1 = LevelGraph(nodes, edges, tuple(ods))
    nodes, edges = grid(3, 1, [])
    level2 = LevelGraph(nodes, edges, (ODPair("r0c0", "r2c2"), ODPair("r0c1", "r2c2")))
    return NetworkHierarchy([level1, level2], [0.8, 0.5])


class TestOncePerDestination:
    def test_one_field_and_one_forward_pass_per_destination(self, monkeypatch):
        net = shared_destination_grid()
        softmin_calls, forward_calls = [], []
        softmin, forward = loading._softmin, loading._forward_dag

        def counted_softmin(index, weights, gamma, dst, graph):
            softmin_calls.append((id(index), dst))
            return softmin(index, weights, gamma, dst, graph)

        def counted_forward(index, weights, rho, gamma, slot, supply, flows, k):
            forward_calls.append((k, index.dests[slot]))
            return forward(index, weights, rho, gamma, slot, supply, flows, k)

        monkeypatch.setattr(loading, "_softmin", counted_softmin)
        monkeypatch.setattr(loading, "_forward_dag", counted_forward)
        res = network_loading(net, [c.free_flow_time for c in net.plain_costs()])
        verify_conservation(net, res)

        level1, level2 = (level.index for level in net.levels)
        by_name = level1.node_index
        assert sorted(softmin_calls) == sorted(
            [(id(level1), by_name[v]) for v in ("r3c3", "r3c2", "r2c2")]
            + [(id(level2), level2.node_index["r2c2"])]
        )
        # r2c2 at level 1 carries no demand, so it gets no forward pass
        assert sorted(forward_calls) == sorted(
            [(0, by_name["r3c3"]), (0, by_name["r3c2"]), (1, level2.node_index["r2c2"])]
        )


def two_way_cycle_level(cycle, od_pairs):
    """a <-> b by two parallel edges each way, both exits from b.

    At gamma 1 the walk matrix on {a, b} has spectral radius
    2 * exp(-cycle): the walk sum to d or e diverges for any cycle weight
    below log 2, by Bellman-Ford's round count when the weight is negative
    and by the solve otherwise. Walks to a end on reaching it, which cuts
    the cycle.
    """
    arcs = ["ab1", "ab2", "ba1", "ba2", "bd", "be"]
    edges = tuple(Edge(e, e[0], e[1], cost=ConstantCost(1.0)) for e in arcs)
    level = LevelGraph(("a", "b", "d", "e"), edges, tuple(od_pairs))
    return NetworkHierarchy([level], [1.0], walk_cap=1), [cycle] * 4 + [1.0, 1.0]


class TestBatchedCyclicPasses:
    # A cyclic level's backward and forward passes run over all its
    # destinations at once; each destination's row sees the float
    # operations, in the same order, of a pass of its own.
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_one_destination_at_a_time(self, data):
        n, arcs, t, gamma = draw_ring(data)
        node = st.integers(0, n - 1)
        first = data.draw(node, label="first destination")
        second = data.draw(node.filter(lambda v: v != first), label="second destination")
        demand = st.floats(0.5, 3.0)
        stay = data.draw(node, label="origin = destination")
        ods = [
            (data.draw(node, label="origin 1"), first, data.draw(demand, label="demand 1")),
            (data.draw(node, label="origin 2"), first, data.draw(demand, label="demand 2")),
            (data.draw(node, label="origin 3"), second, data.draw(demand, label="demand 3")),
            (data.draw(node, label="origin 4"), second, 0.0),
            (stay, stay, data.draw(demand, label="demand 5")),
        ]
        pairs = [ODPair(f"v{o}", f"v{d}", x) for o, d, x in ods]
        level = ring_level(n, arcs, pairs)
        net = NetworkHierarchy([level], [gamma], walk_cap=1)

        weights, rho_fields = loading._sweep_weights(net, t)
        by_id = {e.id: w for e, w in zip(level.edges, weights[0])}
        for slot, dst in enumerate(level.index.dests):
            alone = softmin_potentials(level, by_id, gamma, level.nodes[dst])
            assert rho_fields[0][slot] == [alone[v] for v in level.nodes]

        res = network_loading(net, t)
        verify_conservation(net, res)
        summed = [0.0] * len(arcs)
        for od in pairs:
            one = network_loading(NetworkHierarchy([ring_level(n, arcs, [od])], [gamma]), t)
            summed = [a + b for a, b in zip(summed, one.flows[0])]
        assert res.flows[0] == pytest.approx(summed, rel=1e-12, abs=1e-12)
        assert_flows_are_minus_gradient(net, t, res, 1e-6 * sum(x for *_, x in ods))

    @pytest.mark.parametrize("per_group", [1, 2])
    def test_groups_change_no_bit(self, monkeypatch, per_group):
        ods = [("r0c0", "r2c2"), ("r2c0", "r0c2"), ("r1c1", "r2c2"), ("r0c2", "r1c0"),
               ("r2c2", "r0c0")]
        level = grid3_level([ODPair(o, d, 0.5 + 0.2 * j) for j, (o, d) in enumerate(ods)])
        net = NetworkHierarchy([level], [0.3], walk_cap=1)
        t = [1.1 * c.free_flow_time for c in net.plain_costs()]
        one_group = network_loading(net, t), dual_smooth_value(net, t)
        n = level.index.n_nodes
        monkeypatch.setattr(loading, "_STACK_FLOATS", per_group * n * n)
        assert [len(g) for g in loading._groups(n, level.index.dests)] == (
            [1, 1, 1, 1] if per_group == 1 else [2, 2]
        )
        assert (network_loading(net, t), dual_smooth_value(net, t)) == one_group

    @pytest.mark.parametrize("n", [1, 2, 16, 255, 256, 500])
    def test_stacks_stay_within_the_budget(self, n):
        groups = loading._groups(n, list(range(300)))
        assert [x for g in groups for x in g] == list(range(300))
        assert max(len(g) for g in groups) * n * n <= max(n * n, 2**16)

    @pytest.mark.parametrize("cycle", [0.1, -0.5])
    @pytest.mark.parametrize("per_group", [None, 1])
    def test_divergence_names_the_first_divergent_destination(
        self, monkeypatch, cycle, per_group
    ):
        if per_group is not None:
            monkeypatch.setattr(loading, "_STACK_FLOATS", per_group * 4 * 4)
        # the walk sum to a converges; the one to d does not
        net, t = two_way_cycle_level(cycle, [ODPair("b", "a", 1.0), ODPair("a", "d", 1.0)])
        message = "^the walk sum to destination 'd' diverges at level 1$"
        with pytest.raises(LoadingError, match=message):
            network_loading(net, t)
        with pytest.raises(LoadingError, match="'d' diverges at level 1$"):
            dual_smooth_value(net, t)
        for first, second in (("d", "e"), ("e", "d")):
            net, t = two_way_cycle_level(
                cycle, [ODPair("b", "a", 1.0), ODPair("a", first, 1.0), ODPair("a", second, 1.0)]
            )
            with pytest.raises(LoadingError, match=f"destination '{first}' diverges"):
                network_loading(net, t)
        weights = {e.id: w for e, w in zip(net.levels[0].edges, t)}
        assert softmin_potentials(net.levels[0], weights, 1.0, "a")["b"] < math.inf
        with pytest.raises(LoadingError, match="^the walk sum to destination 'e' diverges$"):
            softmin_potentials(net.levels[0], weights, 1.0, "e")

    def test_singular_walk_matrix_names_its_destination(self):
        # a <-> b at weight 0 and gamma 1: the walk matrix toward d has
        # spectral radius exactly 1, so the stacked solve finds a singular
        # system; walks toward a end there and converge.
        level = LevelGraph(
            nodes=("a", "b", "d"),
            edges=tuple(
                Edge(u + v, u, v, cost=ConstantCost(1.0)) for u, v in ("ab", "ba", "bd")
            ),
            od_pairs=(ODPair("b", "a", 1.0), ODPair("a", "d", 1.0)),
        )
        net = NetworkHierarchy([level], [1.0], walk_cap=1)
        message = "^the walk sum to destination 'd' diverges at level 1$"
        with pytest.raises(LoadingError, match=message):
            network_loading(net, [0.0, 0.0, 1.0])

    def test_cyclic_level_below_portals_matches_enumeration(self):
        # Simple paths stand in for walks: at gamma 0.02 any walk with a
        # cycle (at least 1.6 longer) carries under exp(-80) of a trip.
        level1 = LevelGraph(
            nodes=("o", "m", "d"),
            edges=(
                Edge("g0", "o", "m", target_od=ODRef(1, 0)),
                Edge("om", "o", "m", cost=AffineCost(4.2, 0.3)),
                Edge("g1", "m", "d", target_od=ODRef(1, 1)),
                Edge("md", "m", "d", cost=AffineCost(3.9, 0.2)),
            ),
            od_pairs=(ODPair("o", "d", 2.0),),
        )
        level2 = grid3_level([ODPair("r0c0", "r2c2"), ODPair("r0c2", "r2c0")])
        net = NetworkHierarchy([level1, level2], [1.0, 0.02], walk_cap=1)
        assert validate_hierarchy(net) == []
        t = [(1 + 0.05 * math.sin(i)) * c.free_flow_time for i, c in enumerate(net.plain_costs())]
        res = network_loading(net, t)
        verify_conservation(net, res)
        expected, _ = oracle.loading_by_enumeration(net, t)
        for k, level in enumerate(net.levels):
            for pos, edge in enumerate(level.edges):
                assert res.flows[k][pos] == pytest.approx(expected[k][edge.id], abs=1e-9)
        assert 0.1 < res.flows[0][0] < 1.9  # both levels carry real route choice


class TestDestinationSubgraphs:
    # Outside a destination's subgraph every soft-min term is +inf, whose
    # exp adds an exact 0.0, and every choice probability is 0.0: passes
    # over the subgraph and over the whole level agree to the last bit.
    @given(case=any_dag_hierarchy)
    @settings(max_examples=150, deadline=None)
    def test_restricted_loading_equals_whole_level(self, case):
        net, t = case
        restricted = network_loading(net, t), dual_smooth_value(net, t)
        whole_level = property(lambda index: [index.whole] * len(index.dests))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LevelIndex, "dest_subgraphs", whole_level)
            whole = network_loading(net, t), dual_smooth_value(net, t)
        assert restricted == whole

    @given(case=any_dag_hierarchy)
    @settings(max_examples=150, deadline=None)
    def test_trip_costs_are_whole_level_potentials(self, case):
        net, t = case
        weights = hierarchical_weights(net, t)
        _, rho_fields = loading._sweep_weights(net, t)
        for k, level in enumerate(net.levels):
            index = level.index
            for j, od in enumerate(level.od_pairs):
                rho = softmin_potentials(level, weights[k], net.gammas[k], od.destination)
                src = index.node_index[od.origin]
                assert rho_fields[k][index.dest_slot[j]][src] == rho[od.origin]
                if k > 0:
                    portal = net.levels[k - 1].edges[net.levels[k - 1].index.portal_for_od[j]]
                    assert weights[k - 1][portal.id] == rho[od.origin]


def jittered_chain(stages, time, gamma, seed):
    """Stages of two parallel links, each time within 1 % of ``time``."""
    rng = random.Random(seed)
    nodes = tuple(f"s{i}" for i in range(stages + 1))
    edges, t = [], []
    for i in range(stages):
        for side in "ab":
            edges.append(Edge(f"{side}{i}", nodes[i], nodes[i + 1], cost=ConstantCost(time)))
            t.append(time * (1.0 + rng.uniform(-0.01, 0.01)))
    level = LevelGraph(nodes, tuple(edges), (ODPair(nodes[0], nodes[-1], 1.0),))
    return NetworkHierarchy([level], [gamma]), t


class TestMassLeak:
    # Potentials near stages * time carry rounding of about eps * rho / gamma
    # into each exponent, which moved the raw probability sums of these
    # chains 3e-9 and 1e-9 away from 1 with no mass lost.
    @pytest.mark.parametrize("stages, time, gamma", [(500, 100.0, 1e-3), (2000, 600.0, 0.1)])
    def test_long_chain_at_large_cost_over_gamma(self, stages, time, gamma):
        for seed in range(5):
            net, t = jittered_chain(stages, time, gamma, seed)
            res = network_loading(net, t)
            verify_conservation(net, res)
            assert sum(res.flows[0][:2]) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_potential_raises(self):
        net, t = jittered_chain(10, 1.0, 0.5, seed=0)
        weights, rho_fields = loading._sweep_weights(net, t)
        rho = list(rho_fields[0][0])
        rho[5] += 0.01 * net.gammas[0]
        index = net.levels[0].index
        src, _ = index.od_nodes[0]
        supply = [0.0] * index.n_nodes
        supply[src] = 1.0
        with pytest.raises(MassLeakError) as caught:
            loading._forward_dag(
                index, weights[0], rho, net.gammas[0], index.dest_slot[0], supply,
                [0.0] * len(t), 0,
            )
        # the shift at s5 upsets the choice at s4, whose successor it is
        assert "node 's4' toward 's10'" in str(caught.value)
        assert "at level 1" in str(caught.value)


class TestPrimalObjective:
    def test_degenerate_single_route(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 1.0}}
        flows = [[1.0, 0.0]]
        expected = AffineCost(1.0, 1.0).integral(1.0)
        assert oracle.primal_objective(net, paths, flows) == pytest.approx(expected, abs=1e-14)

    def test_uniform_split(self):
        net = parallel_net([AffineCost(1.0, 1.0), AffineCost(1.0, 1.0)])
        paths = {(0, 0): {("e1",): 0.5, ("e2",): 0.5}}
        flows = [[0.5, 0.5]]
        expected = 2 * 0.625 - math.log(2.0)
        assert oracle.primal_objective(net, paths, flows) == pytest.approx(expected, abs=1e-14)

    def test_inconsistent_flows_rejected(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 1.0}}
        with pytest.raises(ValueError, match="path flows"):
            oracle.primal_objective(net, paths, [[0.5, 0.5]])

    def test_negative_path_flow_rejected(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 1.5, ("e2",): -0.5}}
        with pytest.raises(ValueError, match="negative"):
            oracle.primal_objective(net, paths, [[1.5, -0.5]])

    def test_demand_mismatch_rejected(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 0.4, ("e2",): 0.4}}
        with pytest.raises(ValueError, match="demand"):
            oracle.primal_objective(net, paths, [[0.4, 0.4]])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pathfree_surrogate_for_one_loading(self, seed):
        # the node-entropy chain decomposition equals the path-sum entropy
        net, t = random_hierarchy(seed)
        res = network_loading(net, t)
        ref_flows, tables = oracle.loading_by_enumeration(net, t)
        flows = [[ref_flows[k][e.id] for e in level.edges]
                 for k, level in enumerate(net.levels)]
        exact = oracle.primal_objective(net, tables, flows)
        pathfree = surrogate_primal(net, res.flows, entropy_term(net, res))
        assert exact == pytest.approx(pathfree, abs=1e-9 * (1 + abs(exact)))


class TestExpectationIdentity:
    def test_smoothed_trip_cost_is_expected_best_response(self, two_level_net):
        # the demand-free smoothed trip cost equals the mean of the best
        # noise-perturbed route utility, here for the level-2 OD pair
        t = [1.1, 1.05, 2.6, 0.55, 0.4, 0.35]
        od = ODRef(1, 0)
        gamma = two_level_net.gammas[od.level]
        routes = oracle.enumerate_paths(two_level_net, od)
        costs = [oracle.path_cost(two_level_net, t, r, od.level) for r in routes]
        smoothed = -oracle.trip_soft_cost(two_level_net, t, od)  # gamma*psi(t/gamma)
        mean, se = oracle.gumbel_max_mean(costs, gamma, 1_000_000, seed=17)
        assert abs(mean - smoothed) <= 4.0 * se


class TestDualObjective:
    def test_zero_composite_at_free_flow(self):
        net = two_edge_net()
        t = net.free_flow_times()
        assert dual_objective(net, t) == pytest.approx(dual_smooth_value(net, t), abs=1e-14)

    def test_two_edge_at_interior_point(self):
        net = two_edge_net()
        t = [2.0, 2.5]
        # independent scalar computation of both terms
        smooth = -(-math.log(math.exp(-2.0) + math.exp(-2.5)))
        composite = (2.0 - 1.0) ** 2 / 2.0 + (2.5 - 2.0) ** 2 / 2.0
        assert dual_objective(net, t) == pytest.approx(-(-smooth) + composite, abs=1e-13)

    def test_outside_domain_rejected(self):
        net = parallel_net([ConstantCost(1.0)])
        with pytest.raises(ValueError, match="conjugate domain"):
            dual_objective(net, [1.5])
