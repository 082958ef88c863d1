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
    primal_objective,
    softmin_potentials,
)
from sueflow import loading
from sueflow.loading import entropy_term, surrogate_primal, verify_conservation
from sueflow import oracle

from conftest import (
    chain3_net,
    diamond_net,
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
        with pytest.raises(NoPathError):
            network_loading(net, [1.0])

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
        # A bidirectional ring plus random chords, each direction weighted on
        # its own. With every weight at least w_min and at most `degree` out
        # edges per node, gamma < w_min / log(degree) keeps each row of the
        # walk matrix summing below 1, so the walk sum converges.
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
        demand = data.draw(st.floats(0.5, 3.0), label="demand")
        level = LevelGraph(
            nodes=tuple(f"v{i}" for i in range(n)),
            edges=tuple(
                Edge(f"e{i}-{j}", f"v{i}", f"v{j}", cost=ConstantCost(1.0)) for i, j in arcs
            ),
            od_pairs=(ODPair("v0", f"v{n - 1}", demand),),
        )
        net = NetworkHierarchy([level], [gamma], walk_cap=1)
        res = network_loading(net, t)
        verify_conservation(net, res)
        flows = res.plain_flows(net)
        h = 1e-5
        for pos in range(len(t)):
            tp, tm = list(t), list(t)
            tp[pos] += h
            tm[pos] -= h
            fd = (dual_smooth_value(net, tp) - dual_smooth_value(net, tm)) / (2 * h)
            assert abs(fd + flows[pos]) <= 1e-6 * demand


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
        src, dst = index.od_nodes[0]
        with pytest.raises(MassLeakError):
            loading._forward_dag(
                index, weights[0], rho, net.gammas[0], src, dst, 1.0, [0.0] * len(t)
            )


class TestPrimalObjective:
    def test_degenerate_single_route(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 1.0}}
        flows = [[1.0, 0.0]]
        expected = AffineCost(1.0, 1.0).integral(1.0)
        assert primal_objective(net, paths, flows) == pytest.approx(expected, abs=1e-14)

    def test_uniform_split(self):
        net = parallel_net([AffineCost(1.0, 1.0), AffineCost(1.0, 1.0)])
        paths = {(0, 0): {("e1",): 0.5, ("e2",): 0.5}}
        flows = [[0.5, 0.5]]
        expected = 2 * 0.625 - math.log(2.0)
        assert primal_objective(net, paths, flows) == pytest.approx(expected, abs=1e-14)

    def test_inconsistent_flows_rejected(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 1.0}}
        with pytest.raises(ValueError, match="path flows"):
            primal_objective(net, paths, [[0.5, 0.5]])

    def test_negative_path_flow_rejected(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 1.5, ("e2",): -0.5}}
        with pytest.raises(ValueError, match="negative"):
            primal_objective(net, paths, [[1.5, -0.5]])

    def test_demand_mismatch_rejected(self):
        net = two_edge_net()
        paths = {(0, 0): {("e1",): 0.4, ("e2",): 0.4}}
        with pytest.raises(ValueError, match="demand"):
            primal_objective(net, paths, [[0.4, 0.4]])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pathfree_surrogate_for_one_loading(self, seed):
        # the node-entropy chain decomposition equals the path-sum entropy
        net, t = random_hierarchy(seed)
        res = network_loading(net, t)
        ref_flows, tables = oracle.loading_by_enumeration(net, t)
        flows = [[ref_flows[k][e.id] for e in level.edges]
                 for k, level in enumerate(net.levels)]
        exact = primal_objective(net, tables, flows)
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
