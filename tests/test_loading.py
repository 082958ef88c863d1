"""Soft-min potentials, hierarchical weights, loading, the objectives, and
route-length bounds."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

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
    lipschitz_bound_diagnostic,
    network_loading,
    validate_hierarchy,
)
from sueflow import loading
from sueflow.loading import (
    _longest_routes,
    entropy_term,
    longest_path_bounds,
    surrogate_primal,
    verify_conservation,
)
from sueflow import oracle
from sueflow.oracle import expand_paths
from sueflow.cli import parse_network

from conftest import (
    FIXTURES,
    any_dag_hierarchy,
    chain3_net,
    cyclic_levels,
    dag_hierarchies,
    diamond_net,
    grid3_level,
    parallel_net,
    plain_flows,
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


def omd_level(*od_pairs):
    """o -> d, o <-> m and m -> d, each of constant cost 1: a cyclic level."""
    edges = tuple(Edge(t + h, t, h, cost=ConstantCost(1.0)) for t, h in ("od", "om", "mo", "md"))
    return LevelGraph(nodes=("o", "m", "d"), edges=edges, od_pairs=od_pairs)


def whole_program(index, dests, ods=()):
    """An acyclic level's plan toward ``dests`` in which each slot holds
    every node of the level but its destination, each with all its
    out-edges, in reverse Kahn order; ``ods`` gives each OD pair as
    ``(origin, slot)``. Its supplies are in OD order, as a compiled plan's
    are."""
    node_at, runs, at_dst, where, n_choices = [-1], [], [], [], 0
    for dst in dests:
        at = {dst: len(node_at)}
        at_dst.append(len(node_at))
        node_at.append(dst)
        run = []
        for v in reversed(index.topo):
            if v == dst:
                continue
            at[v] = len(node_at)
            node_at.append(v)
            exits = [(e, at[index.heads[e]]) for e in index.out_edges[v]]
            if len(exits) == 1:
                run.append(exits[0])
            else:
                run.append((-1, [(e, u, n_choices + i) for i, (e, u) in enumerate(exits)]))
                n_choices += len(exits)
        runs.append(run)
        where.append(at)
    rho = [math.inf] * len(node_at)
    for p in at_dst:
        rho[p] = 0.0
    at_origin = tuple(where[slot][src] for src, slot in ods)
    supplies = tuple((j, at_origin[j]) for j, (src, slot) in enumerate(ods) if src != dests[slot])
    return loading._DagPlan(tuple(runs), rho, tuple(at_dst), tuple(node_at), at_origin,
                            supplies, n_choices)


def slot_steps(program, slot):
    """The steps of one destination slot in Kahn order, as ``(node
    position, exits)``: each exit ``(edge, head, choice)``, its choice
    ``None`` at a node with one exit."""
    first, run = program.at_dst[slot], program.runs[slot]
    steps = [
        (first + 1 + k, [(edge, head, None)] if edge >= 0 else head)
        for k, (edge, head) in enumerate(run)
    ]
    return steps[::-1]


def slot_run(program, slot):
    """The positions of one destination slot: its destination's, then one
    per step."""
    first = program.at_dst[slot]
    return range(first, first + len(program.runs[slot]) + 1)


def potentials(level, weights, gamma, dest):
    """Soft-min distance from every node of ``level`` to ``dest`` under the
    ``edge id -> weight`` map, by the loading's kernels: the sweep of a
    plan of the whole level toward ``dest`` alone, or of the walk-sum plan
    of a copy of the level whose one OD pair ends at ``dest``."""
    index = level.index
    w = [float(weights[e.id]) for e in level.edges]
    dst = index.node_index[dest]
    if index.topo is None:
        alone = LevelGraph(level.nodes, level.edges, (ODPair(dest, dest),))
        rho = loading._cyclic_plan(alone.index).sweep(alone.index, w, gamma)
    else:
        program = whole_program(index, [dst])
        flat = program.sweep(index, w, gamma)
        rho = [None] * index.n_nodes
        for pos in slot_run(program, 0):
            rho[program.node_at[pos]] = flat[pos]
    return {v: rho[i] for v, i in index.node_index.items()}


class TestSoftminPotentials:
    def test_single_edge(self):
        net = parallel_net([ConstantCost(5.0)])
        rho = potentials(level_of(net), {"e1": 5.0}, 1.0, "d")
        assert rho["o"] == pytest.approx(5.0, abs=1e-14)
        assert rho["d"] == 0.0

    def test_two_parallel_unit(self):
        net = parallel_net([ConstantCost(1.0), ConstantCost(1.0)])
        rho = potentials(level_of(net), {"e1": 1.0, "e2": 1.0}, 1.0, "d")
        assert rho["o"] == pytest.approx(1.0 - math.log(2.0), abs=1e-14)

    def test_two_parallel_gamma_two(self):
        net = parallel_net([ConstantCost(1.0), ConstantCost(1.0)])
        rho = potentials(level_of(net), {"e1": 1.0, "e2": 1.0}, 2.0, "d")
        assert rho["o"] == pytest.approx(1.0 - 2.0 * math.log(2.0), abs=1e-14)

    def test_unreachable_is_inf(self):
        level = LevelGraph(
            nodes=("o", "d", "x"),
            edges=(Edge("e", "o", "d", cost=ConstantCost(1.0)),),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        rho = potentials(level, {"e": 1.0}, 1.0, "d")
        assert math.isinf(rho["x"])

    def test_small_gamma_approaches_min(self):
        net = diamond_net()
        weights = {"oa": 1.0, "ad": 1.0, "ob": 1.2, "bd": 0.9}
        rho = potentials(level_of(net), weights, 1e-3, "d")
        assert rho["o"] == pytest.approx(2.0, abs=1e-2)

    def test_cyclic_walk_sum(self):
        # a <-> b with exit edges; closed-form geometric walk sums
        w = {"ab": 1.0, "ba": 1.2, "ad": 2.0, "bd": 1.5}
        gamma = 0.9
        e = {k: math.exp(-v / gamma) for k, v in w.items()}
        # q_a = e_ad + e_ab*q_b ; q_b = e_bd + e_ba*q_a
        q_a = (e["ad"] + e["ab"] * e["bd"]) / (1.0 - e["ab"] * e["ba"])
        q_b = e["bd"] + e["ba"] * q_a
        rho = potentials(cyclic_level(), w, gamma, "d")
        assert rho["a"] == pytest.approx(-gamma * math.log(q_a), abs=1e-10)
        assert rho["b"] == pytest.approx(-gamma * math.log(q_b), abs=1e-10)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e4])
    def test_cyclic_walk_sum_scales_with_units(self, c):
        w = {"ab": 1.0, "ba": 1.2, "ad": 2.0, "bd": 1.5}
        base = potentials(cyclic_level(), w, 0.9, "d")
        scaled = potentials(
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
            potentials(level, w, 1.0, "d")
        net = NetworkHierarchy([level], [1.0])
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

    def test_conservation_check_reads_portals_from_the_edges(self):
        # A layout with its two portals swapped feeds each level-2 OD pair
        # the other's portal flow; the levels still balance. The check reads
        # each binding from its edge, not from that layout, so it catches it.
        net = shared_destination_grid()
        t = [c.free_flow_time for c in net.plain_costs()]
        verify_conservation(net, network_loading(net, t))
        portals = net.layout.portals[0]
        assert len(portals) == 2
        portals.reverse()
        res = network_loading(net, t)
        assert res.flows[0][portals[0]] != res.flows[0][portals[1]]
        message = "^portal flow and induced demand disagree for level-2 OD "
        with pytest.raises(AssertionError, match=message):
            verify_conservation(net, res)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_identity_random(self, seed):
        net, t = random_hierarchy(seed)
        res = network_loading(net, t)
        flows = plain_flows(net, res)
        h = 1e-5
        for pos in range(len(net.plain_edge_order())):
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

    @pytest.mark.parametrize("case", [0, 1, 2, 3, "grid3", "ring"])
    def test_value_flow_entropy_identity(self, case):
        # smooth value equals gamma-weighted entropies minus <flows, times>,
        # on the cyclic levels too, whose entropies the walk sweep keeps
        if case == "grid3":
            ods = [("r0c0", "r2c2"), ("r2c0", "r0c2"), ("r1c1", "r2c2"), ("r2c2", "r0c0")]
            level = grid3_level([ODPair(o, d, 0.5 + 0.2 * j) for j, (o, d) in enumerate(ods)])
            net = NetworkHierarchy([level], [0.4])
            t = [(1 + 0.05 * math.sin(i)) * c.free_flow_time
                 for i, c in enumerate(net.plain_costs())]
        elif case == "ring":
            arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
            arcs += [(j, i) for i, j in arcs]
            ods = [ODPair("v0", "v3", 1.5), ODPair("v4", "v3", 0.7), ODPair("v2", "v0", 1.0)]
            net = NetworkHierarchy([ring_level(5, arcs, ods)], [0.6])
            t = [1.0 + 0.1 * ((3 * i) % 5) for i in range(len(arcs))]
        else:
            net, t = random_hierarchy(case)
        res = network_loading(net, t)
        rhs = sum(g * e for g, e in zip(net.gammas, res.entropies))
        rhs -= sum(f * v for f, v in zip(plain_flows(net, res), t))
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
        # Each time is finite, but the route o -> m -> d costs 2e308: on the
        # chain, and on the cyclic level that adds m -> o, where the shortest
        # distance overflows too and must not read as a divergent walk sum.
        om = Edge("om", "o", "m", cost=ConstantCost(1.0))
        mo = Edge("mo", "m", "o", cost=ConstantCost(1.0))
        md = Edge("md", "m", "d", cost=ConstantCost(1.0))
        cases = [((om, md), [1e308, 1e308])]
        cases += [((om, mo, md), t) for t in ([1e308] * 3, [1e308, 1.0, 1e308])]
        for edges, t in cases:
            level = LevelGraph(
                nodes=("o", "m", "d"), edges=edges, od_pairs=(ODPair("o", "d", 1.0),)
            )
            net = NetworkHierarchy([level], [1.0])
            with pytest.raises(LoadingError) as caught:
                network_loading(net, t)
            assert not isinstance(caught.value, NoPathError)
            assert str(caught.value) == "the trip cost 'o' -> 'd' at level 1 overflows to +inf"

    def test_overflowing_exponent_on_a_cyclic_level_is_a_zero_probability(self):
        # o -> m costs 1e308 and m's distance is 1e308, so the exponent of
        # o -> m overflows to -inf in the sweep and the loading alike; its
        # probability rounds to 0 and no warning is raised.
        net = NetworkHierarchy([omd_level(ODPair("o", "d", 1.0))], [1.0])
        assert network_loading(net, [1.0, 1e308, 1e308, 1e308]).flows == [[1.0, 0.0, 0.0, 0.0]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gamma_near_the_float_range_on_a_cyclic_level(self):
        # At gamma 1e308, gamma * log(y) overflows for some times, and an
        # entropy formed from rho would subtract infinities. Every time
        # vector drawn from these values ends in a finite loading or in
        # LoadingError, with no warning from any module.
        net = NetworkHierarchy([omd_level(ODPair("o", "d", 1.0))], [1e308])
        loaded = 0
        for t in itertools.product([1.0, 1e308, -1e308, 1.7e308, -1.7e308], repeat=4):
            try:
                res = network_loading(net, list(t))
            except LoadingError:
                continue
            loaded += 1
            assert all(map(math.isfinite, [res.smooth_value, *res.flows[0], *res.entropies]))
            verify_conservation(net, res)
        assert loaded == 209

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma, demand, split", [
        (1e308, 1.0, (180, 445)),
        (0.5, 1.0, (199, 426)),
        (1e308, 0.0, (209, 416)),
        (0.5, 0.0, (235, 390)),
    ])
    def test_two_destination_slots_near_the_float_range(self, gamma, demand, split):
        # A second OD pair m -> o, of demand 1 or 0, makes the plan two
        # destination slots. Every time vector ends in finite flows or in
        # LoadingError, with no warning from any module, and ``split``
        # counts the two; every loading conserves flow.
        net = NetworkHierarchy([omd_level(ODPair("o", "d", 1.0), ODPair("m", "o", demand))],
                               [gamma])
        outcomes = [0, 0]
        for t in itertools.product([1.0, 1e308, -1e308, 1.7e308, -1.7e308], repeat=4):
            try:
                res = network_loading(net, list(t))
            except LoadingError:
                outcomes[1] += 1
                continue
            assert all(map(math.isfinite, [res.smooth_value, *res.flows[0], *res.entropies])), t
            verify_conservation(net, res)
            outcomes[0] += 1
        assert tuple(outcomes) == split

    @pytest.mark.filterwarnings("error::RuntimeWarning:sueflow")
    def test_times_near_the_float_range_end_in_finite_trip_costs(self, two_level_net):
        # Sums of times near -1e308 overflow to -inf, and a soft-min step that
        # shifts -inf by itself gives NaN. Every time vector drawn from these
        # values ends in finite trip costs or in LoadingError naming the
        # value; the general per-node formula gives the same outcome on each.
        outcomes = Counter()
        for t in itertools.product([1.0, 1e308, -1e308, -1.7e308], repeat=6):
            ends = []
            for context in (contextlib.nullcontext, general_formula):
                with context():
                    try:
                        _, trip_costs, _ = loading._sweep_weights(two_level_net, list(t))
                    except LoadingError as err:
                        assert not isinstance(err, NoPathError)
                        ends.append(str(err))
                        continue
                assert all(map(math.isfinite, itertools.chain(*trip_costs))), t
                ends.append(trip_costs)
            assert ends[0] == ends[1], t
            outcomes[ends[0] if isinstance(ends[0], str) else "finite"] += 1
        assert outcomes == {
            "finite": 1424,
            "the trip cost 'o' -> 'd' at level 1 is nan": 1648,
            "the trip cost 'u' -> 'w' at level 2 is nan": 1024,
        }

    @pytest.mark.filterwarnings("error::RuntimeWarning:sueflow")
    def test_times_near_the_float_range_end_in_a_finite_smooth_value(self, two_level_net):
        # Finite trip costs can still make -demand * cost overflow. Every
        # time vector drawn from these values ends in a finite smooth value
        # or in LoadingError naming the value, from both entry points alike.
        outcomes = Counter()
        for t in itertools.product([1.0, 1e308, -1e308, -1.7e308], repeat=6):
            ends = []
            for entry in (dual_smooth_value, network_loading):
                try:
                    value = entry(two_level_net, list(t))
                except LoadingError as err:
                    ends.append(str(err))
                    continue
                if entry is network_loading:
                    assert all(map(math.isfinite, itertools.chain(*value.flows))), t
                    value = value.smooth_value
                assert math.isfinite(value), t
                ends.append(value)
            assert ends[0] == ends[1], t
            outcomes[ends[0] if isinstance(ends[0], str) else "finite"] += 1
        assert outcomes == {
            "finite": 243,
            "the smooth dual value overflows to +inf": 1160,
            "the smooth dual value overflows to -inf": 21,
            "the trip cost 'o' -> 'd' at level 1 is nan": 1648,
            "the trip cost 'u' -> 'w' at level 2 is nan": 1024,
        }

    def test_cyclic_loading_conserves(self):
        net = NetworkHierarchy([cyclic_level(demand=2.0)], [0.9])
        res = network_loading(net, [1.0, 1.2, 2.0, 1.5])
        verify_conservation(net, res, tol=1e-9)
        # gradient identity also holds for the walk-measure loading
        flows = plain_flows(net, res)
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
        net = NetworkHierarchy([level], [gamma])
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


def two_way_ring(n):
    """The arcs of an ``n``-node ring, both ways round."""
    return [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]


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
    flows = plain_flows(net, res)
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
        # The soft-min kernels take the compiled index, whose build names it.
        with pytest.raises(ValueError, match="edge 'e1' names node 'x'"):
            self.bad_level().index

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


def destinations(net, k):
    """The destination nodes of the slots of level ``k``'s plan, in slot
    order."""
    index, program = net.levels[k].index, net.layout.plans[k]
    return [index.nodes[program.node_at[at]] for at in program.at_dst]


def assert_zero_demand_changes_no_bit(net, j, t):
    """Level 1's OD pair ``j``, which has no demand, changes no bit of the
    flows, entropies or smooth value: the loading equals that of the same
    network without it."""
    level = net.levels[0]
    assert level.od_pairs[j].demand == 0.0
    ods = level.od_pairs[:j] + level.od_pairs[j + 1:]
    without = NetworkHierarchy(
        [LevelGraph(level.nodes, level.edges, ods), *net.levels[1:]], net.gammas
    )
    res, alone = network_loading(net, t), network_loading(without, t)
    assert repr((res.flows, res.entropies, res.smooth_value)) == repr(
        (alone.flows, alone.entropies, alone.smooth_value))


class TestOncePerDestination:
    def test_one_field_and_one_forward_pass_per_destination(self, monkeypatch):
        # Each level makes one sweep and one forward pass, over all of its
        # destinations: one slot of its program each.
        net = shared_destination_grid()
        softmin_calls, forward_calls = [], []
        softmin, forward = loading._softmin, loading._forward_dag

        def counted_softmin(plan, index, weights, gamma, choice=None):
            softmin_calls.append(id(index))
            return softmin(plan, index, weights, gamma, choice)

        def counted_forward(plan, index, choice, through, flows, k):
            forward_calls.append(k)
            return forward(plan, index, choice, through, flows, k)

        monkeypatch.setattr(loading._DagPlan, "sweep", counted_softmin)
        monkeypatch.setattr(loading._DagPlan, "forward", counted_forward)
        t = [c.free_flow_time for c in net.plain_costs()]
        res = network_loading(net, t)
        verify_conservation(net, res)

        level1, level2 = (level.index for level in net.levels)
        assert sorted(softmin_calls) == sorted([id(level1), id(level2)])
        assert destinations(net, 0) == ["r3c3", "r3c2", "r2c2"]
        assert destinations(net, 1) == ["r2c2"]
        assert forward_calls == [0, 1]
        # r2c2 at level 1 carries no demand: its slot's pass adds only 0.0
        monkeypatch.undo()
        assert_zero_demand_changes_no_bit(net, len(net.levels[0].od_pairs) - 1, t)

    def test_one_sweep_and_one_forward_pass_per_cyclic_level(self, monkeypatch):
        # A cyclic level too makes one sweep call and one forward call over
        # all its destinations, in ascending slot order: v0's slot first,
        # though its demand arrives after v3's.
        import numpy as np

        n = 8
        arcs = two_way_ring(n)
        ods = [ODPair("v0", "v0", 1.0), ODPair("v1", "v3", 1.5), ODPair("v2", "v5", 0.0),
               ODPair("v6", "v0", 1.2)]
        net = NetworkHierarchy([ring_level(n, arcs, ods)], [0.5])
        softmin_calls, forward_calls, solved = [], [], []
        softmin, forward = loading._softmin_cyclic, loading._forward_cyclic
        solve = np.linalg.solve

        def counted_softmin(plan, index, weights, gamma, choice=None):
            softmin_calls.append(id(index))
            return softmin(plan, index, weights, gamma, choice)

        def counted_forward(plan, index, choice, through, flows, k):
            forward_calls.append(k)
            return forward(plan, index, choice, through, flows, k)

        def recorded_solve(a, b):
            solved.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(loading._CyclicPlan, "sweep", counted_softmin)
        monkeypatch.setattr(loading._CyclicPlan, "forward", counted_forward)
        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        t = [1.0] * len(arcs)
        res = network_loading(net, t)
        verify_conservation(net, res)

        index = net.levels[0].index
        assert softmin_calls == [id(index)]
        assert [index.nodes[v] for v in index.dests] == ["v0", "v3", "v5"]
        assert forward_calls == [0]
        # both passes solve the whole stack; v5 carries no demand, so its
        # system's visits are zeros that add only 0.0
        assert solved == [(3, n, n), (3, n, n)]
        monkeypatch.undo()
        assert_zero_demand_changes_no_bit(net, 2, t)


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
    return NetworkHierarchy([level], [1.0]), [cycle] * 4 + [1.0, 1.0]


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
        net = NetworkHierarchy([level], [gamma])

        weights, trip_costs, _ = loading._sweep_weights(net, t)
        field = net.layout.plans[0].sweep(level.index, weights[0], gamma)
        by_id = {e.id: w for e, w in zip(level.edges, weights[0])}
        for slot, dst in enumerate(level.index.dests):
            alone = potentials(level, by_id, gamma, level.nodes[dst])
            assert field[slot * n:(slot + 1) * n] == [alone[v] for v in level.nodes]
            # each OD pair's trip cost is its origin's entry in that field
            for od, cost in zip(pairs, trip_costs[0]):
                if od.destination == level.nodes[dst]:
                    assert repr(cost) == repr(alone[od.origin])

        res = network_loading(net, t)
        verify_conservation(net, res)
        summed, entropy = [0.0] * len(arcs), 0.0
        for od in pairs:
            one = network_loading(NetworkHierarchy([ring_level(n, arcs, [od])], [gamma]), t)
            summed = [a + b for a, b in zip(summed, one.flows[0])]
            entropy += one.entropies[0]
        assert res.flows[0] == pytest.approx(summed, rel=1e-12, abs=1e-12)
        assert res.entropies[0] == pytest.approx(entropy, rel=1e-12, abs=1e-12)
        assert_flows_are_minus_gradient(net, t, res, 1e-6 * sum(x for *_, x in ods))

    @pytest.mark.parametrize("stack_floats", [2**16, 8 * 8])
    def test_slots_are_summed_in_ascending_order(self, monkeypatch, stack_floats):
        # The first OD pair starts at its destination v0, which holds slot
        # 0 but receives its first demand after v3's and v5's. The level's
        # flows and entropy are still the loadings toward each destination
        # alone, added up in slot order, whether its three slots share one
        # stack or take one each.
        monkeypatch.setattr(loading, "_STACK_FLOATS", stack_floats)
        n = 8
        arcs = two_way_ring(n)
        ods = [ODPair("v0", "v0", 1.0), ODPair("v1", "v3", 1.5), ODPair("v2", "v5", 0.7),
               ODPair("v6", "v0", 1.2), ODPair("v7", "v3", 0.9)]
        rng = random.Random(8)
        for _ in range(50):
            t = [rng.uniform(0.5, 2.0) for _ in arcs]
            net = NetworkHierarchy([ring_level(n, arcs, ods)], [0.5])
            assert [net.levels[0].nodes[v] for v in net.levels[0].index.dests] == ["v0", "v3", "v5"]
            res = network_loading(net, t)
            stacks = net.layout.plans[0].stacks
            assert [len(s.slots) for s in stacks] == ([3] if stack_floats > n * n else [1, 1, 1])
            flows, entropy = [0.0] * len(arcs), 0.0
            for dst in ("v0", "v3", "v5"):
                alone = ring_level(n, arcs, [od for od in ods if od.destination == dst])
                one = network_loading(NetworkHierarchy([alone], [0.5]), t)
                flows = [a + b for a, b in zip(flows, one.flows[0])]
                entropy += one.entropies[0]
            assert repr((res.flows[0], res.entropies[0])) == repr((flows, entropy))

    @pytest.mark.parametrize("per_group", [1, 2, 4])
    def test_groups_change_no_bit(self, monkeypatch, per_group):
        ods = [("r0c0", "r2c2"), ("r2c0", "r0c2"), ("r1c1", "r2c2"), ("r0c2", "r1c0"),
               ("r2c2", "r0c0")]
        sizes = {1: [1, 1, 1, 1], 2: [2, 2], 4: [4]}[per_group]

        def grid_net():
            level = grid3_level([ODPair(o, d, 0.5 + 0.2 * j) for j, (o, d) in enumerate(ods)])
            return NetworkHierarchy([level], [0.3])

        def kept_choice(net):
            # the trip costs and the cyclic level's choice, as lists
            _, trip_costs, (choice,) = loading._sweep_weights(net, t, keep_choices=True)
            return repr((trip_costs, choice.probs.tolist(), choice.entropy.tolist()))

        net = grid_net()
        t = [1.1 * c.free_flow_time for c in net.plain_costs()]
        one_group = network_loading(net, t), dual_smooth_value(net, t)
        one_choice = kept_choice(net)
        n = net.levels[0].index.n_nodes
        monkeypatch.setattr(loading, "_STACK_FLOATS", per_group * n * n)
        assert [len(g) for g in loading._groups(n, net.levels[0].index.dests)] == sizes
        # a plan is compiled once per level: a level built after the patch
        # runs its passes on the patched groups
        net = grid_net()
        assert (network_loading(net, t), dual_smooth_value(net, t)) == one_group
        assert kept_choice(net) == one_choice
        assert [len(s.slots) for s in net.layout.plans[0].stacks] == sizes

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_five_stacks_match_the_destinations_loaded_alone(self):
        # A 128-node two-way ring with 20 OD pairs to 20 destinations takes
        # five stacks of systems. Its loading conserves flow and equals the
        # loadings toward each destination alone, added in slot order, to
        # the bit.
        n = 128
        arcs = two_way_ring(n)
        ods = [ODPair(f"v{(13 * j + 5) % n}", f"v{11 * j % n}", 1.0) for j in range(20)]
        t = [1.0] * len(arcs)
        net = NetworkHierarchy([ring_level(n, arcs, ods)], [0.5])
        res = network_loading(net, t)
        verify_conservation(net, res)
        assert len(net.layout.plans[0].stacks) == 5
        flows = [0.0] * len(arcs)
        for od in ods:  # one destination per OD pair, in slot order
            one = network_loading(NetworkHierarchy([ring_level(n, arcs, [od])], [0.5]), t)
            flows = [a + b for a, b in zip(flows, one.flows[0])]
        assert repr(res.flows[0]) == repr(flows)

    def test_compiled_passes_keep_no_stack_of_systems(self):
        # 20 destinations on a 256-node bidirectional ring: one system per
        # stack, and the arrays kept in the layout (the plan's and its
        # stacks') are O(D E + n**2), far below the D n**2 of a stack of
        # identities per group.
        n, dests = 256, 20
        arcs = two_way_ring(n)
        ods = [ODPair(f"v{(13 * j + 5) % n}", f"v{11 * j}", 1.0) for j in range(dests)]
        level = ring_level(n, arcs, ods)
        net = NetworkHierarchy([level], [0.5])
        res = network_loading(net, [1.0] * len(arcs))
        verify_conservation(net, res)
        plan = net.layout.plans[0]
        assert [len(s.slots) for s in plan.stacks] == [1] * dests
        arrays = [*plan, *(a for s in plan.stacks for a in s)]
        kept = sum(getattr(a, "size", 0) for a in arrays)
        assert kept <= 5 * dests * len(arcs) + dests * n + n * n
        assert kept < dests * n * n / 10

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
        assert potentials(net.levels[0], weights, 1.0, "a")["b"] < math.inf
        with pytest.raises(LoadingError, match="^the walk sum to destination 'e' diverges$"):
            potentials(net.levels[0], weights, 1.0, "e")

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
        net = NetworkHierarchy([level], [1.0])
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
        net = NetworkHierarchy([level1, level2], [1.0, 0.02])
        assert validate_hierarchy(net) == []
        t = [(1 + 0.05 * math.sin(i)) * c.free_flow_time for i, c in enumerate(net.plain_costs())]
        res = network_loading(net, t)
        verify_conservation(net, res)
        expected, _ = oracle.loading_by_enumeration(net, t)
        for k, level in enumerate(net.levels):
            for pos, edge in enumerate(level.edges):
                assert res.flows[k][pos] == pytest.approx(expected[k][edge.id], abs=1e-9)
        assert 0.1 < res.flows[0][0] < 1.9  # both levels carry real route choice


def general_field(index, weights, gamma, dst):
    """The general per-node formula toward ``dst``, shifted ``exp``s summed
    and one ``log``, at every node of the whole level, whatever its number
    of exits: the soft-min value and entropy of each node and the choice
    probability of each edge."""
    rho = [math.inf] * index.n_nodes
    rho[dst] = 0.0
    heads = index.heads
    probs, entropy = [0.0] * len(heads), [0.0] * index.n_nodes
    for v in reversed(index.topo):
        if v == dst:
            continue
        out = index.out_edges[v]
        best = math.inf
        for e in out:
            term = weights[e] + rho[heads[e]]
            if term < best:
                best = term
        if best == math.inf:
            continue
        acc = 0.0
        for e in out:
            ex = probs[e] = math.exp((best - (weights[e] + rho[heads[e]])) / gamma)
            acc += ex
        r = rho[v] = best - gamma * math.log(acc)
        h = 0.0
        for e in out:
            p = probs[e] = probs[e] / acc
            if p > 0.0:
                h += p * (weights[e] + rho[heads[e]] - r)
        entropy[v] = h / gamma
    return rho, probs, entropy


def general_softmin(program, index, weights, gamma, choice=None):
    """Reference for ``loading._softmin``: ``general_field`` toward each
    destination of the level on its own, copied into the flat arrays of the
    level's plan."""
    rho = program.rho.copy()
    for slot, dst in enumerate(index.dests):
        field, probs, entropy = general_field(index, weights, gamma, dst)
        for pos in slot_run(program, slot):
            rho[pos] = field[program.node_at[pos]]
            if choice is not None:
                choice.entropy[pos] = entropy[program.node_at[pos]]
        for _, exits in slot_steps(program, slot):
            for e, _, c in exits:
                if choice is not None and c is not None:
                    choice.probs[c] = probs[e]
    return rho


def general_forward(program, index, choice, through, flows, k):
    """Reference for ``loading._forward_dag``: per destination slot, in
    ascending order, every node of the whole level in Kahn order splits its
    through-flow by the kept probabilities (1.0 at a node with one exit)."""
    total = 0.0
    for slot in range(len(index.dests)):
        supply, probs = [0.0] * index.n_nodes, [0.0] * len(index.heads)
        node_entropy = [0.0] * index.n_nodes
        for pos in slot_run(program, slot):
            supply[program.node_at[pos]] = through[pos]
            node_entropy[program.node_at[pos]] = choice.entropy[pos]
        for _, exits in slot_steps(program, slot):
            for e, _, c in exits:
                probs[e] = 1.0 if c is None else choice.probs[c]
        entropy = 0.0
        for v in index.topo:
            h = supply[v]
            if h <= 0.0 or v == index.dests[slot]:
                continue
            for e in index.out_edges[v]:
                q = h * probs[e]
                flows[e] += q
                supply[index.heads[e]] += q
            entropy += h * node_entropy[v]
        total += entropy
    return total


@contextlib.contextmanager
def general_formula():
    """A context in which acyclic loading runs the reference passes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loading._DagPlan, "sweep", general_softmin)
        mp.setattr(loading._DagPlan, "forward", general_forward)
        yield


class TestSingleExitSteps:
    # A node with one exit takes its term as its soft-min value, with
    # probability 1.0 and entropy 0.0: the bits the general formula gives,
    # since its one exp is exp(0.0) = 1.0 and log(1.0) = 0.0.
    @given(case=any_dag_hierarchy)
    @settings(max_examples=150, deadline=None)
    def test_loading_equals_the_general_formula(self, case):
        net, t = case
        program = network_loading(net, t), dual_smooth_value(net, t)
        with general_formula():
            general = network_loading(net, t), dual_smooth_value(net, t)
        assert program == general

    @pytest.mark.parametrize("term", [0.25, -3.0, math.inf, math.nan])
    def test_one_exit_matches_the_general_step(self, term):
        # o -> m is m's one exit; o has two. A term of +inf or NaN at m
        # leaves it without a route, as the minimum does.
        level = LevelGraph(
            nodes=("o", "m", "d"),
            edges=(
                Edge("om", "o", "m", cost=ConstantCost(1.0)),
                Edge("md", "m", "d", cost=ConstantCost(1.0)),
                Edge("od", "o", "d", cost=ConstantCost(1.0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        index = level.index
        w = [0.5, term, 2.0]
        program = loading._dag_plan(index)
        assert program.node_at[program.at_dst[0] + 1] == index.node_index["m"]
        assert program.runs[0][0] == (1, program.at_dst[0])
        fields = []
        for sweep in (loading._softmin, general_softmin):
            choice = program.choice()
            rho = sweep(program, index, w, 0.7, choice)
            fields.append([repr(x) for x in rho + choice.probs + choice.entropy])
        assert fields[0] == fields[1]
        # m's one exit has the probability 1.0 the general formula gives it
        _, probs, _ = general_field(index, w, 0.7, index.node_index["d"])
        assert probs[1] == (1.0 if term < math.inf else 0.0)

    def test_minus_inf_trip_cost_is_named(self):
        # The one soft-min term of o is -1e308 + -1e308 = -inf; the general
        # step would shift it by itself into a NaN.
        chain = LevelGraph(
            nodes=("o", "m", "d"),
            edges=(Edge("om", "o", "m", cost=ConstantCost(1.0)),
                   Edge("md", "m", "d", cost=ConstantCost(1.0))),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        net = NetworkHierarchy([chain], [1.0])
        message = "^the trip cost 'o' -> 'd' at level 1 overflows to -inf$"
        with pytest.raises(LoadingError, match=message):
            network_loading(net, [-1e308, -1e308])
        with general_formula(), pytest.raises(LoadingError, match="at level 1 is nan$"):
            network_loading(net, [-1e308, -1e308])

    def test_program_holds_the_subgraph_edges_only(self):
        # 100 diamonds a -> {b, c} -> d chained into one 400-node level, each
        # its own OD: the program holds a few entries per subgraph edge, far
        # below one out-edge slot per destination and node (D * n = 40 000),
        # and so do the arrays of each loading.
        diamonds = 100
        nodes = tuple(f"{x}{i}" for i in range(diamonds) for x in "abcd")
        edges = []
        for i in range(diamonds):
            for tail, head in ("ab", "ac", "bd", "cd"):
                edges.append(Edge(f"{tail}{head}{i}", f"{tail}{i}", f"{head}{i}",
                                  cost=ConstantCost(1.0)))
            if i + 1 < diamonds:
                edges.append(Edge(f"link{i}", f"d{i}", f"a{i + 1}", cost=ConstantCost(1.0)))
        ods = tuple(ODPair(f"a{i}", f"d{i}", 1.0) for i in range(diamonds))
        level = LevelGraph(nodes, tuple(edges), ods)
        net = NetworkHierarchy([level], [0.5])
        verify_conservation(net, network_loading(net, [1.0] * len(edges)))
        program = net.layout.plans[0]
        assert len(program.at_dst) == diamonds
        # (edge, head), or a marker and an (edge, head, choice) per exit
        kept = sum(2 if edge >= 0 else 1 + 3 * len(head)
                   for run in program.runs for edge, head in run)
        assert kept <= 3 * 4 * diamonds  # four subgraph edges per destination
        assert kept < diamonds * len(nodes) / 10
        # a position per subgraph node and one for origins with no route;
        # a choice position per exit of a node with two
        arrays = len(program.rho) + program.n_choices
        assert (len(program.rho), program.n_choices) == (4 * diamonds + 1, 2 * diamonds)
        assert arrays < diamonds * len(nodes) / 10


def decoded(index, program, slot):
    """The nodes of a slot of an acyclic level's plan in Kahn order and, per
    node of the level, the edges of its step; a step has one exit exactly
    when it is written ``(edge, head)``, and each exit names its edge's head
    by a position of the same slot."""
    node_at, first, run = program.node_at, program.at_dst[slot], program.runs[slot]
    positions = range(first, first + len(run) + 1)
    topo, out_edges = [], [[] for _ in range(index.n_nodes)]
    for k in reversed(range(len(run))):
        edge, head = run[k]
        exits = [(edge, head)] if edge >= 0 else [(e, u) for e, u, _ in head]
        assert (edge >= 0) == (len(exits) == 1)
        assert all(u in positions and index.heads[e] == node_at[u] for e, u in exits)
        topo.append(node_at[first + 1 + k])
        out_edges[topo[-1]] = [e for e, _ in exits]
    return topo, out_edges


class TestDestinationSubgraphs:
    # Outside a destination's subgraph every soft-min term is +inf, whose
    # exp adds an exact 0.0, and every choice probability is 0.0: passes
    # over the subgraph and over the whole level agree to the last bit.
    @given(case=any_dag_hierarchy)
    @settings(max_examples=150, deadline=None)
    def test_restricted_loading_equals_whole_level(self, case):
        net, t = case
        restricted = network_loading(net, t), dual_smooth_value(net, t)
        for k, level in enumerate(net.levels):
            index = level.index
            ods = list(zip((src for src, _ in index.od_nodes), index.dest_slot))
            net.layout.plans[k] = whole_program(index, index.dests, ods)
        whole = network_loading(net, t), dual_smooth_value(net, t)
        assert restricted == whole

    @given(case=any_dag_hierarchy)
    @settings(max_examples=150, deadline=None)
    def test_trip_costs_are_whole_level_potentials(self, case):
        net, t = case
        weights = hierarchical_weights(net, t)
        _, trip_costs, _ = loading._sweep_weights(net, t)
        for k, level in enumerate(net.levels):
            for j, od in enumerate(level.od_pairs):
                rho = potentials(level, weights[k], net.gammas[k], od.destination)
                assert trip_costs[k][j] == rho[od.origin]
                if k > 0:
                    portal = net.levels[k - 1].edges[net.layout.portals[k - 1][j]]
                    assert weights[k - 1][portal.id] == rho[od.origin]

    @given(case=any_dag_hierarchy)
    @settings(max_examples=200, deadline=None)
    def test_between_origins_and_destination(self, case):
        # descendants of the origins that are ancestors of the destination,
        # the destination aside (it has no step), in Kahn order, each keeping
        # its out-edges into the set in order
        net, _ = case
        for level, program in zip(net.levels, loading._layout(net).plans):
            index = level.index
            n = index.n_nodes
            graph = csr_matrix(
                ([1.0] * len(index.tails), (index.tails, index.heads)), shape=(n, n)
            )
            assert len(program.at_dst) == len(program.runs) == len(index.dests)
            for slot, dst in enumerate(index.dests):
                assert program.node_at[program.at_dst[slot]] == dst
                below = set()
                for (src, _), s in zip(index.od_nodes, index.dest_slot):
                    if s == slot:
                        below.update(breadth_first_order(
                            graph, src, directed=True, return_predecessors=False
                        ).tolist())
                above = breadth_first_order(
                    graph.T.tocsr(), dst, directed=True, return_predecessors=False
                ).tolist()
                members = below & set(above)
                topo, out_edges = decoded(index, program, slot)
                assert topo == [v for v in index.topo if v in members and v != dst]
                for v in range(n):
                    kept = [e for e in index.out_edges[v] if index.heads[e] in members]
                    assert out_edges[v] == (kept if v in members else [])
            # position 0 stands for origins without a route; then each slot's
            # destination and the nodes of its steps, in the order of its steps
            positions = [p for first, run in zip(program.at_dst, program.runs)
                         for p in range(first, first + len(run) + 1)]
            assert positions == list(range(1, len(program.node_at)))
            # the choice positions of the nodes with several exits, in order
            choices = [c for run in program.runs for edge, head in run if edge < 0
                       for _, _, c in head]
            assert choices == list(range(program.n_choices))
            assert program.node_at[0] == -1 and program.rho[0] == math.inf

    def test_built_on_first_loading_not_by_validation(self):
        # Each level's plan, held in the network's layout, is built by the
        # first loading and kept by the next.
        net = parse_network(FIXTURES / "two_level.json")
        assert validate_hierarchy(net) == []
        assert net.layout is None
        network_loading(net, net.free_flow_times())
        built = list(net.layout.plans)
        assert len(built) == len(net.levels)
        assert all(isinstance(b, loading._DagPlan) for b in built)
        network_loading(net, net.free_flow_times())
        assert all(plan is b for plan, b in zip(net.layout.plans, built))

    def test_network_layout_built_on_first_loading_not_by_validation(self):
        # One compile per network: the layout is built by the first loading
        # and kept by the next.
        net = parse_network(FIXTURES / "two_level.json")
        assert validate_hierarchy(net) == []
        assert net.layout is None
        network_loading(net, net.free_flow_times())
        built = net.layout
        assert isinstance(built, loading._Layout)
        network_loading(net, net.free_flow_times())
        assert net.layout is built

    def test_cyclic_level_builds_a_walk_sum_plan(self):
        # A cyclic level's passes are linear solves over the whole level.
        level = LevelGraph(
            nodes=("a", "b", "d", "x"),
            edges=(
                Edge("ab", "a", "b", cost=AffineCost(1.0, 1.0)),
                Edge("ba", "b", "a", cost=AffineCost(1.0, 1.0)),
                Edge("bd", "b", "d", cost=AffineCost(1.0, 1.0)),
                Edge("dx", "d", "x", cost=AffineCost(1.0, 1.0)),
            ),
            od_pairs=(ODPair("a", "d", 1.0),),
        )
        net = NetworkHierarchy([level], [0.5])
        assert validate_hierarchy(net) == []
        assert net.layout is None
        network_loading(net, [1.0] * 4)
        assert isinstance(net.layout.plans[0], loading._CyclicPlan)


class TestBatchedAcyclicPasses:
    # An acyclic level's sweep and forward pass run over all its
    # destinations at once; each destination's run of the program sees the
    # float operations, in the same order, of a pass of its own.
    @given(case=any_dag_hierarchy)
    @settings(max_examples=150, deadline=None)
    def test_matches_one_destination_at_a_time(self, case):
        net, t = case
        weights, _, _ = loading._sweep_weights(net, t)
        res = network_loading(net, t)
        for k, level in enumerate(net.levels):
            index, gamma = level.index, net.gammas[k]
            program = net.layout.plans[k]
            choice = program.choice()
            rho = loading._softmin(program, index, weights[k], gamma, choice)
            for slot, dst in enumerate(index.dests):
                alone, probs, entropy = general_field(index, weights[k], gamma, dst)
                for pos in slot_run(program, slot):
                    v = program.node_at[pos]
                    assert repr((rho[pos], choice.entropy[pos])) == repr((alone[v], entropy[v]))
                for _, exits in slot_steps(program, slot):
                    for e, _, c in exits:
                        if c is not None:
                            assert repr(choice.probs[c]) == repr(probs[e])
            # Each destination alone, its flows added to the level's in
            # ascending slot order, gives the level's pass.
            flows, total = [0.0] * len(level.edges), 0.0
            for slot in range(len(index.dests)):
                through = [0.0] * len(program.rho)
                for j, at in program.supplies:
                    if index.dest_slot[j] == slot:
                        through[at] += res.induced_demands[k][j]
                total += general_forward(program, index, choice, through, flows, k)
            assert flows == res.flows[k]
            assert total == res.entropies[k]



def loaded(net, t):
    """The trip costs, the loading and the smooth value at ``t``."""
    _, trip_costs, _ = loading._sweep_weights(net, t)
    return trip_costs, network_loading(net, t), dual_smooth_value(net, t)


class TestWalkSumCrossCheck:
    # The walk-sum plan is exact on an acyclic level too, where every walk
    # is a path (Dial's path sum), and shares no code with the acyclic
    # sweep: a Bellman-Ford and dense solves in place of a recursion over
    # the plan's steps. So it checks acyclic loadings at sizes that route
    # enumeration cannot reach. Small draws put several exits on most nodes
    # that carry flow; large ones reach 100 nodes a level.
    @given(case=st.one_of(dag_hierarchies(), dag_hierarchies(max_nodes=100, max_edges=200)))
    @settings(max_examples=200, deadline=None)
    def test_acyclic_loading_equals_the_walk_sum(self, case):
        net, t = case
        trips, res, value = loaded(net, t)
        for k, level in enumerate(net.levels):
            net.layout.plans[k] = loading._cyclic_plan(level.index)
        walk_trips, walk_res, walk_value = loaded(net, t)
        # An OD pair that starts at its destination costs 0.0 on the
        # acyclic sweep and gamma times the log of the walk-sum solve's
        # rounding residue, about 3e-16 gamma, on the walk sum; the absolute
        # floors cover it. Entropies are compared absolutely: where they
        # are near 1e-10, the walk-sum form cancels to a relative error of
        # up to 1e-3.
        demand = sum(od.demand for od in net.levels[0].od_pairs)
        for k, gamma in enumerate(net.gammas):
            assert walk_trips[k] == pytest.approx(trips[k], rel=1e-12, abs=1e-12 * gamma)
            assert walk_res.flows[k] == pytest.approx(res.flows[k], rel=1e-12, abs=1e-12 * demand)
            assert walk_res.induced_demands[k] == pytest.approx(
                res.induced_demands[k], rel=1e-12, abs=1e-12 * demand)
            assert walk_res.entropies[k] == pytest.approx(res.entropies[k], rel=0.0,
                                                          abs=1e-12 * demand)
        floor = 1e-12 * demand * net.gammas[0]
        assert walk_value == pytest.approx(value, rel=1e-12, abs=floor)
        assert walk_res.smooth_value == pytest.approx(res.smooth_value, rel=1e-12, abs=floor)


def node_fields(plan, index, rho):
    """A sweep's values ``rho`` over ``plan``, one list per destination slot
    indexed by the level's nodes; ``+inf`` where the plan keeps no value."""
    n = index.n_nodes
    if isinstance(plan, loading._CyclicPlan):
        return [list(rho[slot * n:(slot + 1) * n]) for slot in range(len(index.dests))]
    fields = []
    for slot in range(len(index.dests)):
        field = [math.inf] * n
        for pos in slot_run(plan, slot):
            field[plan.node_at[pos]] = rho[pos]
        fields.append(field)
    return fields


def bellman_residual(net, t):
    """The largest ``|rho[v] - softmin_e(w_e + rho[head_e])| / gamma`` of
    the loading at ``t``, over every level, destination slot and node with
    a finite value but the destination. The soft-min runs over ``v``'s
    out-edges in the level, shifted by its smallest term; the weights come
    from ``_sweep_weights`` and the values from the level's ``plan.sweep``,
    so any kernel is checked the same way. A NaN residual is returned as
    it is, so that it fails any bound."""
    weights, _, _ = loading._sweep_weights(net, t)
    worst = 0.0
    for k, level in enumerate(net.levels):
        index, gamma, w = level.index, net.gammas[k], weights[k]
        plan = net.layout.plans[k]
        fields = node_fields(plan, index, plan.sweep(index, w, gamma))
        for dst, rho in zip(index.dests, fields):
            for v in range(index.n_nodes):
                if v == dst or not math.isfinite(rho[v]):
                    continue
                terms = [w[e] + rho[index.heads[e]] for e in index.out_edges[v]]
                best = min(terms)
                soft = best - gamma * math.log(sum(math.exp((best - x) / gamma) for x in terms))
                residual = abs(rho[v] - soft) / gamma
                if not residual <= worst:
                    worst = residual
    return worst


class TestSoftBellman:
    # Every loading's values satisfy their soft Bellman equation, whichever
    # kernel computed them: exactly on an acyclic level, whose sweep is that
    # equation, and up to the rounding of the walk-sum solve on a cyclic one.
    @given(case=dag_hierarchies())
    @settings(max_examples=100, deadline=None)
    def test_dag_hierarchies(self, case):
        assert bellman_residual(*case) <= 1e-12

    @given(case=cyclic_levels())
    @settings(max_examples=60, deadline=None)
    def test_cyclic_levels(self, case):
        assert bellman_residual(*case) <= 1e-12

    @pytest.mark.parametrize("fixture, plan", [
        ("two_level.json", loading._DagPlan),
        ("cyclic_grid.json", loading._CyclicPlan),
    ])
    def test_a_shifted_value_fails(self, monkeypatch, fixture, plan):
        # A sweep that raises the value at level 1's first origin by 1e-9
        # gamma breaks that node's equation by as much.
        net = parse_network(FIXTURES / fixture)
        t = [1.1 * x for x in net.free_flow_times()]
        assert bellman_residual(net, t) <= 1e-12
        sweep = plan.sweep

        def shifted(own, index, weights, gamma, choice=None):
            rho = sweep(own, index, weights, gamma, choice)
            if index is net.levels[0].index:
                rho[own.at_origin[0]] += 1e-9 * gamma
            return rho

        monkeypatch.setattr(plan, "sweep", shifted)
        assert bellman_residual(net, t) == pytest.approx(1e-9, rel=1e-3)


class TestPlainEdgeOrder:
    # The layout places the plain edges among all levels' flows in a pass
    # of its own; the positions must be those ``plain_edge_order`` gives,
    # which orders the dual vector.
    @staticmethod
    def assert_layout_agrees(net):
        layout = loading._layout(net)
        offsets = [0, *itertools.accumulate(len(level.edges) for level in net.levels)]
        assert layout.plain_at == [offsets[k] + i for k, i in net.plain_edge_order()]
        assert layout.ends == offsets[1:]

    @given(case=dag_hierarchies())
    @settings(max_examples=100, deadline=None)
    def test_dag_hierarchies(self, case):
        self.assert_layout_agrees(case[0])

    def test_cyclic_grid(self):
        self.assert_layout_agrees(parse_network(FIXTURES / "cyclic_grid.json"))


def weights_edge_by_edge(net, t):
    """Per-level ``edge id -> weight`` maps built from ``level.edges``,
    deepest level first: a plain edge takes the entry of ``t`` at its
    ``plain_edge_order`` position, a portal the trip cost of its target OD
    pair from ``potentials`` under the weights one level down."""
    flat = dict(zip(net.plain_edge_order(), t, strict=True))
    maps = [None] * net.num_levels
    for k in range(net.num_levels - 1, -1, -1):
        level, w = net.levels[k], {}
        for pos, edge in enumerate(level.edges):
            if edge.is_plain:
                w[edge.id] = flat[k, pos]
            else:
                below = net.levels[k + 1]
                od = below.od_pairs[edge.target_od.od]
                rho = potentials(below, maps[k + 1], net.gammas[k + 1], od.destination)
                w[edge.id] = rho[od.origin]
        maps[k] = w
    return maps


class TestWeightGather:
    # Each level's weights come from one compiled gather over its slice of
    # the dual vector and the trip costs below; they must be the very
    # floats an edge-by-edge assembly gives.
    @given(case=any_dag_hierarchy)
    @settings(max_examples=150, deadline=None)
    def test_dag_hierarchies(self, case):
        net, t = case
        assert hierarchical_weights(net, t) == weights_edge_by_edge(net, t)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_with_chords_below_portals(self, data):
        n, arcs, ring_t, gamma = draw_ring(data)
        node = st.integers(0, n - 1)
        ring_ods = [
            ODPair(f"v{data.draw(node, label=f'origin {j}')}",
                   f"v{data.draw(node, label=f'destination {j}')}")
            for j in range(2)
        ]
        ring = ring_level(n, arcs, ring_ods)
        top_edges = [
            Edge("g0", "o", "m", target_od=ODRef(1, 0)),
            Edge("om", "o", "m", cost=ConstantCost(1.0)),
            Edge("g1", "m", "d", target_od=ODRef(1, 1)),
            Edge("md", "m", "d", cost=ConstantCost(1.0)),
            Edge("od", "o", "d", cost=ConstantCost(1.0)),
        ]
        top = LevelGraph(
            nodes=("o", "m", "d"),
            edges=tuple(data.draw(st.permutations(top_edges), label="edge order")),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        top_t = data.draw(st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3), label="times")
        for net, t in (
            (NetworkHierarchy([ring], [gamma]), ring_t),
            (NetworkHierarchy([top, ring], [1.0, gamma]), top_t + ring_t),
        ):
            assert hierarchical_weights(net, t) == weights_edge_by_edge(net, t)

    def test_array_input_gives_the_list_result(self, two_level_net):
        import numpy as np

        t = [1.1, 1.05, 2.6, 0.55, 0.4, 0.35]
        assert network_loading(two_level_net, np.array(t)) == network_loading(two_level_net, t)
        maps = hierarchical_weights(two_level_net, np.array(t))
        assert maps == hierarchical_weights(two_level_net, t)
        assert all(type(w) is float for m in maps for w in m.values())


class TestDualVectorLength:
    # The gather reads each level's slice of the dual vector by position, so
    # a vector of another length would shift the slices; every entry point
    # rejects it, naming both lengths. A NaN or infinite value would reach
    # the sweep as an overflow or a divergence; it is rejected too.
    T = [1.1, 1.05, 2.6, 0.55, 0.4, 0.35]  # two_level.json has 6 plain edges

    @pytest.mark.parametrize("entry", [network_loading, dual_smooth_value, hierarchical_weights])
    @pytest.mark.parametrize("length", [0, 5, 7, 8])
    def test_wrong_length_raises(self, two_level_net, entry, length):
        t = (self.T + [1.0, 1.0])[:length]
        with pytest.raises(ValueError, match=f"^expected 6 dual values, .*, got {length}$"):
            entry(two_level_net, t)

    @pytest.mark.parametrize("entry", [network_loading, dual_smooth_value, hierarchical_weights])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cyclic", [False, True])
    def test_non_finite_value_raises(self, two_level_net, entry, bad, cyclic):
        # The first non-finite value in plain-edge order is named.
        if cyclic:
            net = NetworkHierarchy([cyclic_level()], [1.0])
            t, first, where = [1.0, 1.2, 2.0, 1.5], 2, "'ad' at level 1"
        else:
            net, t, first, where = two_level_net, list(self.T), 4, "'q2' at level 2"
        t[first:] = [bad] * (len(t) - first)
        with pytest.raises(ValueError, match=f"^non-finite time {bad} for plain edge {where}$"):
            entry(net, t)

    def test_surplus_is_not_ignored(self, two_level_net):
        # at the parent 8 values returned the 6-value result
        with pytest.raises(ValueError, match="got 8"):
            dual_smooth_value(two_level_net, self.T + [9.0, 9.0])
        assert dual_smooth_value(two_level_net, self.T) < 0.0


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
    # Potentials near stages * time carry rounding of about eps * rho / gamma;
    # probabilities rebuilt from them summed 3e-9 and 1e-9 away from 1 on
    # these chains with no mass lost. The kept choice divides each exp by
    # the node's own sum, so only a choice that is not normalised leaks.
    @pytest.mark.parametrize("stages, time, gamma", [(500, 100.0, 1e-3), (2000, 600.0, 0.1)])
    def test_long_chain_at_large_cost_over_gamma(self, stages, time, gamma):
        for seed in range(5):
            net, t = jittered_chain(stages, time, gamma, seed)
            res = network_loading(net, t)
            verify_conservation(net, res)
            assert sum(res.flows[0][:2]) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_potential_raises(self):
        net, t = jittered_chain(10, 1.0, 0.5, seed=0)
        _, _, choices = loading._sweep_weights(net, t, keep_choices=True)
        choice = choices[0]
        index = net.levels[0].index
        program = net.layout.plans[0]
        # a potential at s5 raised by 1 % of gamma would scale the choice at
        # s4, whose successor it is, by exp(-0.01): no longer normalised
        s4 = program.node_at.index(index.node_index["s4"])
        (exits,) = [exits for v, exits in slot_steps(program, 0) if v == s4]
        for _, _, c in exits:
            choice.probs[c] *= math.exp(-0.01)
        through = [0.0] * len(program.rho)
        through[program.at_origin[0]] = 1.0
        with pytest.raises(MassLeakError) as caught:
            loading._forward_dag(program, index, choice, through, [0.0] * len(t), 0)
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


def whole_level_longest_routes(index, weights, dst):
    """Reference longest routes to ``dst`` over every node of an acyclic level."""
    best = [-1] * index.n_nodes
    best[dst] = 0
    for v in reversed(index.topo):
        if v != dst:
            for e in index.out_edges[v]:
                if best[index.heads[e]] >= 0:
                    best[v] = max(best[v], weights[e] + best[index.heads[e]])
    return best


class TestLongestPathBound:
    def test_parallel(self):
        # routes of 1 edge each
        assert longest_path_bounds(two_edge_net())[0][0] == 1

    def test_diamond(self):
        assert longest_path_bounds(diamond_net())[0][0] == 2

    def test_chain_of_levels(self):
        # one plain edge at each of three levels
        assert longest_path_bounds(chain3_net())[0][0] == 3

    def test_two_level_fixture_vs_expansion(self, two_level_net):
        expanded = expand_paths(two_level_net, ODRef(0, 0))
        brute = max(p.total_plain_edges for p in expanded)
        assert longest_path_bounds(two_level_net)[0][0] == brute == 3
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
                    assert longest_path_bounds(net)[0][j] == brute

    @given(seed=st.integers(0, 299))
    @settings(max_examples=40, deadline=None)
    def test_subgraph_pass_matches_the_whole_level_walk(self, seed):
        net, _ = random_hierarchy(seed)
        bounds = longest_path_bounds(net)
        for k, level in enumerate(net.levels):
            index = level.index
            program = net.layout.plans[k]
            weights = [
                1 if edge.is_plain else bounds[k + 1][edge.target_od.od] for edge in level.edges
            ]
            sub = _longest_routes(program, weights)
            for slot, dst in enumerate(index.dests):
                whole = whole_level_longest_routes(index, weights, dst)
                first = program.at_dst[slot]
                inside = list(range(first, first + len(program.runs[slot]) + 1))
                assert [sub[p] for p in inside] == [whole[program.node_at[p]] for p in inside]
                for (src, _), od_slot, at in zip(index.od_nodes, index.dest_slot,
                                                 program.at_origin):
                    if od_slot == slot:
                        assert at in inside and program.node_at[at] == src
                        assert sub[at] == whole[src] >= 0
            # the one position outside every slot, for origins without a route
            assert program.node_at[0] == -1 and sub[0] == -1

    def test_monotone_under_edge_addition(self):
        base = diamond_net()
        level = base.levels[0]
        more = LevelGraph(
            nodes=level.nodes,
            edges=level.edges + (Edge("ab", "a", "b", cost=AffineCost(0.1, 0.1)),),
            od_pairs=level.od_pairs,
        )
        bigger = NetworkHierarchy([more], base.gammas)
        assert longest_path_bounds(bigger)[0][0] >= longest_path_bounds(base)[0][0]
        assert longest_path_bounds(bigger)[0][0] == 3

    def test_cyclic_level_is_unbounded(self):
        # Loading on a cyclic level sums over walks of every length, so no
        # walk length bounds its routes; the bound is inf at once, on the
        # level and through a portal into it.
        grid = grid3_level((ODPair("r0c0", "r2c2", 1.0),))
        flat = NetworkHierarchy([grid], [0.02])
        above = LevelGraph(
            nodes=("o", "d"),
            edges=(
                Edge("gate", "o", "d", target_od=ODRef(1, 0)),
                Edge("od", "o", "d", cost=AffineCost(1.0, 1.0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0),),
        )
        below = LevelGraph(grid.nodes, grid.edges, (ODPair("r0c0", "r2c2"),))
        stacked = NetworkHierarchy([above, below], [1.0, 0.02])
        assert validate_hierarchy(flat) == validate_hierarchy(stacked) == []
        start = time.perf_counter()
        assert longest_path_bounds(flat) == [[math.inf]]
        assert longest_path_bounds(stacked) == [[math.inf], [math.inf]]
        assert lipschitz_bound_diagnostic(flat) == math.inf
        assert lipschitz_bound_diagnostic(stacked) == math.inf
        assert time.perf_counter() - start < 1.0
