"""Invariance of the solver under a change of time unit and under relabelling.

Scaling every time-valued input (start times, the time parameters of the
costs, the gammas) by ``c`` and the curvature estimate ``L0`` by ``1/c``
must leave the flows and the iteration path unchanged and scale the
objectives by ``c``. For a power of two the scaling is exact in floating
point, so the comparison is exact too: any absolute tolerance or slack in
time units somewhere in the solver shows up as a different iterate.

Listing the nodes or the edges of a level in another order must leave the
loading and the certified solution unchanged up to rounding.
"""

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
    PowerCost,
    SolverConfig,
    network_loading,
    solve,
)

from conftest import hierarchies

SCALES = (2.0**-10, 1.0, 2.0**13)


def scaled_cost(cost, c: float):
    if isinstance(cost, ConstantCost):
        return ConstantCost(c * cost.t0)
    if isinstance(cost, AffineCost):
        return AffineCost(c * cost.a, c * cost.b)
    if isinstance(cost, PowerCost):
        return PowerCost(c * cost.t0, cost.beta, cost.cap, cost.mu)
    raise TypeError(type(cost).__name__)


def scaled_net(net: NetworkHierarchy, c: float) -> NetworkHierarchy:
    levels = [
        LevelGraph(
            nodes=level.nodes,
            edges=tuple(
                Edge(e.id, e.tail, e.head, cost=scaled_cost(e.cost, c)) if e.is_plain else e
                for e in level.edges
            ),
            od_pairs=level.od_pairs,
        )
        for level in net.levels
    ]
    return NetworkHierarchy(levels, [c * g for g in net.gammas])


def assert_scales_exactly(net, t0, gap_tol, max_iters, c):
    base = solve(net, SolverConfig(gap_tol=gap_tol, max_iters=max_iters), t0=t0)
    run = solve(
        scaled_net(net, c),
        SolverConfig(L0=1.0 / c, gap_tol=c * gap_tol, max_iters=max_iters),
        t0=[c * v for v in t0],
    )
    (t_base, cert_base, hist_base), (t_run, cert_run, hist_run) = base, run
    assert cert_run.T == cert_base.T
    assert cert_run.stop == cert_base.stop
    assert [r.n_func_evals for r in hist_run] == [r.n_func_evals for r in hist_base]
    assert [r.L_used for r in hist_run] == [r.L_used / c for r in hist_base]
    assert cert_run.avg_flows == cert_base.avg_flows
    assert t_run == [c * v for v in t_base]
    assert cert_run.dual_value == c * cert_base.dual_value
    assert cert_run.primal_value == c * cert_base.primal_value
    assert cert_run.gap == c * cert_base.gap
    assert [r.gap for r in hist_run] == [c * r.gap for r in hist_base]
    return cert_base


class TestUnitScale:
    @pytest.mark.parametrize("c", SCALES)
    def test_two_level_fixture(self, two_level_net, c):
        # Run to round-off, where an absolute tolerance would act first.
        cert = assert_scales_exactly(
            two_level_net, two_level_net.free_flow_times(), 0.0, 300, c
        )
        assert cert.stop == "roundoff"

    @pytest.mark.parametrize("c", SCALES)
    def test_bpr_corridor_reaches_the_gap(self, c):
        # Power costs only: the array Newton of their prox decides each step.
        from test_solver import bpr_corridor

        net = bpr_corridor()
        cert = assert_scales_exactly(net, net.free_flow_times(), 1e-9, 1000, c)
        assert cert.stop == "gap_reached"

    @given(case=hierarchies(), c=st.sampled_from(SCALES))
    @settings(max_examples=30, deadline=None)
    def test_random_hierarchies(self, case, c):
        net, t = case
        assert_scales_exactly(net, t, 1e-10, 200, c)


def relabelled(net: NetworkHierarchy, node_orders, edge_orders) -> NetworkHierarchy:
    levels = [
        LevelGraph(
            nodes=tuple(level.nodes[i] for i in nodes),
            edges=tuple(level.edges[i] for i in edges),
            od_pairs=level.od_pairs,
        )
        for level, nodes, edges in zip(net.levels, node_orders, edge_orders)
    ]
    return NetworkHierarchy(levels, net.gammas)


def by_edge_id(net: NetworkHierarchy, per_level) -> list[dict[str, float]]:
    return [
        {edge.id: value for edge, value in zip(level.edges, values)}
        for level, values in zip(net.levels, per_level)
    ]


def plain_times_by_id(net: NetworkHierarchy, t) -> list[dict[str, float]]:
    per_level: list[dict[str, float]] = [{} for _ in net.levels]
    for (k, edge), value in zip(net.plain_edges(), t):
        per_level[k][edge.id] = value
    return per_level


class TestRelabelling:
    @given(case=hierarchies(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_node_and_edge_order(self, case, data):
        net, t = case
        node_orders = [
            data.draw(st.permutations(range(len(level.nodes))), label=f"nodes {k}")
            for k, level in enumerate(net.levels)
        ]
        edge_orders = [
            data.draw(st.permutations(range(len(level.edges))), label=f"edges {k}")
            for k, level in enumerate(net.levels)
        ]
        other = relabelled(net, node_orders, edge_orders)
        t_other = other.dual_from_map(plain_times_by_id(net, t))

        # The same loading, up to the order of its sums.
        load, load_other = network_loading(net, t), network_loading(other, t_other)
        assert load_other.smooth_value == pytest.approx(load.smooth_value, rel=1e-12, abs=0)
        for k, (flows, flows_other) in enumerate(
            zip(by_edge_id(net, load.flows), by_edge_id(other, load_other.flows))
        ):
            for edge_id, f in flows.items():
                assert flows_other[edge_id] == pytest.approx(f, rel=1e-12, abs=1e-15), (
                    f"level {k + 1} edge {edge_id}"
                )

        # The same equilibrium: each certificate brackets the common optimum
        # of the dual, so the two dual values differ by at most both gaps.
        # The entropy term makes the primal strongly convex, so the averaged
        # flows lie within a multiple of the square root of the gap of the
        # equilibrium flows; some draws end at the iteration cap, unconverged.
        cfg = SolverConfig(gap_tol=1e-10, max_iters=300)
        _, cert, _ = solve(net, cfg, t0=t)
        _, cert_other, _ = solve(other, cfg, t0=t_other)
        gaps = max(cert.gap, 0.0) + max(cert_other.gap, 0.0)
        slack = 8 * math.ulp(abs(cert.dual_value)) + gaps
        assert abs(cert_other.dual_value - cert.dual_value) <= slack
        for flows, flows_other in zip(
            by_edge_id(net, cert.avg_flows), by_edge_id(other, cert_other.avg_flows)
        ):
            for edge_id, f in flows.items():
                assert flows_other[edge_id] == pytest.approx(f, abs=1e-12 + math.sqrt(gaps))
