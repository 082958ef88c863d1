"""Step recursion, prox maps, the accelerated loop, and gap certificates."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sueflow import (
    AffineCost,
    BacktrackBudgetError,
    ConstantCost,
    Edge,
    LevelGraph,
    LoadingError,
    NetworkHierarchy,
    ODPair,
    PowerCost,
    ODRef,
    SolverConfig,
    dual_objective,
    dual_smooth_value,
    lipschitz_bound_diagnostic,
    solve,
)
from sueflow.cli import parse_network
from sueflow.costs import CostTable
from sueflow.loading import (
    LoadResult,
    _layout,
    entropy_term,
    network_loading,
    surrogate_primal,
    verify_conservation,
)
from sueflow.solver import _DualSmooth, _stop_reason, alpha_step, minimize_composite
from sueflow import oracle
from sueflow import solver as solver_module

from conftest import (
    FIXTURES,
    chain3_net,
    grid3_level,
    hierarchies,
    parallel_net,
    plain_flows,
    random_hierarchy,
    two_edge_net,
)

X_STAR = 0.662584192828800  # root of ln(x/(1-x)) = 2 - 2x, frozen from bisection


class Quadratic:
    """Separable quadratic smooth part used to exercise the bare driver."""

    def __init__(self, diag, center):
        self.diag = diag
        self.center = center

    def value_and_grad(self, t):
        value = 0.5 * sum(d * (x - c) ** 2 for d, x, c in zip(self.diag, t, self.center))
        grad = [d * (x - c) for d, x, c in zip(self.diag, t, self.center)]
        return value, grad, None

    def value(self, t):
        return 0.5 * sum(d * (x - c) ** 2 for d, x, c in zip(self.diag, t, self.center))


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("L0", math.nan), ("L0", math.inf), ("L0", 0.0), ("gap_tol", math.nan),
         ("gap_tol", -1e-9), ("max_iters", 0), ("max_iters", 2.5), ("max_iters", 1e9),
         ("max_iters", 3.0), ("max_iters", True), ("max_iters", "5"), ("L0", "1"),
         ("L0", True), ("gap_tol", None), ("gap_tol", "0"), ("L0", 1e-310), ("L0", 5e-324)],
    )
    def test_bad_setting_raises_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


class TestAlphaStep:
    def test_from_zero(self):
        alpha, tau = alpha_step(0.0, 1.0, 1.0)
        assert alpha == pytest.approx(1.0, abs=1e-15)
        assert tau == pytest.approx(1.0, abs=1e-15)

    def test_golden_ratio_case(self):
        alpha, tau = alpha_step(1.0, 1.0, 1.0)
        assert alpha == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)
        # recursion invariant: alpha'^2 L' - alpha' = alpha^2 L
        assert alpha * alpha - alpha == pytest.approx(1.0, abs=1e-13)

    def test_doubled_estimate(self):
        alpha, tau = alpha_step(1.0, 1.0, 2.0)
        assert alpha == pytest.approx(1.0, abs=1e-15)
        assert tau == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("L", [2.0**-996, 2.0**996])
    def test_estimates_near_the_float_range_ends(self, L):
        # No L is squared: under a power-of-two change of unit the step
        # weight scales exactly as 1 / L, and tau does not move.
        alpha, tau = alpha_step(0.0, L, L)
        assert (alpha * L, tau) == (1.0, 1.0)
        alpha, tau = alpha_step(alpha, L, 2.0 * L)
        assert (alpha * L, tau) == (1.0, 0.5)
        assert alpha_step(1.0 / L, L, L)[1] == alpha_step(1.0, 1.0, 1.0)[1]

    @pytest.mark.parametrize("L", [8.99e307, 1e308, sys.float_info.max])
    def test_estimates_past_half_the_largest_float(self, L):
        # 2 L overflows here; the weight is taken as root / 2 / L.
        alpha, tau = alpha_step(0.0, L, L)
        assert alpha > 0.0 and 0.0 < tau <= 1.0

    @pytest.mark.parametrize("alpha_k", [0.0, 0.3, 2.0, 50.0])
    @pytest.mark.parametrize("L_k", [0.5, 1.0, 8.0])
    @pytest.mark.parametrize("L_next", [0.25, 1.0, 16.0])
    def test_mixing_weight_always_valid(self, alpha_k, L_k, L_next):
        alpha, tau = alpha_step(alpha_k, L_k, L_next)
        assert alpha * L_next >= 1.0 - 1e-12
        assert 0.0 < tau <= 1.0 + 1e-12
        lhs = alpha * alpha * L_next - alpha
        assert lhs == pytest.approx(alpha_k * alpha_k * L_k, rel=1e-12, abs=1e-12)


def grad_map(net, x, L, grad, fx):
    """The proximal trial step of ``minimize_composite`` on the network dual:
    the trial point, its smooth value and whether the descent test holds."""
    table = CostTable(net.plain_costs())
    x, grad = np.array(x, dtype=float), np.array(grad, dtype=float)
    y = table.prox(x - grad / L, 1.0 / L)
    fy = dual_smooth_value(net, y.tolist())
    d = y - x
    accepted = fy <= fx + grad @ d + 0.5 * L * (d @ d) + 1e-12 * (1.0 + abs(fx))
    return y.tolist(), fy, accepted


def mirror_map(net, z, grad, alpha):
    """The mirror step of ``minimize_composite``: prox of ``z - alpha*grad``."""
    table = CostTable(net.plain_costs())
    v = np.array(z, dtype=float) - alpha * np.array(grad, dtype=float)
    return table.prox(v, alpha).tolist()


class TestProxMaps:
    def test_grad_map_fixed_point_at_zero_gradient(self):
        net = two_edge_net()
        x = [0.7, 1.5]  # inside the flat conjugate region
        y, fy, accepted = grad_map(net, x, 1.0, [0.0, 0.0], 0.0)
        assert y == x

    def test_grad_map_single_affine_edge(self):
        net = parallel_net([AffineCost(1.0, 1.0)])
        fx = -3.0  # value plays no role in the step itself
        y, fy, accepted = grad_map(net, [3.0], 1.0, [1.0], fx)
        assert y[0] == pytest.approx(1.5, abs=1e-14)

    def test_grad_map_accepts_for_huge_L(self):
        net = two_edge_net()
        from sueflow.loading import network_loading

        x = [1.3, 2.2]
        res = network_loading(net, x)
        grad = [-f for f in plain_flows(net, res)]
        y, fy, accepted = grad_map(net, x, 1e8, grad, res.smooth_value)
        assert accepted

    def test_mirror_map_identity_at_zero_gradient(self):
        net = two_edge_net()
        z = [0.9, 1.9]
        assert mirror_map(net, z, [0.0, 0.0], 1.0) == z

    def test_mirror_map_single_affine_edge(self):
        net = parallel_net([AffineCost(1.0, 1.0)])
        assert mirror_map(net, [3.0], [0.0], 1.0)[0] == pytest.approx(2.0, abs=1e-14)

    def test_mirror_map_vanishing_step(self):
        net = two_edge_net()
        z = [1.7, 2.9]
        out = mirror_map(net, z, [0.4, -0.2], 1e-12)
        assert out[0] == pytest.approx(z[0], abs=1e-9)
        assert out[1] == pytest.approx(z[1], abs=1e-9)


class TestSolve:
    def test_two_edge_equilibrium(self):
        net = two_edge_net()
        t, cert, history = solve(net, SolverConfig(gap_tol=1e-10, max_iters=50_000))
        flows = cert.avg_flows[0]
        assert flows[0] == pytest.approx(X_STAR, abs=1e-5)
        assert flows[1] == pytest.approx(1.0 - X_STAR, abs=1e-5)
        assert t[0] == pytest.approx(1.0 + X_STAR, abs=1e-5)
        assert t[1] == pytest.approx(3.0 - X_STAR, abs=1e-5)
        assert cert.gap <= 1e-10
        assert cert.gap >= -1e-9

    def test_symmetric_split_is_exact(self):
        net = parallel_net([AffineCost(1.0, 1.0), AffineCost(1.0, 1.0)], demand=3.0)
        t, cert, history = solve(net, SolverConfig(gap_tol=1e-9))
        f1, f2 = cert.avg_flows[0]
        assert f1 == f2  # bitwise symmetry
        assert f1 == pytest.approx(1.5, abs=1e-12)
        assert t[0] == t[1]

    def test_two_level_matches_fixed_point(self, two_level_net):
        flows_star, _ = oracle.fixed_point_small(two_level_net, tol=1e-11)
        t, cert, history = solve(two_level_net, SolverConfig(gap_tol=1e-9, max_iters=50_000))
        for k, level in enumerate(two_level_net.levels):
            for pos, edge in enumerate(level.edges):
                assert cert.avg_flows[k][pos] == pytest.approx(
                    flows_star[k][edge.id], abs=1e-4
                )

    def test_history_invariants(self, two_level_net):
        _, _, history = solve(two_level_net, SolverConfig(gap_tol=0.0, max_iters=300))
        prev_A = 0.0
        alpha_sum = 0.0
        L_max = max(r.L_used for r in history)
        for r in history:
            # step recursion ties the new weight to the accumulated sum
            resid = abs(r.alpha**2 * r.L_used - r.alpha - prev_A)
            assert resid <= 1e-12 * (1.0 + prev_A)
            tau = 1.0 / (r.alpha * r.L_used)
            assert 0.0 < tau <= 1.0 + 1e-12
            alpha_sum += r.alpha
            assert abs(alpha_sum / r.A - 1.0) <= 1e-12
            assert r.A >= r.iter**2 / (8.0 * L_max) - 1e-9
            assert r.gap is not None and r.gap >= -1e-9
            prev_A = r.A
        iters = [r.iter for r in history]
        assert iters == list(range(1, len(history) + 1))

    def test_oracle_count_bound(self, two_level_net):
        cfg = SolverConfig(L0=1.0, gap_tol=0.0, max_iters=300)
        _, _, history = solve(two_level_net, cfg)
        L_obs = max(r.L_used for r in history)
        for r in history:
            bound = 4 * r.iter + 2 * math.log2(max(L_obs, cfg.L0) / cfg.L0) + 4
            assert r.n_func_evals <= bound

    def test_gap_is_monotone_enough_to_stop(self):
        net = two_edge_net()
        _, cert, history = solve(net, SolverConfig(gap_tol=1e-6))
        assert cert.gap <= 1e-6
        assert history[-1].gap == cert.gap

    def test_max_iters_respected(self):
        net = two_edge_net()
        _, cert, history = solve(net, SolverConfig(gap_tol=0.0, max_iters=7))
        assert len(history) == 7
        assert cert.T == 7

    def test_backtrack_budget_error(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_MAX_BACKTRACKS", 0)
        net = two_edge_net()
        cfg = SolverConfig(L0=1e-9, max_iters=10)
        with pytest.raises(BacktrackBudgetError):
            solve(net, cfg)

    def test_custom_start_point(self):
        net = two_edge_net()
        _, cert, _ = solve(net, SolverConfig(gap_tol=1e-9), t0=[1.4, 2.1])
        assert cert.avg_flows[0][0] == pytest.approx(X_STAR, abs=1e-4)

    def test_certificate_dual_value_is_dual_objective(self, two_level_net):
        from sueflow import dual_objective

        t, cert, _ = solve(two_level_net, SolverConfig(gap_tol=1e-6))
        assert cert.dual_value == pytest.approx(dual_objective(two_level_net, t), abs=1e-12)
        recheck = dual_objective(two_level_net, t) + surrogate_primal(
            two_level_net, cert.avg_flows, cert.avg_entropy
        )
        assert recheck == pytest.approx(cert.gap, abs=1e-12)

    # Seeds 23 and 57 recomputed another dual_value, and 2 and 123 (whose
    # average certifies) another primal_value, when the two functions summed
    # edge by edge.
    @pytest.mark.parametrize("case", [23, 57, 2, 123, "cyclic_grid.json"])
    def test_certificate_recomputes_to_the_bit(self, case):
        if isinstance(case, int):
            net, t = random_hierarchy(case)
        else:
            net = parse_network(FIXTURES / case)
            t = None
        t_final, cert, _ = solve(net, SolverConfig(gap_tol=1e-10, max_iters=100), t)
        assert dual_objective(net, t_final) == cert.dual_value
        assert surrogate_primal(net, cert.avg_flows, cert.avg_entropy) == cert.primal_value


def bpr_corridor(stages=4, links=5):
    """One OD through ``stages`` stages of parallel BPR links."""
    nodes = tuple(f"n{i}" for i in range(stages + 1))
    edges = tuple(
        Edge(f"s{i}l{j}", nodes[i], nodes[i + 1],
             cost=PowerCost(1.0 + 0.1 * j, 0.15, 1.0 + 0.2 * ((i + j) % 3), 4.0))
        for i in range(stages) for j in range(links)
    )
    level = LevelGraph(nodes=nodes, edges=edges, od_pairs=(ODPair(nodes[0], nodes[-1], 3.0),))
    return NetworkHierarchy([level], [0.5])


class TestVectorisedStep:
    def test_solve_never_calls_the_per_edge_prox(self, two_level_net, monkeypatch):
        # two_level.json has constant, affine and power edges.
        def refuse(self, v, step):
            raise AssertionError(f"per-edge prox called on {self!r}")

        for cls in (ConstantCost, AffineCost, PowerCost):
            monkeypatch.setattr(cls, "prox_conjugate", refuse)
        assert {type(c) for c in two_level_net.plain_costs()} == {
            ConstantCost, AffineCost, PowerCost
        }
        _, cert, _ = solve(two_level_net, SolverConfig(gap_tol=1e-6))
        assert 0.0 <= cert.gap <= 1e-6

    def test_objectives_never_call_the_per_edge_conjugate_or_integral(
        self, two_level_net, monkeypatch
    ):
        # Only the oracle and the table's tests use the scalar forms.
        def refuse(self, value):
            raise AssertionError(f"per-edge method called on {self!r}")

        for cls in (ConstantCost, AffineCost, PowerCost):
            monkeypatch.setattr(cls, "conjugate", refuse)
            monkeypatch.setattr(cls, "integral", refuse)
        t, cert, _ = solve(two_level_net, SolverConfig(gap_tol=1e-6))
        assert dual_objective(two_level_net, t) == cert.dual_value
        assert surrogate_primal(
            two_level_net, cert.avg_flows, cert.avg_entropy
        ) == cert.primal_value

    def test_bpr_corridor_reruns_are_identical(self):
        net = bpr_corridor()
        runs = []
        for _ in range(2):
            t, cert, history = solve(net, SolverConfig(gap_tol=1e-6))
            runs.append(repr((t, cert, [(r.iter, r.L_used, r.n_func_evals, r.dual_value,
                                         r.gap, r.alpha, r.A) for r in history])))
        assert runs[0] == runs[1]
        assert "np." not in runs[0]  # plain floats and lists, no numpy scalars

    def test_bpr_corridor_certificate(self):
        net = bpr_corridor()
        t, cert, _ = solve(net, SolverConfig(gap_tol=1e-6))
        assert 0.0 <= cert.gap <= 1e-6
        from sueflow import dual_objective

        assert cert.dual_value == pytest.approx(dual_objective(net, t), rel=1e-12)


def assert_gradient_is_minus_plain_flows(net, t):
    """The oracle's gradient, gathered through the compiled plain-edge
    index, holds the very floats of minus the edge-by-edge plain flows."""
    _, grad, result = _DualSmooth(net, _layout(net).plain_at).value_and_grad(np.array(t))
    reference = -np.array(plain_flows(net, result), dtype=np.float64)
    assert grad.dtype == np.float64
    assert grad.tobytes() == reference.tobytes()


class TestGradientGather:
    @given(case=hierarchies())
    @settings(max_examples=100, deadline=None)
    def test_hierarchies(self, case):
        net, t = case
        assert_gradient_is_minus_plain_flows(net, t)

    def test_cyclic_level_below_portals(self):
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
        net = NetworkHierarchy([level1, level2], [1.0, 0.3])
        t = [(1 + 0.05 * math.sin(i)) * c.free_flow_time for i, c in enumerate(net.plain_costs())]
        assert_gradient_is_minus_plain_flows(net, t)


class TestDualityGap:
    def test_zero_at_equilibrium(self, two_level_net):
        flows_map, times = oracle.fixed_point_small(two_level_net, tol=1e-12)
        ref_flows, tables = oracle.loading_by_enumeration(two_level_net, times)
        flows = [
            [ref_flows[k][e.id] for e in level.edges]
            for k, level in enumerate(two_level_net.levels)
        ]
        gap = dual_objective(two_level_net, times) + oracle.primal_objective(
            two_level_net, tables, flows
        )
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_positive_away_from_equilibrium(self):
        net = two_edge_net()
        t = net.free_flow_times()
        ref_flows, tables = oracle.loading_by_enumeration(net, t)
        flows = [[ref_flows[0]["e1"], ref_flows[0]["e2"]]]
        gap = dual_objective(net, t) + oracle.primal_objective(net, tables, flows)
        assert gap > 1e-3

    def test_pathfree_matches_path_based(self):
        net = two_edge_net()
        t = [1.2, 2.3]
        res = network_loading(net, t)
        ref_flows, tables = oracle.loading_by_enumeration(net, t)
        from sueflow.loading import entropy_term

        by_paths = dual_objective(net, t) + oracle.primal_objective(net, tables, res.flows)
        pathfree = dual_objective(net, t) + surrogate_primal(net, res.flows, entropy_term(net, res))
        assert by_paths == pytest.approx(pathfree, abs=1e-10)

    def test_pathfree_primal_upper_bounds_path_primal_for_averages(self):
        # averaging route tables and averaging entropies differ once more
        # than one iterate is mixed; the path-free form must stay above the
        # exact primal at the averaged pair so the gap remains certified
        net = two_edge_net()
        from sueflow.loading import entropy_term

        weight = 0.0
        flow_sums = [0.0, 0.0]
        entropy_sum = 0.0
        table_sums = {("e1",): 0.0, ("e2",): 0.0}

        def on_accept(info):
            nonlocal weight, entropy_sum
            weight += info.alpha
            for pos, f in enumerate(info.aux.flows[0]):
                flow_sums[pos] += info.alpha * f
            entropy_sum += info.alpha * entropy_term(net, info.aux)
            dist = oracle.logit_path_distribution(net, info.x, ODRef(0, 0), 1.0)
            for route, x in dist.items():
                table_sums[route] += info.alpha * x
            return None

        minimize_composite(
            _DualSmooth(net, _layout(net).plain_at), CostTable(net.plain_costs()),
            net.free_flow_times(),
            SolverConfig(max_iters=40, gap_tol=0.0), on_accept,
        )
        avg_flows = [[f / weight for f in flow_sums]]
        avg_tables = {(0, 0): {r: x / weight for r, x in table_sums.items()}}
        exact = oracle.primal_objective(net, avg_tables, avg_flows)
        pathfree = surrogate_primal(net, avg_flows, entropy_sum / weight)
        assert pathfree >= exact - 1e-12
        # and both certify: adding the dual value keeps the gap nonnegative
        t_probe = [1.0 + avg_flows[0][0], 2.0 + avg_flows[0][1]]
        by_paths = dual_objective(net, t_probe) + oracle.primal_objective(
            net, avg_tables, avg_flows
        )
        pathless = dual_objective(net, t_probe) + surrogate_primal(
            net, avg_flows, entropy_sum / weight
        )
        assert pathless >= by_paths >= -1e-9


class TestLipschitzDiagnostic:
    def test_two_edge(self):
        assert lipschitz_bound_diagnostic(two_edge_net()) == pytest.approx(1.0)

    def test_hand_formula(self):
        # demand 2 over routes of <= 3 plain edges, smallest temperature 0.5
        from sueflow import LevelGraph, NetworkHierarchy, ODPair

        net = chain3_net()
        first = LevelGraph(
            nodes=net.levels[0].nodes,
            edges=net.levels[0].edges,
            od_pairs=(ODPair("o", "d", 2.0),),
        )
        scaled = NetworkHierarchy([first, net.levels[1], net.levels[2]], [1.0, 0.5, 1.0])
        assert lipschitz_bound_diagnostic(scaled) == pytest.approx(36.0)

    def test_two_level_fixture(self, two_level_net):
        # demand 2, longest expanded route 3 edges, min gamma 0.8
        assert lipschitz_bound_diagnostic(two_level_net) == pytest.approx(22.5)

    def test_measures_each_od_once(self, monkeypatch):
        # Three level-1 ODs over two portals into a level with two ODs, all
        # bound for w; level 1 has destinations d and m.
        from collections import Counter

        from sueflow import loading
        from sueflow import ConstantCost, Edge, LevelGraph, NetworkHierarchy, ODPair

        level1 = LevelGraph(
            nodes=("o", "m", "d"),
            edges=(
                Edge("g1", "o", "m", target_od=ODRef(1, 0)),
                Edge("g2", "m", "d", target_od=ODRef(1, 1)),
                Edge("od", "o", "d", cost=ConstantCost(2.0)),
            ),
            od_pairs=(ODPair("o", "d", 1.0), ODPair("o", "m", 2.0), ODPair("m", "d", 0.5)),
        )
        level2 = LevelGraph(
            nodes=("u", "v", "w"),
            edges=(
                Edge("uv", "u", "v", cost=ConstantCost(0.4)),
                Edge("vw", "v", "w", cost=ConstantCost(0.5)),
                Edge("uw", "u", "w", cost=ConstantCost(1.0)),
            ),
            od_pairs=(ODPair("u", "w"), ODPair("v", "w")),
        )
        net = NetworkHierarchy([level1, level2], [1.0, 0.5])
        calls = Counter()
        measure = loading._longest_routes

        def counted(plan, weights):
            # one pass per level, over the slots of all its destinations
            for at in plan.at_dst:
                calls[id(plan), plan.node_at[at]] += 1
            return measure(plan, weights)

        monkeypatch.setattr(loading, "_longest_routes", counted)
        # Routes of 3, 2 and 1 plain edges: (1 * 9 + 2 * 4 + 0.5 * 1) / 0.5.
        assert lipschitz_bound_diagnostic(net) == pytest.approx(35.0)
        expected = {
            (id(net.layout.plans[k]), level.index.node_index[v])
            for k, level, v in ((0, level1, "d"), (0, level1, "m"), (1, level2, "w"))
        }
        assert set(calls) == expected
        assert set(calls.values()) == {1}


class TestDriver:
    def test_quadratic_reaches_minimiser(self):
        diag = [1.0, 2.0, 4.0]
        center = [2.0, -1.0, 0.5]
        costs = [AffineCost(0.5, 1.0), AffineCost(0.5, 1.0), AffineCost(0.5, 1.0)]
        prob = Quadratic(diag, center)
        t, history = minimize_composite(
            prob, CostTable(costs), [0.0, 0.0, 0.0], SolverConfig(max_iters=300, gap_tol=0.0)
        )
        for d, c, a, ti in zip(diag, center, (0.5, 0.5, 0.5), t):
            expected = c if c <= a else (c * 1.0 + (1.0 / d) * a) / (1.0 + 1.0 / d)
            assert ti == pytest.approx(expected, abs=1e-9)

    def test_history_without_certificates(self):
        prob = Quadratic([1.0], [1.0])
        _, history = minimize_composite(
            prob, CostTable([AffineCost(0.2, 1.0)]), [0.0], SolverConfig(max_iters=5, gap_tol=0.0)
        )
        assert all(r.gap is None for r in history)


class TestFreeFlowFloor:
    """From free-flow times every iterate stays at or above them. Both prox
    maps take an argument at or above free flow to a point at or above it,
    and each argument is an iterate plus a nonnegative multiple of the
    loaded flows. Larger times only shrink a walk sum, so a cyclic level
    whose walk sums converge at free flow never diverges later in a solve."""

    @staticmethod
    def ring(gamma):
        # Two-way ring of six nodes, affine and BPR links of free-flow time 1.
        # Toward a destination the other five nodes form a path, whose walk
        # sum converges while 2 cos(pi / 6) exp(-t / gamma) < 1.
        n = 6
        arcs = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
        edges = tuple(
            Edge(f"e{i}-{j}", f"v{i}", f"v{j}",
                 cost=AffineCost(1.0, 0.5) if k % 2 else PowerCost(1.0, 0.15, 2.0, 4.0))
            for k, (i, j) in enumerate(arcs)
        )
        ods = (ODPair("v0", "v3", 2.0), ODPair("v1", "v4", 1.0))
        level = LevelGraph(tuple(f"v{i}" for i in range(n)), edges, ods)
        return NetworkHierarchy([level], [gamma])

    def test_iterates_stay_at_or_above_free_flow_on_a_cyclic_ring(self):
        net = self.ring(1.7)
        free = np.array(net.free_flow_times())
        # The margin is thin: 10 % below free flow the walk sums diverge.
        with pytest.raises(LoadingError, match="diverges at level 1"):
            network_loading(net, 0.9 * free)
        points = []

        def on_accept(info):
            assert np.all(info.x >= free), info.x - free
            assert all(f >= 0.0 for f in info.aux.flows[0])
            points.append(info.x)
            return None

        t, history = minimize_composite(
            _DualSmooth(net, _layout(net).plain_at), CostTable(net.plain_costs()),
            net.free_flow_times(), SolverConfig(max_iters=60, gap_tol=0.0), on_accept,
        )
        assert len(points) == len(history) == 60
        assert np.all(t >= free) and np.any(t > free)
        _, cert, _ = solve(net)
        assert cert.stop == "gap_reached"


class TestStepEstimate:
    """``L0`` is only the first estimate: the estimate follows the measured
    curvature down, and the run stops once the gap is round-off."""

    def test_default_config_solves_two_level_fixture_quickly(self, two_level_net):
        # With L0 as a floor this took 8156 iterations.
        _, cert, history = solve(two_level_net)
        assert cert.stop == "gap_reached"
        assert cert.gap <= SolverConfig().gap_tol
        assert cert.T < 100

    def test_estimate_falls_below_L0(self):
        curvature = 1e-3
        prob = Quadratic([curvature] * 3, [2.0, -1.0, 0.5])
        costs = CostTable([AffineCost(0.5, 1.0)] * 3)
        t, history = minimize_composite(
            prob, costs, [0.0, 0.0, 0.0], SolverConfig(L0=1.0, max_iters=200, gap_tol=0.0)
        )
        assert history[0].L_used == 1.0
        assert min(r.L_used for r in history) < curvature
        # At most one halving per iteration.
        for prev, rec in zip(history, history[1:]):
            assert rec.L_used >= 0.5 * prev.L_used
        for c, ti in zip([2.0, -1.0, 0.5], t):
            # Minimiser of d/2 (t - c)^2 + (t - 0.5)_+^2 / 2.
            expected = c if c <= 0.5 else (curvature * c + 0.5) / (curvature + 1.0)
            assert ti == pytest.approx(expected, abs=1e-6)

    def test_small_L0_costs_few_oracle_calls(self, two_level_net):
        # A rejected trial jumps to the curvature it measured; doubling from
        # 1e-6 took 58 calls.
        _, cert, history = solve(two_level_net, SolverConfig(L0=1e-6, gap_tol=1e-9))
        assert cert.stop == "gap_reached"
        assert history[-1].n_func_evals <= 30

    @given(case=hierarchies(), L0=st.sampled_from([1e-6, 1.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_oracle_and_estimate_bounds(self, case, L0):
        net, t = case
        _, _, history = solve(net, SolverConfig(L0=L0, gap_tol=1e-10, max_iters=100), t)
        L_max = max(r.L_used for r in history)
        # Each rejection at least doubles L, each iteration halves it at most once.
        assert history[-1].n_func_evals <= 4 * len(history) + 2 * math.log2(L_max / L0) + 2
        # An accepted L lies below twice the smooth part's curvature, or at L0.
        assert L_max <= max(L0, 2.0 * lipschitz_bound_diagnostic(net))

    def test_stops_at_roundoff(self, two_level_net):
        _, cert, history = solve(two_level_net, SolverConfig(gap_tol=0.0, max_iters=1000))
        assert cert.stop == "roundoff"
        assert cert.T < 1000
        assert history[-1].gap == cert.gap
        assert cert.gap >= 0.0
        scale = abs(cert.dual_value) + abs(cert.primal_value)
        assert cert.gap <= 8 * np.finfo(float).eps * scale

    def test_iteration_cap(self):
        _, cert, _ = solve(two_edge_net(), SolverConfig(gap_tol=0.0, max_iters=3))
        assert (cert.T, cert.stop) == (3, "iteration_cap")

    @pytest.mark.parametrize("c", [2.0**-30, 1.0, 2.0**30])
    def test_stop_reason_is_relative(self, c):
        eps = np.finfo(float).eps
        # Dual -1, primal 1 + gap: round-off below 16 eps, in any unit.
        assert _stop_reason(None, -c, 0.0) is None
        assert _stop_reason(c * 1e-8, -c, c * 1e-8) == "gap_reached"
        assert _stop_reason(c * 1e-8, -c, 0.0) is None
        assert _stop_reason(c * 4 * eps, -c, 0.0) == "roundoff"
        # A gap below zero is within any tolerance, as the exit code has it.
        assert _stop_reason(-c * eps, -c, 0.0) == "gap_reached"
        assert _stop_reason(c * 64 * eps, -c, 0.0) is None
        # A gap that is not finite certifies nothing, though inf <= 8 eps
        # (|dual| + inf).
        assert _stop_reason(math.inf, -c, c * 1e-8) is None
        assert _stop_reason(math.nan, -c, c * 1e-8) is None


class TestBestPointCertificate:
    """The certificate pairs the dual value with the smaller primal value of
    the running average and the best single loading seen."""

    # Draws whose averaged certificate fell only like 1/A_k: each took more
    # than 400 iterations to reach gap 1e-10 when the average alone certified.
    @pytest.mark.parametrize("seed", [27, 43, 100, 103, 107, 148, 157, 166, 168])
    def test_slow_draws_reach_the_gap(self, seed):
        net, t = random_hierarchy(seed)
        _, cert, _ = solve(net, SolverConfig(gap_tol=1e-10, max_iters=50), t)
        assert cert.stop == "gap_reached"
        assert cert.primal_point == "loading"

    @given(seed=st.integers(0, 299))
    @example(seed=4)  # its two primal formulas once differed by 1.5x the slack
    @settings(max_examples=30, deadline=None)
    def test_certificate_is_a_valid_primal_point(self, seed):
        net, t = random_hierarchy(seed)
        cfg = SolverConfig(gap_tol=1e-10, max_iters=100)
        _, cert, history = solve(net, cfg, t)
        assert cert.primal_point in ("average", "loading")
        scale = abs(cert.dual_value) + abs(cert.primal_value)
        assert cert.primal_value == pytest.approx(
            surrogate_primal(net, cert.avg_flows, cert.avg_entropy), rel=1e-13, abs=1e-13
        )
        assert cert.gap == cert.dual_value + cert.primal_value
        assert cert.gap >= -8 * np.finfo(float).eps * scale
        demands = [[od.demand for od in net.levels[0].od_pairs]]
        for k in range(net.num_levels - 1):
            demands.append([cert.avg_flows[k][pos] for pos in _layout(net).portals[k]])
        reported = LoadResult(
            smooth_value=0.0, flows=cert.avg_flows, induced_demands=demands, entropies=[]
        )
        verify_conservation(net, reported)

        average, loadings, replay = replay_candidates(net, t, cert.T)
        assert [r.dual_value for r in replay] == [r.dual_value for r in history]
        slack = 8 * np.finfo(float).eps * scale
        assert cert.primal_value <= average + slack
        assert cert.primal_value <= min(loadings) + slack

    @pytest.mark.xfail(strict=True, reason=(
        "the primal value cancels its integral and entropy parts, so its round-off "
        "scales with them, not with |dual| + |primal|"
    ))
    def test_a_cancelling_primal_value_keeps_the_gap_bound(self):
        # The level-2 trip starts at its destination. The gap reads -2.08e-17
        # at T 1, with dual 2.93e-3 and primal -2.93e-3: below the bound
        # -8 eps (|dual| + |primal|) = -1.04e-17 that the test above holds
        # its seeds to.
        top = LevelGraph(("o", "d"), (
            Edge("p", "o", "d", cost=PowerCost(1.0, 0.1015625, 1.0, 4.0)),
            Edge("c", "o", "d", cost=ConstantCost(1.0)),
            Edge("g", "o", "d", target_od=ODRef(1, 0)),
        ), (ODPair("o", "d", 1.0),))
        below = LevelGraph(("u", "v"), (Edge("q", "u", "v", cost=ConstantCost(1.0)),),
                           (ODPair("u", "u"),))
        net = NetworkHierarchy([top, below], [0.203125, 1.0])
        _, cert, _ = solve(net, SolverConfig(gap_tol=1e-10, max_iters=100), [1.0, 1.0, 1.0])
        scale = abs(cert.dual_value) + abs(cert.primal_value)
        assert cert.gap >= -8 * np.finfo(float).eps * scale

    def test_step_weights_past_the_float_range_certify_nothing(self, two_level_net):
        # p2's cap of 1e-199 puts each loading's cost integral at +inf, and
        # two step weights of 1e308 sum past the float range, as on the way
        # to an overflowing step. Both candidates read +inf, the average
        # certifies as on a tie, and no numpy warning is raised.
        top, below = two_level_net.levels
        edges = tuple(
            dataclasses.replace(e, cost=PowerCost(1.0, 0.15, 1e-199, 4.0)) if e.id == "p2" else e
            for e in top.edges
        )
        net = NetworkHierarchy([LevelGraph(top.nodes, edges, top.od_pairs), below],
                               two_level_net.gammas)
        result = network_loading(net, net.free_flow_times())
        flows = np.concatenate(result.flows)
        candidates = solver_module._PrimalCandidates(
            net, CostTable(net.plain_costs()), _layout(net)
        )
        assert candidates.add(1e308, result, flows) == math.inf
        assert candidates.add(1e308, result, flows) == math.inf
        kind, value, _, _ = candidates.point()
        assert (kind, value) == ("average", math.inf)

    def test_average_certifies_when_lower(self):
        # Two iterations in, this draw's average lies 0.5 % below both loadings.
        net, t = random_hierarchy(166)
        _, cert, _ = solve(net, SolverConfig(gap_tol=0.0, max_iters=2), t)
        average, loadings, _ = replay_candidates(net, t, 2)
        assert cert.primal_point == "average"
        assert cert.primal_value == pytest.approx(average, rel=1e-13)
        assert average < min(loadings) - 1e-3 * abs(average)


def replay_candidates(net, t, iters):
    """Primal value of the reference running average and of each loading over
    the first ``iters`` iterations of a solve from ``t``, and the history.

    The acceptance hook's return value only decides when to stop, so these
    are the iterates ``solve`` made.
    """
    weight = 0.0
    flow_sums = [[0.0] * len(level.edges) for level in net.levels]
    entropy_sum = 0.0
    loadings = []

    def on_accept(info):
        nonlocal weight, entropy_sum
        weight += info.alpha
        for sums, flows in zip(flow_sums, info.aux.flows):
            for pos, f in enumerate(flows):
                sums[pos] += info.alpha * f
        entropy = entropy_term(net, info.aux)
        entropy_sum += info.alpha * entropy
        loadings.append(surrogate_primal(net, info.aux.flows, entropy))
        return None

    _, history = minimize_composite(
        _DualSmooth(net, _layout(net).plain_at), CostTable(net.plain_costs()), t,
        SolverConfig(gap_tol=0.0, max_iters=iters), on_accept,
    )
    average = surrogate_primal(
        net, [[f / weight for f in sums] for sums in flow_sums], entropy_sum / weight
    )
    return average, loadings, history
