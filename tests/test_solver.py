"""Step recursion, prox maps, the accelerated loop, and gap certificates."""

from __future__ import annotations

import math

import pytest

from sueflow import (
    AffineCost,
    BacktrackBudgetError,
    ODRef,
    SolverConfig,
    alpha_step,
    duality_gap,
    dual_smooth_value,
    lipschitz_bound_diagnostic,
    solve,
)
from sueflow.loading import network_loading
from sueflow.solver import _grad_trial, _prox_all, minimize_composite
from sueflow import oracle

from conftest import chain3_net, parallel_net, two_edge_net

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
    """The proximal trial step of ``minimize_composite`` on the network dual."""
    return _grad_trial(lambda y: dual_smooth_value(net, y), net.plain_costs(), x, L, grad, fx)


def mirror_map(net, z, grad, alpha):
    """The mirror step of ``minimize_composite``: prox of ``z - alpha*grad``."""
    return _prox_all(net.plain_costs(), [zi - alpha * gi for zi, gi in zip(z, grad)], alpha)


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
        grad = [-f for f in res.plain_flows(net)]
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

    def test_backtrack_budget_error(self):
        net = two_edge_net()
        cfg = SolverConfig(L0=1e-9, max_backtracks_per_iter=0, max_iters=10)
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
        recheck = duality_gap(
            two_level_net, cert.avg_flows, t, T=cert.T, avg_entropy=cert.avg_entropy
        )
        assert recheck.gap == pytest.approx(cert.gap, abs=1e-12)


class TestDualityGap:
    def test_zero_at_equilibrium(self, two_level_net):
        flows_map, times = oracle.fixed_point_small(two_level_net, tol=1e-12)
        ref_flows, tables = oracle.loading_by_enumeration(two_level_net, times)
        flows = [
            [ref_flows[k][e.id] for e in level.edges]
            for k, level in enumerate(two_level_net.levels)
        ]
        cert = duality_gap(two_level_net, flows, times, T=1, avg_paths=tables)
        assert cert.gap == pytest.approx(0.0, abs=1e-9)

    def test_positive_away_from_equilibrium(self):
        net = two_edge_net()
        t = net.free_flow_times()
        ref_flows, tables = oracle.loading_by_enumeration(net, t)
        flows = [[ref_flows[0]["e1"], ref_flows[0]["e2"]]]
        cert = duality_gap(net, flows, t, T=1, avg_paths=tables)
        assert cert.gap > 1e-3

    def test_pathfree_matches_path_based(self):
        net = two_edge_net()
        t = [1.2, 2.3]
        res = network_loading(net, t)
        ref_flows, tables = oracle.loading_by_enumeration(net, t)
        from sueflow.loading import entropy_term

        by_paths = duality_gap(net, res.flows, t, T=1, avg_paths=tables)
        pathfree = duality_gap(net, res.flows, t, T=1, avg_entropy=entropy_term(net, res))
        assert by_paths.gap == pytest.approx(pathfree.gap, abs=1e-10)

    def test_pathfree_primal_upper_bounds_path_primal_for_averages(self):
        # averaging route tables and averaging entropies differ once more
        # than one iterate is mixed; the path-free form must stay above the
        # exact primal at the averaged pair so the gap remains certified
        net = two_edge_net()
        from sueflow.loading import entropy_term, primal_objective, surrogate_primal
        from sueflow.solver import minimize_composite, _DualSmooth

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
            _DualSmooth(net), net.plain_costs(), net.free_flow_times(),
            SolverConfig(max_iters=40, gap_tol=0.0), on_accept,
        )
        avg_flows = [[f / weight for f in flow_sums]]
        avg_tables = {(0, 0): {r: x / weight for r, x in table_sums.items()}}
        exact = primal_objective(net, avg_tables, avg_flows)
        pathfree = surrogate_primal(net, avg_flows, entropy_sum / weight)
        assert pathfree >= exact - 1e-12
        # and both certify: adding the dual value keeps the gap nonnegative
        t_probe = [1.0 + avg_flows[0][0], 2.0 + avg_flows[0][1]]
        by_paths = duality_gap(net, avg_flows, t_probe, T=40, avg_paths=avg_tables)
        pathless = duality_gap(net, avg_flows, t_probe, T=40, avg_entropy=entropy_sum / weight)
        assert pathless.gap >= by_paths.gap >= -1e-9

    def test_inconsistent_averages_rejected(self):
        net = two_edge_net()
        with pytest.raises(ValueError):
            duality_gap(net, [[0.9, 0.1]], [1.5, 2.5], T=1, avg_entropy=-50.0)

    def test_requires_some_primal_information(self):
        net = two_edge_net()
        with pytest.raises(ValueError, match="avg_paths or avg_entropy"):
            duality_gap(net, [[0.5, 0.5]], [1.5, 2.5], T=1)


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
        # Three level-1 ODs over two portals into a level with two ODs.
        from collections import Counter

        from sueflow import model
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
        measure = model._longest_route

        def counted(index, weights, od, walk_cap):
            calls[index, od] += 1
            return measure(index, weights, od, walk_cap)

        monkeypatch.setattr(model, "_longest_route", counted)
        # Routes of 3, 2 and 1 plain edges: (1 * 9 + 2 * 4 + 0.5 * 1) / 0.5.
        assert lipschitz_bound_diagnostic(net) == pytest.approx(35.0)
        expected = {(level1.index, j) for j in range(3)} | {(level2.index, j) for j in range(2)}
        assert set(calls) == expected
        assert set(calls.values()) == {1}


class TestDriver:
    def test_quadratic_reaches_minimiser(self):
        diag = [1.0, 2.0, 4.0]
        center = [2.0, -1.0, 0.5]
        costs = [AffineCost(0.5, 1.0), AffineCost(0.5, 1.0), AffineCost(0.5, 1.0)]
        prob = Quadratic(diag, center)
        t, history = minimize_composite(prob, costs, [0.0, 0.0, 0.0], SolverConfig(max_iters=300, gap_tol=0.0))
        for d, c, a, ti in zip(diag, center, (0.5, 0.5, 0.5), t):
            expected = c if c <= a else (c * 1.0 + (1.0 / d) * a) / (1.0 + 1.0 / d)
            assert ti == pytest.approx(expected, abs=1e-9)

    def test_history_without_certificates(self):
        prob = Quadratic([1.0], [1.0])
        _, history = minimize_composite(prob, [AffineCost(0.2, 1.0)], [0.0], SolverConfig(max_iters=5, gap_tol=0.0))
        assert all(r.gap is None for r in history)
