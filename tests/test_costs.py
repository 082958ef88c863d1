"""Cost families: values, integrals, conjugates, proxes, and their couplings."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from sueflow import AffineCost, ConstantCost, PowerCost
from sueflow import costs as costs_module
from sueflow.cli import cost_from_dict
from sueflow.costs import CostTable, ProxConvergenceError
from sueflow.oracle import conjugate_derivative

FAMILIES = [
    ConstantCost(3.0),
    AffineCost(1.0, 1.0),
    AffineCost(0.0, 0.7),
    PowerCost(1.0, 0.15, 2.0, 4.0),
    PowerCost(0.8, 0.3, 1.5, 2.0),
]
STRICT = [c for c in FAMILIES if not isinstance(c, ConstantCost)]


def conjugate_by_search(cost, t, hi=1e4):
    """Independent conjugate: maximise f*t - integral(f) on a bracket."""
    res = optimize.minimize_scalar(
        lambda f: -(f * t - cost.integral(f)), bounds=(0.0, hi), method="bounded",
        options={"xatol": 1e-13},
    )
    return max(0.0, -res.fun)


class TestTravelTime:
    def test_affine_free_flow(self):
        assert AffineCost(1.0, 1.0).travel_time(0.0) == 1.0

    def test_power_at_capacity(self):
        assert PowerCost(1.0, 0.15, 2.0, 4.0).travel_time(2.0) == pytest.approx(1.15, abs=1e-15)

    def test_constant(self):
        assert ConstantCost(3.0).travel_time(7.0) == 3.0

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_monotone(self, cost):
        flows = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
        times = [cost.travel_time(f) for f in flows]
        assert all(a <= b + 1e-15 for a, b in zip(times, times[1:]))

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            AffineCost(1.0, 1.0).travel_time(-0.1)


class TestIntegral:
    def test_affine(self):
        assert AffineCost(1.0, 1.0).integral(2.0) == pytest.approx(4.0, abs=1e-15)

    def test_constant(self):
        assert ConstantCost(3.0).integral(2.0) == pytest.approx(6.0, abs=1e-15)

    def test_power(self):
        # closed form: t0*f + t0*beta*cap/(mu+1)*(f/cap)**(mu+1) = 2 + 0.06
        cost = PowerCost(1.0, 0.15, 2.0, 4.0)
        quad, err = integrate.quad(cost.travel_time, 0.0, 2.0, epsabs=1e-13)
        assert quad == pytest.approx(2.06, abs=1e-10)
        assert cost.integral(2.0) == pytest.approx(quad, abs=1e-10)

    @pytest.mark.parametrize("cost", FAMILIES)
    @pytest.mark.parametrize("f", [0.0, 0.3, 1.0, 2.7])
    def test_matches_quadrature(self, cost, f):
        quad, _ = integrate.quad(cost.travel_time, 0.0, f, epsabs=1e-13)
        assert cost.integral(f) == pytest.approx(quad, abs=1e-9)

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_zero_and_derivative(self, cost):
        assert cost.integral(0.0) == 0.0
        h = 1e-6
        for f in (0.5, 1.5):
            fd = (cost.integral(f + h) - cost.integral(f - h)) / (2 * h)
            assert fd == pytest.approx(cost.travel_time(f), rel=1e-8)


class TestConjugate:
    def test_affine_example(self):
        assert AffineCost(1.0, 1.0).conjugate(3.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_zero_at_free_flow(self, cost):
        assert cost.conjugate(cost.free_flow_time) == 0.0

    def test_power_against_search(self):
        cost = PowerCost(1.0, 0.15, 2.0, 4.0)
        # maximiser of f*1.15 - integral(f) is f = 2, value 2*1.15 - 2.06
        assert cost.conjugate(1.15) == pytest.approx(0.24, abs=1e-10)
        assert cost.conjugate(1.15) == pytest.approx(conjugate_by_search(cost, 1.15), abs=1e-8)

    @pytest.mark.parametrize("cost", STRICT)
    @pytest.mark.parametrize("t_off", [0.05, 0.4, 1.3])
    def test_matches_search(self, cost, t_off):
        t = cost.free_flow_time + t_off
        assert cost.conjugate(t) == pytest.approx(conjugate_by_search(cost, t), abs=1e-7)

    def test_constant_domain(self):
        cost = ConstantCost(3.0)
        assert cost.conjugate(3.0) == 0.0
        assert math.isinf(cost.conjugate(3.0001))

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_nonnegative_monotone(self, cost):
        grid = [cost.free_flow_time + d for d in (-1.0, -0.2, 0.0, 0.2, 0.5, 1.5)]
        vals = [cost.conjugate(t) for t in grid]
        assert all(v >= 0.0 for v in vals)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestConjugateDerivative:
    def test_affine(self):
        assert conjugate_derivative(AffineCost(1.0, 1.0), 3.0) == pytest.approx(2.0)

    def test_power_at_capacity(self):
        assert conjugate_derivative(PowerCost(1.0, 0.15, 2.0, 4.0), 1.15) == pytest.approx(2.0)

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_zero_at_free_flow(self, cost):
        assert conjugate_derivative(cost, cost.free_flow_time) == 0.0

    def test_constant_above_domain_rejected(self):
        with pytest.raises(ValueError):
            conjugate_derivative(ConstantCost(3.0), 3.5)

    @pytest.mark.parametrize("cost", STRICT)
    @pytest.mark.parametrize("f", [0.0, 0.25, 1.0, 3.0])
    def test_inverts_travel_time(self, cost, f):
        assert conjugate_derivative(cost, cost.travel_time(f)) == pytest.approx(f, abs=1e-10)

    @pytest.mark.parametrize("cost", STRICT)
    @pytest.mark.parametrize("t_off", [0.1, 0.5, 2.0])
    def test_finite_difference_of_conjugate(self, cost, t_off):
        t = cost.free_flow_time + t_off
        h = 1e-6
        fd = (cost.conjugate(t + h) - cost.conjugate(t - h)) / (2 * h)
        assert fd == pytest.approx(conjugate_derivative(cost, t), rel=1e-7, abs=1e-9)


class TestFenchelYoung:
    @pytest.mark.parametrize("cost", FAMILIES)
    def test_inequality_on_grid(self, cost):
        t00 = cost.free_flow_time
        for f in (0.0, 0.2, 0.7, 1.9, 4.0):
            for t in (t00 - 0.8, t00 - 0.1, t00, t00 + 0.3, t00 + 1.1):
                slack = cost.integral(f) + cost.conjugate(t) - f * t
                assert slack >= -1e-12

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_equality_at_coupled_points(self, cost):
        for f in (0.0, 0.5, 1.3, 2.0):
            t = cost.travel_time(f)
            slack = cost.integral(f) + cost.conjugate(t) - f * t
            assert slack == pytest.approx(0.0, abs=1e-12)

    @given(f=st.floats(0.0, 5.0), t_off=st.floats(-1.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_affine_power(self, f, t_off):
        for cost in STRICT:
            t = cost.free_flow_time + t_off
            assert cost.integral(f) + cost.conjugate(t) - f * t >= -1e-11


def prox_residual(cost, v, step, t=None):
    """Stationarity defect |t - v + step*g| minimised over the conjugate's
    subgradients g at the returned point ``t`` (by default
    ``cost.prox_conjugate(v, step)``), taken at one-ulp float resolution
    (the derivative interval collapses to a point wherever it is smooth)."""
    if t is None:
        t = cost.prox_conjugate(v, step)
    if math.isinf(cost.conjugate(math.nextafter(t, math.inf))):
        # upper end of the conjugate's domain: subgradient ray [cd(t), inf)
        g_lo, g_hi = conjugate_derivative(cost, t), math.inf
    else:
        g_lo = conjugate_derivative(cost, math.nextafter(t, -math.inf))
        g_hi = conjugate_derivative(cost, math.nextafter(t, math.inf))
    r_lo = t - v + step * g_lo
    r_hi = t - v + step * g_hi
    if r_lo <= 0.0 <= r_hi:
        return 0.0
    return min(abs(r_lo), abs(r_hi))


class TestProx:
    def test_affine_example(self):
        assert AffineCost(1.0, 1.0).prox_conjugate(3.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_identity_below_free_flow(self, cost):
        v = cost.free_flow_time - 0.4
        for step in (0.1, 1.0, 10.0):
            assert cost.prox_conjugate(v, step) == v

    def test_power_against_root_oracle(self):
        cost = PowerCost(1.0, 0.15, 2.0, 4.0)
        v, step = 1.3, 0.5
        root = optimize.brentq(
            lambda t: t - v + step * conjugate_derivative(cost, t), cost.t0, v, xtol=1e-14
        )
        assert cost.prox_conjugate(v, step) == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("cost", FAMILIES)
    @pytest.mark.parametrize("v_off", [-0.5, 0.05, 0.4, 1.7])
    @pytest.mark.parametrize("step", [0.05, 0.7, 3.0])
    def test_stationarity(self, cost, v_off, step):
        v = cost.free_flow_time + v_off
        assert prox_residual(cost, v, step) <= 1e-10

    @pytest.mark.parametrize("cost", FAMILIES)
    def test_minimises_objective(self, cost):
        v, step = cost.free_flow_time + 0.9, 0.8
        t = cost.prox_conjugate(v, step)
        obj = lambda u: (u - v) ** 2 / (2 * step) + cost.conjugate(u)
        base = obj(t)
        for delta in (-1e-4, -1e-6, 1e-6, 1e-4):
            assert obj(t + delta) >= base - 1e-14

    def test_constant_clamps(self):
        assert ConstantCost(3.0).prox_conjugate(5.0, 0.3) == 3.0
        assert ConstantCost(3.0).prox_conjugate(2.0, 0.3) == 2.0

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            AffineCost(1.0, 1.0).prox_conjugate(1.0, 0.0)


def prox_by_root(cost, v, step):
    """Independent prox: bracketed root of the stationarity condition in t."""
    if v <= cost.free_flow_time:
        return v
    return optimize.brentq(
        lambda t: t - v + step * conjugate_derivative(cost, t), cost.free_flow_time, v,
        xtol=1e-15, rtol=4 * np.finfo(float).eps,
    )


class TestPowerProxSmallSteps:
    """A tiny step puts ``(v - t0)/step`` far above the root; the Newton
    iteration starts at the smaller bound ``tau^-1(v)`` instead."""

    def test_converges_where_the_step_bound_is_far_off(self):
        cost = PowerCost(1.0, 0.15, 1.0, 20.0)
        t = cost.prox_conjugate(50.0, 1e-6)
        assert t <= 50.0
        assert t == pytest.approx(prox_by_root(cost, 50.0, 1e-6), rel=1e-14)
        assert t == pytest.approx(49.99999866, abs=1e-8)

    def test_no_overflow_at_step_1e_18(self):
        cost = PowerCost(1.0, 0.15, 1.0, 20.0)
        t = cost.prox_conjugate(50.0, 1e-18)
        assert 1.0 < t <= 50.0
        assert prox_residual(cost, 50.0, 1e-18, t) <= 1e-10 * 50.0

    def test_no_overflow_at_step_1e_80(self):
        cost = PowerCost(1.0, 0.15, 1.0, 4.0)
        t = cost.prox_conjugate(50.0, 1e-80)
        assert 1.0 < t <= 50.0
        assert prox_residual(cost, 50.0, 1e-80, t) <= 1e-10 * 50.0

    def test_running_out_of_iterations_raises(self, monkeypatch):
        monkeypatch.setattr(costs_module, "_ROOT_ITERS", 1)
        with pytest.raises(ProxConvergenceError):
            PowerCost(1.0, 0.15, 2.0, 4.0).prox_conjugate(1.3, 0.5)
        table = CostTable([AffineCost(1.0, 1.0), PowerCost(1.0, 0.15, 2.0, 4.0)])
        with pytest.raises(ProxConvergenceError):
            table.prox(np.array([1.5, 1.3]), 0.5)

    @given(
        t0=st.floats(0.01, 100.0),
        beta=st.floats(0.01, 10.0),
        cap=st.floats(0.1, 1000.0),
        mu=st.floats(1.0, 30.0),
        log_step=st.floats(-18.0, 6.0),
        v_ratio=st.floats(0.0, 1e4),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_any_step(self, t0, beta, cap, mu, log_step, v_ratio):
        cost = PowerCost(t0, beta, cap, mu)
        v, step = v_ratio * t0, 10.0**log_step
        t = cost.prox_conjugate(v, step)
        assert t <= v
        assert prox_residual(cost, v, step, t) <= 1e-10 * (1.0 + abs(v))


class TestConjugateNearFreeFlow:
    """``f*t - integral(f)`` cancels as t approaches t0; the closed form
    ``f*(t - t0)*mu/(mu + 1)`` does not."""

    @pytest.mark.parametrize(
        "cost", [PowerCost(1.0, 0.15, 2.0, 4.0), PowerCost(0.8, 0.3, 1.5, 1.0)]
    )
    @pytest.mark.parametrize("delta", [10.0**-k for k in range(14)])
    def test_matches_quadrature_of_the_derivative(self, cost, delta):
        t = cost.t0 * (1.0 + delta)
        d = t - cost.t0  # exact: t and t0 are within a factor 2
        # Quadrature nodes t0 + x would round to the float grid around t0,
        # which is coarse next to x when delta is tiny. The same derivative
        # with its free flow moved next to 0 (t0*beta kept) takes exact
        # offsets, so integrate that one over [tiny, tiny + d].
        tiny = 2.0**-80
        shifted = PowerCost(tiny, cost.t0 * cost.beta / tiny, cost.cap, cost.mu)
        reference, _ = integrate.quad(
            lambda x: conjugate_derivative(shifted, x), tiny, tiny + d,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        # abs=0: the values reach 1e-26, far below approx's default abs.
        assert cost.conjugate(t) == pytest.approx(reference, rel=1e-12, abs=0.0)
        table_value = CostTable([cost]).conjugate(np.array([t]))
        assert table_value == pytest.approx(reference, rel=1e-12, abs=0.0)


COST_STRATEGY = st.one_of(
    st.builds(ConstantCost, st.floats(0.1, 5.0)),
    st.builds(AffineCost, st.floats(0.0, 5.0), st.floats(0.05, 5.0)),
    st.builds(PowerCost, st.floats(0.1, 5.0), st.floats(0.05, 2.0), st.floats(0.5, 5.0),
              st.floats(1.0, 8.0)),
)


def mixed_tables(min_size=1):
    """Lists of costs from any subset of the families, so that some tables
    leave one or two families empty."""
    return st.lists(COST_STRATEGY, min_size=min_size, max_size=12)


class TestCostTable:
    @given(costs=mixed_tables(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_identity_below_free_flow(self, costs, data):
        offsets = data.draw(st.lists(st.floats(1e-9, 3.0), min_size=len(costs),
                                     max_size=len(costs)))
        step = data.draw(st.floats(1e-3, 1e3))
        v = np.array([c.free_flow_time - off for c, off in zip(costs, offsets)])
        t = CostTable(costs).prox(v, step)
        assert t.tobytes() == v.tobytes()

    @given(costs=mixed_tables(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_stationarity(self, costs, data):
        offsets = data.draw(st.lists(st.floats(-1.0, 3.0), min_size=len(costs),
                                     max_size=len(costs)))
        step = data.draw(st.floats(0.01, 10.0))
        v = np.array([c.free_flow_time + off for c, off in zip(costs, offsets)])
        t = CostTable(costs).prox(v, step)
        for cost, vi, ti in zip(costs, v.tolist(), t.tolist()):
            assert prox_residual(cost, vi, step, ti) <= 1e-10

    @given(costs=mixed_tables(min_size=0), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sums_match_the_per_edge_methods(self, costs, data):
        n = len(costs)
        offsets = data.draw(st.lists(st.floats(-1.0, 3.0), min_size=n, max_size=n))
        flows = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
        # Constant costs above t0 are outside the domain; keep them inside.
        t = [c.free_flow_time + (min(off, 0.0) if isinstance(c, ConstantCost) else off)
             for c, off in zip(costs, offsets)]
        table = CostTable(costs)
        conj = sum(c.conjugate(ti) for c, ti in zip(costs, t))
        integ = sum(c.integral(f) for c, f in zip(costs, flows))
        assert table.conjugate(np.array(t)) == pytest.approx(conj, rel=1e-12, abs=0.0)
        assert table.integral(np.array(flows)) == pytest.approx(integ, rel=1e-12, abs=0.0)

    def test_conjugate_is_infinite_outside_the_domain(self):
        table = CostTable(
            [AffineCost(1.0, 1.0), ConstantCost(3.0), PowerCost(1.0, 0.15, 2.0, 4.0)]
        )
        assert table.conjugate(np.array([1.5, 3.0, 1.2])) < math.inf
        assert table.conjugate(np.array([1.5, 3.0001, 1.2])) == math.inf

    @pytest.mark.parametrize(
        "others", [[], [ConstantCost(3.0)], [AffineCost(0.5, 2.0), ConstantCost(3.0)]]
    )
    def test_power_against_root_oracle(self, others):
        # The case of TestProx.test_power_against_root_oracle, inside a table.
        cost = PowerCost(1.0, 0.15, 2.0, 4.0)
        v, step = 1.3, 0.5
        root = optimize.brentq(
            lambda t: t - v + step * conjugate_derivative(cost, t), cost.t0, v, xtol=1e-14
        )
        table = CostTable(others + [cost])
        t = table.prox(np.array([c.free_flow_time + 0.2 for c in others] + [v]), step)
        assert t[-1] == pytest.approx(root, abs=1e-12)

    def test_matches_the_per_edge_prox(self):
        costs = FAMILIES + [PowerCost(1.2, 0.15, 3.0, 4.0)]
        v = np.array([c.free_flow_time + 0.6 for c in costs])
        t = CostTable(costs).prox(v, 0.7)
        for cost, vi, ti in zip(costs, v.tolist(), t.tolist()):
            assert ti == pytest.approx(cost.prox_conjugate(vi, 0.7), rel=1e-15)

    def test_prox_at_infinity(self):
        # A constant cost's c*(v - a) would be 0 * inf there.
        t = CostTable([ConstantCost(2.0), AffineCost(1.0, 3.0)]).prox(
            np.array([math.inf, math.inf]), 0.5
        )
        assert t.tolist() == [2.0, math.inf]

    def test_overflows_give_inf_or_raise(self):
        # p2 of two_level.json with beta 1e-8, cap 1e-199 and mu 1e117: its
        # integral's coefficient underflows to 0 and its power overflows, so
        # the term is 0 * inf; with beta 1, the compiled slope c*mu/s
        # overflows. A constant cost has no such term at any flow.
        tiny = PowerCost(1.0, 1e-8, 1e-199, 1e117)
        table = CostTable([tiny, ConstantCost(3.0), PowerCost(1.0, 1.0, 1e-199, 1e110)])
        assert table.integral(np.array([2.0, 1.0, 0.0])) == math.inf
        assert table.integral(np.array([0.0, 1e160, 0.0])) == 3e160
        assert table.integral(np.array([2.0, 1.0, 0.0]), start=-math.inf) == math.inf
        assert CostTable([AffineCost(1e170, 1.0)]).conjugate(np.array([1e300])) == math.inf
        # Demand 1e193 and beta 1e-116: Newton's first bound overflows.
        huge = CostTable([PowerCost(1.0, 1e-116, 2.0, 4.0)])
        with pytest.raises(ProxConvergenceError, match="^the prox at step 1.0 is not finite"):
            huge.prox(np.array([1e193]), 1.0)
        with pytest.raises(ProxConvergenceError, match="^the prox step overflows to inf$"):
            table.prox(np.array([1.5, 3.0, 1.5]), math.inf)

    @pytest.mark.parametrize("step", [1e-3, 0.5, 1e3])
    def test_constant_prox_above_free_flow_is_free_flow(self, step):
        t0 = 1.7
        table = CostTable([ConstantCost(t0)])
        for v in (math.nextafter(t0, math.inf), t0 + 0.5, 1e300):
            t = table.prox(np.array([v]), step)
            assert float(t[0]) == t0
            # One ulp past t0 would put the dual value at inf.
            assert table.conjugate(t) == 0.0

    @given(
        t0=st.floats(0.01, 100.0),
        beta=st.floats(0.01, 10.0),
        cap=st.floats(0.1, 1000.0),
        offset=st.floats(0.0, 10.0),
        flow=st.floats(0.0, 1e3),
        step=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_power_cost_is_affine(self, t0, beta, cap, offset, flow, step):
        power = CostTable([PowerCost(t0, beta, cap, 1.0)])
        affine = CostTable([AffineCost(t0, t0 * beta / cap)])
        t, f = np.array([t0 + offset * t0]), np.array([flow])
        assert power.conjugate(t) == pytest.approx(affine.conjugate(t), rel=1e-12, abs=0.0)
        assert power.integral(f) == pytest.approx(affine.integral(f), rel=1e-12, abs=0.0)
        assert float(power.prox(t, step)[0]) == pytest.approx(
            float(affine.prox(t, step)[0]), rel=1e-10
        )

    def test_huge_capacity_stays_finite(self):
        # (f/cap)**mu must not be formed as f**mu / cap**mu: cap**mu overflows.
        cost = PowerCost(1.0, 0.15, 1e150, 4.0)
        table = CostTable([cost])
        for f in (1e140, 1e149, 1e150, 3e150):
            value = table.integral(np.array([f]))
            assert math.isfinite(value)
            assert value == pytest.approx(cost.integral(f), rel=1e-12, abs=0.0)
        for t in (1.0 + 1e-12, 1.1, 1.15, 3.0):
            value = table.conjugate(np.array([t]))
            assert math.isfinite(value)
            assert value == pytest.approx(cost.conjugate(t), rel=1e-12, abs=0.0)

    def test_overflowing_integral_is_infinite(self):
        # Far above a tiny cap the power term overflows: the sum is +inf,
        # with no numpy warning.
        table = CostTable([AffineCost(1.0, 1.0), PowerCost(1.0, 0.15, 1e-100, 4.0)])
        assert table.integral(np.array([1.0, 1.0])) == math.inf

    def test_per_edge_power_overflow_is_infinite(self):
        # Python's float power raises OverflowError where the table's reads inf.
        cost = PowerCost(1.0, 0.15, 1e-200, 4.0)
        assert cost.travel_time(1.0) == math.inf
        assert cost.integral(1.0) == math.inf == CostTable([cost]).integral(np.array([1.0]))

    @pytest.mark.parametrize("flows", [None, [1e126]])
    def test_prox_whose_newton_falls_to_minus_inf_raises(self, flows):
        # Far above cap, tau overflows to +inf and Newton's step to -inf.
        table = CostTable([PowerCost(1.0, 1e-272, 1.0, 3.0)])
        with pytest.raises(ProxConvergenceError, match="^the prox at step 1.0 is not finite"):
            table.prox(np.array([1e126]), 1.0, flows)

    def test_unknown_cost_class_rejected(self):
        class Odd(ConstantCost):
            pass

        with pytest.raises(TypeError, match="unknown cost class"):
            CostTable([Odd(1.0)])

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            CostTable([AffineCost(1.0, 1.0)]).prox(np.array([2.0]), 0.0)


START_KINDS = ["zero", "root", "hi", "10hi", "minus one", "nan", "inf", "random"]


def bracket_top(cost, v, step):
    """Top of the power prox's Newton bracket: min((v - t0)/step, tau^-1(v))."""
    return min((v - cost.t0) / step, conjugate_derivative(cost, v))


def flow_start(kind, root, hi, u):
    """A Newton start of the given kind; ``u`` in [0, 2] scales a random one."""
    return {
        "zero": 0.0, "root": root, "hi": hi, "10hi": 10.0 * hi, "minus one": -1.0,
        "nan": math.nan, "inf": math.inf, "random": u * hi,
    }[kind]


@st.composite
def warm_start_cases(draw):
    """A mixed table with, per cost, an offset of ``v`` from free flow, a
    start kind and a random start's scale, and one prox step."""
    costs = draw(mixed_tables())
    n = len(costs)
    offsets = draw(st.lists(st.floats(-1.0, 3.0), min_size=n, max_size=n))
    step = draw(st.floats(0.01, 10.0))
    kinds = draw(st.lists(st.sampled_from(START_KINDS), min_size=n, max_size=n))
    scales = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    return costs, offsets, step, kinds, scales


def stiff_case(step):
    """A ``warm_start_cases`` case of stiff Newton inputs: power costs with
    mu from 1 to 16, ``v - t0`` from 1e-12 to 1e6 relative to ``t0``, each
    from every start kind, at one extreme prox step."""
    costs, offsets, kinds = [], [], []
    for mu in (1.0, 1.5, 4.0, 16.0):
        cost = PowerCost(2.0, 0.15, 3.0, mu)
        for rel in (1e-12, 1e-6, 1.0, 1e6):
            for kind in START_KINDS:
                costs.append(cost)
                offsets.append(rel * cost.t0)
                kinds.append(kind)
    return costs, offsets, step, kinds, [0.37] * len(costs)


# An affine cost with v one ulp above a, where (b v + step a)/(b + step)
# rounds above v.
AFFINE_ULP_A, AFFINE_ULP_B = 1.8225736070971679, 1.2265625
AFFINE_ULP_V = math.nextafter(AFFINE_ULP_A, math.inf)


class TestAffineProxClamp:
    """The affine prox's closed form ``(b v + step a)/(b + step)`` lies in
    ``[a, v]`` exactly but can round past ``v`` when ``v`` is within an
    ulp or so of ``a``; both prox paths clamp it into that range."""

    def test_one_ulp_above_free_flow(self):
        cost = AffineCost(AFFINE_ULP_A, AFFINE_ULP_B)
        v = AFFINE_ULP_V
        assert (AFFINE_ULP_B * v + AFFINE_ULP_A) / (AFFINE_ULP_B + 1.0) > v  # unclamped
        per_edge = cost.prox_conjugate(v, 1.0)
        table = float(CostTable([cost]).prox(np.array([v]), 1.0)[0])
        assert cost.a <= per_edge <= v
        assert cost.a <= table <= v
        assert per_edge == table
        assert prox_residual(cost, v, 1.0, per_edge) <= 1e-10

    @given(
        a=st.floats(1e-3, 1e3),
        b=st.floats(1e-3, 1e3),
        ulps=st.integers(1, 4),
        step=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_stays_between_free_flow_and_v(self, a, b, ulps, step):
        cost = AffineCost(a, b)
        v = a
        for _ in range(ulps):
            v = math.nextafter(v, math.inf)
        per_edge = cost.prox_conjugate(v, step)
        table = float(CostTable([cost]).prox(np.array([v]), step)[0])
        assert a <= per_edge <= v
        assert per_edge == table


class TestWarmStart:
    """``CostTable.prox`` starts the power costs' Newton iteration at a flow
    estimate, clamped into its bracket; from any start it lands on the cold
    start's answer within Newton's tolerance."""

    @given(case=warm_start_cases())
    @example(case=([AffineCost(AFFINE_ULP_A, AFFINE_ULP_B)], [AFFINE_ULP_V - AFFINE_ULP_A],
                   1.0, ["zero"], [0.0]))
    @example(case=stiff_case(1e-8))
    @example(case=stiff_case(1e-4))
    @example(case=stiff_case(1.0))
    @example(case=stiff_case(1e4))
    @example(case=stiff_case(1e8))
    @settings(max_examples=200, deadline=None)
    def test_any_start_gives_the_cold_answer(self, case):
        costs, offsets, step, kinds, scales = case
        v = np.array([c.free_flow_time + off for c, off in zip(costs, offsets)])
        table = CostTable(costs)
        cold = table.prox(v, step)
        flows = []
        for cost, vi, ti, kind, u in zip(costs, v.tolist(), cold.tolist(), kinds, scales):
            if isinstance(cost, PowerCost) and vi > cost.t0:
                root = conjugate_derivative(cost, ti)
                flows.append(flow_start(kind, root, bracket_top(cost, vi, step), u))
            else:  # not a Newton element; the table must ignore it
                flows.append(flow_start(kind, 0.0, 1.0, u))
        t = table.prox(v, step, np.array(flows))
        for cost, vi, ti, ci in zip(costs, v.tolist(), t.tolist(), cold.tolist()):
            tol = 1e-10 * (1.0 + abs(vi))
            assert ti <= vi
            assert prox_residual(cost, vi, step, ti) <= tol
            assert abs(ti - ci) <= tol

    @pytest.mark.parametrize("kind", [k for k in START_KINDS if k != "root"])
    def test_running_out_of_iterations_still_raises(self, monkeypatch, kind):
        # A start at the root may converge on its first evaluation; every
        # other start needs more than one Newton step here.
        cost = PowerCost(1.0, 0.15, 2.0, 4.0)
        v, step = 1.3, 0.5
        start = flow_start(kind, math.nan, bracket_top(cost, v, step), 0.37)
        monkeypatch.setattr(costs_module, "_ROOT_ITERS", 1)
        table = CostTable([AffineCost(1.0, 1.0), cost])
        with pytest.raises(ProxConvergenceError):
            table.prox(np.array([1.5, v]), step, np.array([0.0, start]))

    @pytest.mark.parametrize("cost", [c for c in FAMILIES if isinstance(c, PowerCost)])
    def test_per_edge_prox_starts_cold(self, cost):
        v, step = cost.free_flow_time + 0.6, 0.7
        cold = CostTable([cost]).prox(np.array([v]), step)
        assert cost.prox_conjugate(v, step) == float(cold[0])


class TestConstruction:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: ConstantCost(0.0),
            lambda: ConstantCost(-1.0),
            lambda: AffineCost(-0.1, 1.0),
            lambda: AffineCost(1.0, 0.0),
            lambda: PowerCost(0.0, 0.15, 2.0, 4.0),
            lambda: PowerCost(1.0, -0.15, 2.0, 4.0),
            lambda: PowerCost(1.0, 0.15, 0.0, 4.0),
            lambda: PowerCost(1.0, 0.15, 2.0, 0.5),
            # Non-finite values, in range or not.
            lambda: ConstantCost(math.nan),
            lambda: ConstantCost(math.inf),
            lambda: AffineCost(math.nan, 1.0),
            lambda: AffineCost(1.0, math.inf),
            lambda: PowerCost(math.inf, 0.15, 2.0, 4.0),
            lambda: PowerCost(1.0, math.nan, 2.0, 4.0),
            lambda: PowerCost(1.0, 0.15, math.inf, 4.0),
            lambda: PowerCost(1, math.nan, 1, 4),
            lambda: PowerCost(1, 0.15, 1, math.inf),
            lambda: PowerCost(1.0, 0.15, 2.0, math.nan),
        ],
    )
    def test_bad_params_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown cost type"):
            cost_from_dict({"type": "quartic", "t0": 1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown cost keys"):
            cost_from_dict({"type": "affine", "a": 1.0, "b": 1.0, "c": 2.0})

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing cost keys"):
            cost_from_dict({"type": "affine", "a": 1.0})
