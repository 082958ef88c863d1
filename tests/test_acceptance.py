"""Acceptance gate: nine criteria, each with its stated tolerance and budget.

Each test prints one pass line with the measured quantities; shared solver
runs live in module-scoped fixtures so the whole gate stays fast.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from sueflow import AffineCost, SolverConfig, solve
from sueflow.cli import main as cli_main
from sueflow.loading import dual_smooth_value, network_loading
from sueflow.oracle import (
    expand_paths,
    fixed_point_small,
    gumbel_max_mean,
    gumbel_monte_carlo,
    loading_by_enumeration,
)
from sueflow.costs import CostTable
from sueflow.model import ODRef
from sueflow.solver import minimize_composite

from conftest import (
    FIXTURES,
    chain3_net,
    diamond_net,
    plain_flows,
    random_hierarchy,
    three_level_net,
    two_edge_net,
)
from sueflow.cli import parse_network


@dataclass
class RunArtifacts:
    history: list
    elapsed: float
    extra: dict


def _stamp(name, detail, elapsed, budget):
    print(f"[acceptance] {name}: PASS — {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")


# A separable smooth part with known curvature and a composite of affine
# conjugates whose joint minimiser is available in closed form per
# coordinate, so rate bounds can be checked against exact optima.
_DIM = 16
_DIAG = [1.0 + 3.0 * i / (_DIM - 1) for i in range(_DIM)]
_CENTER = [0.6 + 0.07 * i + (0.9 if i % 2 else -0.4) for i in range(_DIM)]
_FREE = [0.5 + 0.05 * i for i in range(_DIM)]
_COSTS = CostTable([AffineCost(a, 1.0) for a in _FREE])


class _Quadratic:
    def value_and_grad(self, t):
        v = 0.5 * sum(d * (x - c) ** 2 for d, x, c in zip(_DIAG, t, _CENTER))
        g = [d * (x - c) for d, x, c in zip(_DIAG, t, _CENTER)]
        return v, g, None

    def value(self, t):
        return 0.5 * sum(d * (x - c) ** 2 for d, x, c in zip(_DIAG, t, _CENTER))


def _synthetic_optimum():
    t_star = []
    for d, c, a in zip(_DIAG, _CENTER, _FREE):
        t_star.append(c if c <= a else (d * c + a) / (d + 1.0))
    smooth = 0.5 * sum(d * (x - c) ** 2 for d, x, c in zip(_DIAG, t_star, _CENTER))
    composite = sum(max(0.0, x - a) ** 2 / 2.0 for x, a in zip(t_star, _FREE))
    return t_star, smooth + composite


@pytest.fixture(scope="module")
def synthetic_run() -> RunArtifacts:
    start = time.perf_counter()
    t0 = [0.0] * _DIM
    _, history = minimize_composite(
        _Quadratic(), _COSTS, t0, SolverConfig(L0=1.0, max_iters=1000, gap_tol=0.0)
    )
    t_star, phi_star = _synthetic_optimum()
    return RunArtifacts(
        history=history,
        elapsed=time.perf_counter() - start,
        extra={"t0": t0, "t_star": t_star, "phi_star": phi_star},
    )


@pytest.fixture(scope="module")
def two_edge_run() -> RunArtifacts:
    start = time.perf_counter()
    net = two_edge_net()
    t, cert, history = solve(net, SolverConfig(gap_tol=1e-9, max_iters=50_000))
    return RunArtifacts(
        history=history,
        elapsed=time.perf_counter() - start,
        extra={"net": net, "t": t, "cert": cert},
    )


@pytest.fixture(scope="module")
def two_level_run() -> RunArtifacts:
    start = time.perf_counter()
    net = parse_network(FIXTURES / "two_level.json")
    t, cert, history = solve(net, SolverConfig(gap_tol=0.0, max_iters=1000))
    return RunArtifacts(
        history=history,
        elapsed=time.perf_counter() - start,
        extra={"net": net, "t": t, "cert": cert},
    )


def test_criterion_01_rate_inequality(synthetic_run):
    budget = 10.0
    values = {r.iter: r.dual_value for r in synthetic_run.history}
    phi_star = synthetic_run.extra["phi_star"]
    radius_sq = 0.5 * sum(
        (a - b) ** 2 for a, b in zip(synthetic_run.extra["t0"], synthetic_run.extra["t_star"])
    )
    L_f = max(_DIAG)
    worst = 0.0
    for T in (10, 30, 100, 300, 1000):
        excess = values[T] - phi_star
        bound = 4.0 * L_f * radius_sq / T**2
        assert excess <= bound, f"T={T}: {excess} > {bound}"
        worst = max(worst, excess / bound)
    assert synthetic_run.elapsed < budget
    _stamp(
        "criterion 1 (rate inequality)",
        f"max excess/bound = {worst:.2e} over T in {{10..1000}}",
        synthetic_run.elapsed,
        budget,
    )


def test_criterion_02_oracle_count(synthetic_run, two_edge_run):
    budget = 10.0
    start = time.perf_counter()
    worst = -math.inf
    for label, run, L0 in (("synthetic", synthetic_run, 1.0), ("two-edge", two_edge_run, 1.0)):
        L_obs = max(r.L_used for r in run.history)
        for r in run.history:
            bound = 4.0 * r.iter + 2.0 * math.log2(max(L_obs, L0) / L0) + 4.0
            assert r.n_func_evals <= bound, f"{label} iter {r.iter}"
            worst = max(worst, r.n_func_evals - bound)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _stamp(
        "criterion 2 (oracle count)",
        f"max evals minus bound = {worst:.1f} (<= 0)",
        elapsed,
        budget,
    )


def test_criterion_03_gradient_identity():
    budget = 30.0
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(20):
        net, t = random_hierarchy(seed)
        flows = plain_flows(net, network_loading(net, t))
        for pos in range(net.num_plain_edges()):
            tp, tm = list(t), list(t)
            tp[pos] += h
            tm[pos] -= h
            fd = (dual_smooth_value(net, tp) - dual_smooth_value(net, tm)) / (2 * h)
            rel = abs(fd + flows[pos]) / max(abs(flows[pos]), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-6, f"seed {seed} edge {pos}: rel err {rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _stamp(
        "criterion 3 (gradient identity)",
        f"20 random nets, worst relative error {worst:.2e}",
        elapsed,
        budget,
    )


def test_criterion_04_oracle_equivalence():
    budget = 30.0
    start = time.perf_counter()
    nets = [
        ("two_edge.json", parse_network(FIXTURES / "two_edge.json"), None),
        ("two_level.json", parse_network(FIXTURES / "two_level.json"), None),
        ("diamond", diamond_net(), None),
        ("chain3", chain3_net(), None),
        ("three_level", three_level_net(), None),
    ]
    for seed in range(4):
        net, t = random_hierarchy(seed + 100)
        nets.append((f"random{seed}", net, t))
    worst = 0.0
    total_paths = 0
    for name, net, t in nets:
        n_paths = sum(
            len(expand_paths(net, ODRef(0, j))) for j in range(len(net.levels[0].od_pairs))
        )
        assert n_paths <= 10_000
        total_paths += n_paths
        if t is None:
            t = [c.free_flow_time + 0.15 for c in net.plain_costs()]
        dp = network_loading(net, t)
        ref, _ = loading_by_enumeration(net, t)
        for k, level in enumerate(net.levels):
            for pos, edge in enumerate(level.edges):
                gap = abs(dp.flows[k][pos] - ref[k][edge.id])
                assert gap <= 1e-10 * (1.0 + abs(ref[k][edge.id])), f"{name} {edge.id}"
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _stamp(
        "criterion 4 (oracle equivalence)",
        f"{len(nets)} networks, {total_paths} expanded routes, worst |diff| {worst:.2e}",
        elapsed,
        budget,
    )


def test_criterion_05_gumbel_limit():
    budget = 60.0
    start = time.perf_counter()
    n = 1_000_000
    configs = [
        ([0.0, math.log(2.0)], 1.0, 21),
        ([1.0, 1.0], 1.0, 22),
        ([0.3, 0.9, 1.4], 0.7, 23),
        ([2.0, 2.2, 2.5, 3.0], 0.5, 24),
        ([0.5, 1.5], 2.0, 25),
    ]
    worst_sigma = 0.0
    for costs, gamma, seed in configs:
        weights = np.exp(-np.asarray(costs) / gamma)
        probs = weights / weights.sum()
        shares = gumbel_monte_carlo(costs, gamma, n, seed)
        for share, p in zip(shares, probs):
            sigma = math.sqrt(p * (1.0 - p) / n) or 1.0 / n
            pulls = abs(share - p) / sigma
            worst_sigma = max(worst_sigma, pulls)
            assert pulls <= 4.0, f"{costs}: share {share} vs {p}"
        expected = gamma * math.log(sum(math.exp(-c / gamma) for c in costs))
        mean, se = gumbel_max_mean(costs, gamma, n, seed + 100)
        assert abs(mean - expected) <= 4.0 * se
        worst_sigma = max(worst_sigma, abs(mean - expected) / se)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _stamp(
        "criterion 5 (perturbed best response limit)",
        f"5 configs x 1e6 draws, worst deviation {worst_sigma:.2f} sigma (<= 4)",
        elapsed,
        budget,
    )


def test_criterion_06_equilibrium_strong_duality(two_edge_run):
    budget = 5.0
    start = time.perf_counter()
    net = two_edge_run.extra["net"]
    cert = two_edge_run.extra["cert"]
    flows_star, _ = fixed_point_small(net, tol=1e-12)
    solver_flows = cert.avg_flows[0]
    err = max(
        abs(solver_flows[0] - flows_star[0]["e1"]),
        abs(solver_flows[1] - flows_star[0]["e2"]),
    )
    assert err <= 1e-4
    assert abs(cert.dual_value + cert.primal_value) <= 1e-8
    min_gap = min(r.gap for r in two_edge_run.history)
    assert min_gap >= -1e-9
    elapsed = time.perf_counter() - start + two_edge_run.elapsed
    assert elapsed < budget
    _stamp(
        "criterion 6 (equilibrium + strong duality)",
        f"flow error {err:.1e}, |dual+primal| {abs(cert.dual_value + cert.primal_value):.1e}, "
        f"min gap {min_gap:.1e}",
        elapsed,
        budget,
    )


def test_criterion_07_gap_decay(two_level_run):
    budget = 60.0
    xs = [math.log(r.iter) for r in two_level_run.history if 10 <= r.iter <= 1000]
    ys = [math.log(r.gap) for r in two_level_run.history if 10 <= r.iter <= 1000]
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope <= -1.8
    assert two_level_run.elapsed < budget
    _stamp(
        "criterion 7 (gap decay)",
        f"log-log slope {slope:.2f} over T in [10, 1000]",
        two_level_run.elapsed,
        budget,
    )


def test_criterion_08_step_and_averaging_invariants(
    synthetic_run, two_edge_run, two_level_run
):
    budget = 10.0
    start = time.perf_counter()
    checked = 0
    for run in (synthetic_run, two_edge_run, two_level_run):
        prev_A = 0.0
        alpha_sum = 0.0
        for r in run.history:
            resid = abs(r.alpha**2 * r.L_used - r.alpha - prev_A)
            assert resid <= 1e-12 * (1.0 + prev_A)
            tau = 1.0 / (r.alpha * r.L_used)
            assert 0.0 < tau <= 1.0 + 1e-12
            alpha_sum += r.alpha
            assert abs(alpha_sum / r.A - 1.0) <= 1e-12
            prev_A = r.A
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _stamp(
        "criterion 8 (step recursion and averaging invariants)",
        f"{checked} iterations across 3 runs",
        elapsed,
        budget,
    )


def test_criterion_09_determinism(tmp_path):
    budget = 60.0
    start = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gap_tol": 1e-7, "max_iters": 20000}')
    out = tmp_path / "out"
    args = [
        "solve",
        "--network", str(FIXTURES / "two_level.json"),
        "--config", str(cfg),
        "--out", str(out),
    ]
    assert cli_main(args) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("flows.csv", "certificate.json", "history.csv")
    }
    assert cli_main(args) == 0
    second = {
        name: (out / name).read_bytes()
        for name in ("flows.csv", "certificate.json", "history.csv")
    }
    assert first == second
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _stamp(
        "criterion 9 (determinism)",
        "two solve runs byte-identical across flows.csv, certificate.json, history.csv",
        elapsed,
        budget,
    )
