"""Adaptive accelerated composite gradient method and gap certificates.

The driver minimises ``smooth(t) + sum_e conjugate_e(t_e)`` where the
composite part separates over coordinates, each carrying a link-cost
conjugate. No Lipschitz constant is supplied: each iteration halves the
previous local estimate, but not below ``L0``, and doubles it until the
quadratic upper bound holds at the proximal trial point. The step weights
follow the recursion ``alpha' ** 2 * L' - alpha' = alpha ** 2 * L``, which
makes the mixing weight ``1 / (alpha' * L')`` a valid convex-combination
coefficient and the weight sum telescope into the accumulated ``A``.

For the network dual, weighted averages of flows and route entropies over
the gradient points yield a computable duality gap: dual value at the
estimate sequence plus the (path-free) primal value at the averages. It is
nonnegative, vanishes exactly at equilibrium, and decays at the accelerated
rate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .costs import LinkCost
from .loading import (
    LoadResult,
    dual_objective,
    dual_smooth_value,
    entropy_term,
    network_loading,
    primal_objective,
    surrogate_primal,
)
from .model import NetworkHierarchy, longest_path_bounds

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "GapCertificate",
    "BacktrackBudgetError",
    "alpha_step",
    "minimize_composite",
    "solve",
    "duality_gap",
    "lipschitz_bound_diagnostic",
]


class BacktrackBudgetError(Exception):
    """The local Lipschitz estimate doubled past the per-iteration budget."""


@dataclass(frozen=True)
class SolverConfig:
    L0: float = 1.0
    max_iters: int = 20000
    gap_tol: float = 1e-8
    max_backtracks_per_iter: int = 60

    def __post_init__(self) -> None:
        if self.L0 <= 0.0:
            raise ValueError(f"L0 must be positive, got {self.L0}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.gap_tol < 0.0:
            raise ValueError(f"gap_tol must be nonnegative, got {self.gap_tol}")


@dataclass
class IterationRecord:
    iter: int
    L_used: float
    n_func_evals: int  # cumulative
    dual_value: float
    gap: float | None
    wall_time: float
    alpha: float
    A: float


@dataclass
class GapCertificate:
    """Dual value at the estimate plus primal value at the averaged pair."""

    dual_value: float
    primal_value: float
    gap: float
    T: int
    avg_flows: list[list[float]] | None = None
    avg_entropy: float | None = None


def alpha_step(alpha_k: float, L_k: float, L_next: float) -> tuple[float, float]:
    """Next step weight and mixing coefficient.

    Returns ``(alpha_next, tau)`` with ``alpha_next * L_next >= 1`` so the
    mixing weight ``tau = 1 / (alpha_next * L_next)`` lies in (0, 1].
    """
    alpha_next = math.sqrt(
        alpha_k * alpha_k * L_k / L_next + 1.0 / (4.0 * L_next * L_next)
    ) + 1.0 / (2.0 * L_next)
    return alpha_next, 1.0 / (alpha_next * L_next)


def _prox_all(costs: Sequence[LinkCost], v: Sequence[float], step: float) -> list[float]:
    return [c.prox_conjugate(vi, step) for c, vi in zip(costs, v)]


def _descent_bound(
    fx: float, grad: Sequence[float], y: Sequence[float], x: Sequence[float], L: float
) -> float:
    inner = 0.0
    sq = 0.0
    for g, yi, xi in zip(grad, y, x):
        d = yi - xi
        inner += g * d
        sq += d * d
    return fx + inner + 0.5 * L * sq + 1e-12 * (1.0 + abs(fx))


def _grad_trial(
    value_fn: Callable[[list[float]], float],
    costs: Sequence[LinkCost],
    x: Sequence[float],
    L: float,
    grad: Sequence[float],
    fx: float,
) -> tuple[list[float], float, bool]:
    y = _prox_all(costs, [xi - gi / L for xi, gi in zip(x, grad)], 1.0 / L)
    fy = value_fn(y)
    return y, fy, fy <= _descent_bound(fx, grad, y, x, L)


@dataclass
class StepInfo:
    """Snapshot of one accepted iteration handed to the acceptance hook."""

    iter: int
    alpha: float
    A: float
    L: float
    x: list[float]
    grad: list[float]
    aux: object
    y: list[float]
    smooth_y: float
    dual_value: float


def minimize_composite(
    smooth,
    costs: Sequence[LinkCost],
    t0: Sequence[float],
    cfg: SolverConfig,
    on_accept: Callable[[StepInfo], float | None] | None = None,
) -> tuple[list[float], list[IterationRecord]]:
    """Run the adaptive accelerated loop from ``t0``.

    ``smooth`` duck-types two methods: ``value_and_grad(t) -> (value, grad,
    aux)`` and ``value(t) -> value``; both count as one oracle call each.
    ``on_accept`` may return a duality gap, which both lands in the history
    and stops the loop once it reaches ``cfg.gap_tol``.
    """
    y = [float(v) for v in t0]
    z = list(y)
    alpha = 0.0
    A = 0.0
    L_acc = cfg.L0
    evals = 0
    history: list[IterationRecord] = []
    started = time.perf_counter()

    for k in range(cfg.max_iters):
        L = max(cfg.L0, L_acc / 2.0)
        doublings = 0
        while True:
            alpha_next, tau = alpha_step(alpha, L_acc, L)
            x = [tau * zi + (1.0 - tau) * yi for zi, yi in zip(z, y)]
            fx, grad, aux = smooth.value_and_grad(x)
            evals += 1
            y_next, fy, accepted = _grad_trial(smooth.value, costs, x, L, grad, fx)
            evals += 1
            if accepted:
                break
            doublings += 1
            if doublings > cfg.max_backtracks_per_iter:
                raise BacktrackBudgetError(
                    f"no acceptable local Lipschitz estimate within "
                    f"{cfg.max_backtracks_per_iter} doublings at iteration {k}"
                )
            L *= 2.0
        z = _prox_all(costs, [zi - alpha_next * gi for zi, gi in zip(z, grad)], alpha_next)
        y = y_next
        alpha = alpha_next
        A += alpha_next
        L_acc = L

        dual_value = fy + sum(c.conjugate(v) for c, v in zip(costs, y))
        gap = None
        if on_accept is not None:
            gap = on_accept(
                StepInfo(
                    iter=k + 1,
                    alpha=alpha_next,
                    A=A,
                    L=L,
                    x=x,
                    grad=grad,
                    aux=aux,
                    y=y,
                    smooth_y=fy,
                    dual_value=dual_value,
                )
            )
        history.append(
            IterationRecord(
                iter=k + 1,
                L_used=L,
                n_func_evals=evals,
                dual_value=dual_value,
                gap=gap,
                wall_time=time.perf_counter() - started,
                alpha=alpha_next,
                A=A,
            )
        )
        if gap is not None and gap <= cfg.gap_tol:
            break
    return y, history


class _DualSmooth:
    """Smooth-oracle adapter: loading supplies value, gradient, and extras."""

    def __init__(self, net: NetworkHierarchy) -> None:
        self.net = net

    def value_and_grad(self, t: list[float]) -> tuple[float, list[float], LoadResult]:
        result = network_loading(self.net, t)
        grad = [-f for f in result.plain_flows(self.net)]
        return result.smooth_value, grad, result

    def value(self, t: list[float]) -> float:
        return dual_smooth_value(self.net, t)


class _PrimalAverager:
    """Weighted running averages of flows and nested entropy terms."""

    def __init__(self, net: NetworkHierarchy) -> None:
        self.net = net
        self.weight = 0.0
        self.flow_sums = [[0.0] * len(level.edges) for level in net.levels]
        self.entropy_sum = 0.0

    def add(self, alpha: float, result: LoadResult) -> None:
        self.weight += alpha
        for acc, level_flows in zip(self.flow_sums, result.flows):
            for pos, f in enumerate(level_flows):
                acc[pos] += alpha * f
        self.entropy_sum += alpha * entropy_term(self.net, result)

    def averaged_flows(self) -> list[list[float]]:
        return [[f / self.weight for f in acc] for acc in self.flow_sums]

    def primal_value(self) -> float:
        return surrogate_primal(
            self.net, self.averaged_flows(), self.entropy_sum / self.weight
        )


def solve(
    net: NetworkHierarchy,
    cfg: SolverConfig | None = None,
    t0: Sequence[float] | None = None,
) -> tuple[list[float], GapCertificate, list[IterationRecord]]:
    """Equilibrium solve of the network dual from free-flow times.

    Returns the final dual point, the duality-gap certificate at the
    averaged primal pair, and the per-iteration history.
    """
    cfg = cfg or SolverConfig()
    start = net.free_flow_times() if t0 is None else [float(v) for v in t0]
    averager = _PrimalAverager(net)

    def on_accept(info: StepInfo) -> float:
        averager.add(info.alpha, info.aux)
        return info.dual_value + averager.primal_value()

    t_final, history = minimize_composite(
        _DualSmooth(net), net.plain_costs(), start, cfg, on_accept
    )
    certificate = GapCertificate(
        dual_value=history[-1].dual_value,
        primal_value=averager.primal_value(),
        gap=history[-1].gap,
        T=history[-1].iter,
        avg_flows=averager.averaged_flows(),
        avg_entropy=averager.entropy_sum / averager.weight,
    )
    return t_final, certificate, history


def duality_gap(
    net: NetworkHierarchy,
    avg_flows: Sequence[Sequence[float]],
    y_final: Sequence[float],
    T: int,
    avg_paths: Mapping[tuple[int, int], Mapping[tuple[str, ...], float]] | None = None,
    avg_entropy: float | None = None,
) -> GapCertificate:
    """Certificate from explicit averages.

    With ``avg_paths`` the primal value is exact; otherwise the path-free
    form needs the weighted-average nested entropy accumulated alongside the
    flows. The gap is nonnegative up to float slack; a materially negative
    value means the averages do not belong to the run.
    """
    dual_value = dual_objective(net, y_final)
    if avg_paths is not None:
        primal_value = primal_objective(net, avg_paths, avg_flows)
    elif avg_entropy is not None:
        primal_value = surrogate_primal(net, avg_flows, avg_entropy)
    else:
        raise ValueError("either avg_paths or avg_entropy is required")
    gap = dual_value + primal_value
    if gap < -1e-9:
        raise ValueError(f"negative duality gap {gap}: inconsistent averages")
    return GapCertificate(dual_value=dual_value, primal_value=primal_value, gap=gap, T=T)


def lipschitz_bound_diagnostic(net: NetworkHierarchy) -> float:
    """A-priori curvature bound of the smooth dual term (diagnostic only)."""
    gamma_min = min(net.gammas)
    total = 0.0
    for od, length in zip(net.levels[0].od_pairs, longest_path_bounds(net)[0]):
        total += od.demand * length * length
    return total / gamma_min
