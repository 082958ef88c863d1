"""Brute-force reference implementations for the test suite.

Everything here enumerates explicitly: route sets, the closed-form logit
distribution over them, the primal objective at explicit route flows,
Monte-Carlo perturbed best response, and a damped fixed-point solve for
tiny instances. None of it shares code with the dynamic-programming
loading path, so agreement between the two is evidence, not tautology.
Hard budgets keep enumeration honest. The scalar conjugate derivative of
each cost family, its inverse time map, is the subgradient reference for
checks of the prox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import NetworkHierarchy, ODRef
from .costs import AffineCost, ConstantCost, LinkCost, PowerCost

__all__ = [
    "BudgetExceededError",
    "ExpandedPath",
    "conjugate_derivative",
    "enumerate_paths",
    "expand_paths",
    "path_cost",
    "trip_soft_cost",
    "logit_path_distribution",
    "loading_by_enumeration",
    "primal_objective",
    "gumbel_monte_carlo",
    "gumbel_max_mean",
    "fixed_point_small",
]

_EULER_MASCHERONI = 0.5772156649015329


class BudgetExceededError(Exception):
    pass


@dataclass(frozen=True)
class ExpandedPath:
    """A level-1 route with every portal replaced by a lower-level route."""

    cost_terms: tuple[tuple[int, str], ...]  # (level, plain edge id), in order

    @property
    def total_plain_edges(self) -> int:
        return len(self.cost_terms)


def conjugate_derivative(cost: LinkCost, t: float) -> float:
    """The flow ``f >= 0`` with ``tau(f) = t``; 0 at or below free flow.

    A constant cost's conjugate is finite only up to ``t0``, so a time above
    it raises ``ValueError``.
    """
    if isinstance(cost, ConstantCost):
        if t > cost.t0:
            raise ValueError(f"time {t} above the conjugate domain upper bound {cost.t0}")
        return 0.0
    if isinstance(cost, AffineCost):
        return max(0.0, (t - cost.a) / cost.b)
    if isinstance(cost, PowerCost):
        if t <= cost.t0:
            return 0.0
        return cost.cap * ((t - cost.t0) / (cost.t0 * cost.beta)) ** (1.0 / cost.mu)
    raise TypeError(f"unknown cost class {type(cost).__name__}")


def enumerate_paths(
    net: NetworkHierarchy, od: ODRef, budget: int = 10_000
) -> list[tuple[str, ...]]:
    """All simple routes of one OD pair at its own level.

    Routes are edge-id sequences in lexicographic order; exceeding the
    budget raises rather than truncates.
    """
    level = net.levels[od.level]
    pair = level.od_pairs[od.od]
    out_edges: dict[str, list[tuple[str, str]]] = {}
    for e in level.edges:
        out_edges.setdefault(e.tail, []).append((e.id, e.head))
    for lst in out_edges.values():
        lst.sort()

    found: list[tuple[str, ...]] = []
    route: list[str] = []
    visited = {pair.origin}

    def walk(v: str) -> None:
        if v == pair.destination:
            found.append(tuple(route))
            if len(found) > budget:
                raise BudgetExceededError(
                    f"more than {budget} routes for OD {od.level + 1}/{od.od}"
                )
            return
        for eid, head in out_edges.get(v, ()):
            if head in visited:
                continue
            visited.add(head)
            route.append(eid)
            walk(head)
            route.pop()
            visited.discard(head)

    walk(pair.origin)
    return found


def expand_paths(
    net: NetworkHierarchy, od: ODRef, budget: int = 10_000
) -> list[ExpandedPath]:
    """Fully expand an OD's routes down through every portal."""
    level = net.levels[od.level]
    by_id = {e.id: e for e in level.edges}
    expanded: list[ExpandedPath] = []
    for route in enumerate_paths(net, od, budget):
        partials: list[tuple[tuple[int, str], ...]] = [()]
        for eid in route:
            edge = by_id[eid]
            if edge.is_plain:
                partials = [p + ((od.level, eid),) for p in partials]
            else:
                subs = expand_paths(net, edge.target_od, budget)
                partials = [p + s.cost_terms for p in partials for s in subs]
            if len(partials) > budget:
                raise BudgetExceededError(f"more than {budget} expanded routes")
        expanded.extend(ExpandedPath(p) for p in partials)
        if len(expanded) > budget:
            raise BudgetExceededError(f"more than {budget} expanded routes")
    return expanded


def _plain_times(net: NetworkHierarchy, t: Sequence[float]) -> list[dict[str, float]]:
    per_level: list[dict[str, float]] = [{} for _ in net.levels]
    for (k, i), value in zip(net.plain_edge_order(), t, strict=True):
        per_level[k][net.levels[k].edges[i].id] = float(value)
    return per_level


def path_cost(
    net: NetworkHierarchy,
    t: Sequence[float],
    route: Sequence[str],
    level: int,
    budget: int = 10_000,
) -> float:
    """Route cost: plain edges at their times, portals at the smoothed trip
    cost of their target OD, computed recursively over enumerated routes."""
    times = _plain_times(net, t)
    return _route_cost(net, times, route, level, budget)


def _route_cost(
    net: NetworkHierarchy,
    times: list[dict[str, float]],
    route: Sequence[str],
    level: int,
    budget: int,
) -> float:
    by_id = {e.id: e for e in net.levels[level].edges}
    total = 0.0
    for eid in route:
        edge = by_id[eid]
        if edge.is_plain:
            total += times[level][eid]
        else:
            total += _trip_soft_cost(net, times, edge.target_od, budget)
    return total


def _trip_soft_cost(
    net: NetworkHierarchy, times: list[dict[str, float]], od: ODRef, budget: int
) -> float:
    gamma = net.gammas[od.level]
    costs = [
        _route_cost(net, times, route, od.level, budget)
        for route in enumerate_paths(net, od, budget)
    ]
    best = min(costs)
    acc = sum(math.exp((best - c) / gamma) for c in costs)
    return best - gamma * math.log(acc)


def trip_soft_cost(
    net: NetworkHierarchy, t: Sequence[float], od: ODRef, budget: int = 10_000
) -> float:
    """Smoothed trip cost of one OD pair by explicit route enumeration."""
    return _trip_soft_cost(net, _plain_times(net, t), od, budget)


def logit_path_distribution(
    net: NetworkHierarchy,
    t: Sequence[float],
    od: ODRef,
    demand: float,
    budget: int = 10_000,
) -> dict[tuple[str, ...], float]:
    """Route flows proportional to ``exp(-cost / gamma)``, summing to demand."""
    gamma = net.gammas[od.level]
    times = _plain_times(net, t)
    routes = enumerate_paths(net, od, budget)
    costs = [_route_cost(net, times, route, od.level, budget) for route in routes]
    best = min(costs)
    raw = [math.exp((best - c) / gamma) for c in costs]
    norm = sum(raw)
    return {route: demand * r / norm for route, r in zip(routes, raw)}


def loading_by_enumeration(
    net: NetworkHierarchy, t: Sequence[float], budget: int = 10_000
) -> tuple[
    list[dict[str, float]], dict[tuple[int, int], dict[tuple[str, ...], float]]
]:
    """Edge flows and the full path-flow table, by enumeration only.

    Levels are processed top-down: portal flows become the next level's
    demands exactly as in the production loading, but with the distribution
    computed from explicit route lists.
    """
    flows: list[dict[str, float]] = [
        {e.id: 0.0 for e in level.edges} for level in net.levels
    ]
    tables: dict[tuple[int, int], dict[tuple[str, ...], float]] = {}
    demands = [od.demand for od in net.levels[0].od_pairs]
    for k in range(net.num_levels):
        for j in range(len(net.levels[k].od_pairs)):
            table = {}
            if demands[j] > 0.0:
                table = logit_path_distribution(net, t, ODRef(k, j), demands[j], budget)
                for route, x in table.items():
                    for eid in route:
                        flows[k][eid] += x
            tables[(k, j)] = table
        if k + 1 < net.num_levels:
            next_demands = [0.0] * len(net.levels[k + 1].od_pairs)
            for e in net.levels[k].edges:
                if e.is_portal:
                    next_demands[e.target_od.od] = flows[k][e.id]
            demands = next_demands
    return flows, tables


def primal_objective(
    net: NetworkHierarchy,
    paths: Mapping[tuple[int, int], Mapping[tuple[str, ...], float]],
    flows: Sequence[Sequence[float]],
    rtol: float = 1e-8,
) -> float:
    """Cost integrals plus nested route entropy at an explicit path assignment.

    ``paths`` maps (level, od index) to per-route flows keyed by edge-id
    sequences, as ``loading_by_enumeration`` returns them; ``flows`` gives
    every edge flow per level. The two must be consistent: routes reproduce
    the edge flows, per-OD route flows sum to the demand (exogenous at level
    1, the binding portal flow below).
    """
    m = net.num_levels
    edge_pos = [
        {e.id: pos for pos, e in enumerate(level.edges)} for level in net.levels
    ]
    portal_pos = [
        {e.target_od.od: pos for pos, e in enumerate(level.edges) if e.is_portal}
        for level in net.levels
    ]

    recovered = [[0.0] * len(level.edges) for level in net.levels]
    entropy_sum = 0.0
    for k in range(m):
        gamma = net.gammas[k]
        for j, od in enumerate(net.levels[k].od_pairs):
            table = paths.get((k, j), {})
            if k == 0:
                demand = od.demand
            else:
                demand = flows[k - 1][portal_pos[k - 1][j]]
            total = 0.0
            for route, x in table.items():
                if x < 0.0:
                    raise ValueError(f"negative path flow {x} on {route} (level {k + 1})")
                total += x
                for eid in route:
                    recovered[k][edge_pos[k][eid]] += x
            if abs(total - demand) > rtol * (1.0 + abs(demand)):
                raise ValueError(
                    f"path flows for level-{k + 1} OD {j} sum to {total}, demand is {demand}"
                )
            if demand > 0.0:
                od_entropy = 0.0
                for x in table.values():
                    if x > 0.0:
                        od_entropy += x * math.log(x / demand)
                entropy_sum += gamma * od_entropy

    scale = max((abs(v) for level in flows for v in level), default=1.0)
    for k, level in enumerate(net.levels):
        for pos in range(len(level.edges)):
            if abs(recovered[k][pos] - flows[k][pos]) > rtol * (1.0 + scale):
                raise ValueError(
                    f"edge {level.edges[pos].id!r} at level {k + 1}: path flows give "
                    f"{recovered[k][pos]}, edge flow is {flows[k][pos]}"
                )

    integral_sum = 0.0
    for k, level in enumerate(net.levels):
        for pos, edge in enumerate(level.edges):
            if edge.is_plain:
                integral_sum += edge.cost.integral(flows[k][pos])
    return integral_sum + entropy_sum


def _gumbel_samples(
    costs: Sequence[float], gamma: float, n_samples: int, seed: int
) -> np.ndarray:
    """Per-sample utilities ``-cost + noise`` with mean-zero Gumbel noise."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n_samples, len(costs)))
    u = np.maximum(u, 1e-300)
    noise = -gamma * (np.log(-np.log(u)) + _EULER_MASCHERONI)
    return noise - np.asarray(costs, dtype=float)


def gumbel_monte_carlo(
    costs: Sequence[float], gamma: float, n_samples: int, seed: int
) -> np.ndarray:
    """Empirical choice shares of perturbed best response, fixed seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    utilities = _gumbel_samples(costs, gamma, n_samples, seed)
    winners = np.argmax(utilities, axis=1)
    return np.bincount(winners, minlength=len(costs)) / float(n_samples)


def gumbel_max_mean(
    costs: Sequence[float], gamma: float, n_samples: int, seed: int
) -> tuple[float, float]:
    """Sample mean of the best perturbed utility and its standard error."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    utilities = _gumbel_samples(costs, gamma, n_samples, seed)
    best = utilities.max(axis=1)
    return float(best.mean()), float(best.std(ddof=1) / math.sqrt(n_samples))


def fixed_point_small(
    net: NetworkHierarchy,
    tol: float = 1e-10,
    budget: int = 100,
    max_iters: int = 100_000,
) -> tuple[list[dict[str, float]], list[float]]:
    """Damped fixed-point solve of ``t = tau(f(t))`` on tiny instances.

    Independent of the dual solver: flows come from enumeration-based
    loading, times relax halfway toward the induced times each sweep.
    Returns per-level edge-flow maps and plain-edge times in canonical
    order.
    """
    costs: list[LinkCost] = net.plain_costs()
    t = net.free_flow_times()
    order = net.plain_edge_order()
    for _ in range(max_iters):
        flows, _ = loading_by_enumeration(net, t, budget)
        induced = [
            cost.travel_time(flows[k][net.levels[k].edges[i].id])
            for cost, (k, i) in zip(costs, order)
        ]
        residual = max(abs(a - b) for a, b in zip(t, induced))
        if residual <= tol:
            return flows, t
        t = [0.5 * a + 0.5 * b for a, b in zip(t, induced)]
    raise RuntimeError(f"fixed point not reached within {max_iters} iterations")
