"""Smoothed shortest paths and network loading.

The dual problem's smooth part is the demand-weighted soft-min travel cost
over all level-1 routes, where a portal edge's weight is the soft-min cost
of its target OD trip one level down. This module computes that value, its
gradient (minus the edge flows, obtained by propagating demand with logit
edge-choice probabilities), and the dual objective and path-free primal
value of the gap certificate. Nothing here enumerates routes; the
path-based primal is the oracle's, an independent cross-check.

Soft-min distances on a DAG level are exact in one reverse-topological
pass. On a cyclic level the soft-min sums over all walks, not just simple
paths: it is the walk sum of a Markov chain absorbed at the destination,
and one linear solve per destination gives it exactly (Akamatsu 1996,
"Cyclic flows, Markov process and stochastic traffic assignment"). The
through-flows of the loading are a second solve with the resulting choice
probabilities. A walk sum that diverges raises ``LoadingError``. Both
passes read each level's compiled index, ``LevelGraph.index``.

OD pairs enter only through their destinations: pairs that share one share
its soft-min field, and since flows and trajectory entropy are linear in
the through-flow, one forward pass carries the demand of all their origins
(the destination-based form of Dial's STOCH loading). On an acyclic level
each distinct destination costs one soft-min sweep and one forward pass,
both over only the nodes between that destination's origins and it
(``LevelIndex.dest_subgraphs``): elsewhere the soft-min is ``+inf`` and the
flow zero, so skipping them changes no result. A cyclic level runs each
pass once for all its destinations: one Bellman-Ford over a (destinations,
nodes) array and one stacked solve of the per-destination systems, in
groups of ``_STACK_FLOATS // n**2`` destinations (at least one) so that a
stack holds at most ``max(n**2, _STACK_FLOATS)`` floats. Each destination
sees the float operations of a pass of its own, so the grouping changes no
bit of the result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import LevelGraph, LevelIndex, NetworkHierarchy, Subgraph

__all__ = [
    "LoadResult",
    "LoadingError",
    "NoPathError",
    "MassLeakError",
    "softmin_potentials",
    "hierarchical_weights",
    "dual_smooth_value",
    "network_loading",
    "entropy_term",
    "surrogate_primal",
    "dual_objective",
    "verify_conservation",
]

_MASS_TOL = 1e-9  # leak budget for outgoing choice probabilities, plus rounding
# Floats in one stack of a cyclic level's (n, n) systems. Stacking every
# destination would take D * n**2 floats per pass (100 MB for 50
# destinations at n = 500); groups of _STACK_FLOATS // n**2 cap a stack at
# max(n**2, _STACK_FLOATS) floats (512 KiB), no more than one system takes
# for n >= 256, where the O(n**3) solve dwarfs numpy's cost per call anyway.
_STACK_FLOATS = 2**16


class LoadingError(Exception):
    pass


class NoPathError(LoadingError):
    pass


class MassLeakError(LoadingError):
    pass


@dataclass
class LoadResult:
    """One loading at a fixed dual point.

    ``smooth_value`` is the demand-weighted soft-min cost with flipped sign
    (the smooth dual term), ``flows`` covers every edge of every level,
    ``induced_demands`` holds the per-level OD demands (exogenous at level
    1, portal flows below), and ``entropies`` the per-level trajectory
    entropies of the logit route choice, weighted by demand. Minus the
    gamma-weighted entropy sum is the nested entropy term of the primal
    objective, which makes the primal computable without enumerating paths.
    """

    smooth_value: float
    flows: list[list[float]]
    induced_demands: list[list[float]]
    entropies: list[float]

    def plain_flows(self, net: NetworkHierarchy) -> list[float]:
        return [self.flows[k][i] for k, i in net.plain_edge_order()]


def _lse_min(terms: list[float], gamma: float) -> float:
    """-gamma * log sum exp(-term/gamma) with max shift; +inf on empty input."""
    best = math.inf
    for w in terms:
        if w < best:
            best = w
    if best == math.inf:
        return math.inf
    acc = 0.0
    for w in terms:
        acc += math.exp((best - w) / gamma)
    return best - gamma * math.log(acc)


def _softmin(
    index: LevelIndex, weights: Sequence[float], gamma: float, dst: int, graph: Subgraph
) -> list[float]:
    """Soft-min distance to ``dst`` per node on an acyclic level; the
    destination is absorbing.

    One field serves every OD pair of the level that ends at ``dst``. The
    sweep visits the nodes and edges of ``graph`` (the whole level, or the
    part of it that leads to ``dst``) and leaves every other node at
    ``+inf``.
    """
    rho = [math.inf] * index.n_nodes
    rho[dst] = 0.0
    heads, out_edges = index.heads, graph.out_edges
    for v in reversed(graph.topo):
        if v == dst:
            continue
        terms = [weights[e] + rho[heads[e]] for e in out_edges[v]]
        rho[v] = _lse_min(terms, gamma)
    return rho


def _divergent(index: LevelIndex, dst: int) -> LoadingError:
    return LoadingError(f"the walk sum to destination {index.nodes[dst]!r} diverges")


def _groups(n_nodes: int, items: Sequence) -> list:
    """``items`` in runs of ``max(1, _STACK_FLOATS // n_nodes**2)``, the
    destinations whose ``(n, n)`` systems one stack holds."""
    size = max(1, _STACK_FLOATS // n_nodes**2)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _walk_edges(tails, heads, n_nodes: int, dsts):
    """Per destination in the array ``dsts`` (one row each), the edges a
    walk toward it can take: all but those out of it, where the walk ends.

    ``tails`` and ``heads`` are the level's edge endpoints as arrays.
    Returns, row by row and in the level's edge order, each entry's row and
    edge position, and the positions of the edge's tail and head in the
    flattened ``(rows, nodes)`` array of per-row node values.
    """
    rows, edges = (tails != dsts[:, None]).nonzero()
    offset = rows * n_nodes
    return rows, edges, offset + tails[edges], offset + heads[edges]


def _softmin_cyclic(
    index: LevelIndex, weights: Sequence[float], gamma: float, dsts: Sequence[int]
) -> list[list[float]]:
    """Soft-min over all walks to each of ``dsts``, one field per
    destination, as ``rho = d - gamma * log(y)``.

    ``d`` is the shortest-path distance to the destination and ``y``
    solves ``(I - A) y = e_dst``, where ``A[v, u]`` sums ``exp(-(w + d[u] -
    d[v]) / gamma)`` over the edges ``v -> u``. The shift by ``d`` keeps
    every exponent at or below zero, so the solve does not depend on the
    unit of time. A positive ``y`` exists only when the walk sum converges:
    it bounds the spectral radius of ``A`` (Collatz-Wielandt). Otherwise
    ``LoadingError`` names the first destination, in the order of
    ``dsts``, whose sum diverges.

    Destinations are taken in groups (``_groups``): Bellman-Ford relaxes
    one ``(group, nodes)`` distance array, and one stacked solve gives
    every ``y`` of the group. Each row sees the same float operations, in
    the same order, as a solve for its destination alone.
    """
    # Imported here so that runs on DAG levels never load numpy.
    import numpy as np

    n = index.n_nodes
    w = np.asarray(weights, dtype=float)
    tails, heads = np.array(index.tails), np.array(index.heads)
    eye = np.eye(n)
    fields: list[list[float]] = []
    for group in _groups(n, dsts):
        g = len(group)
        dst = np.array(group)
        at_dst = np.arange(g) * n + dst
        rows, edges, at_tail, at_head = _walk_edges(tails, heads, n, dst)
        w_walk = w[edges]
        d = np.full(g * n, math.inf)
        d[at_dst] = 0.0
        # Bellman-Ford: shortest paths have at most n - 1 edges, so a change
        # in round n means a negative cycle, around which the walk sum
        # diverges. A row that stops changing stays fixed.
        bad = np.zeros(g, dtype=bool)
        for _ in range(n):
            relaxed = d.copy()
            np.minimum.at(relaxed, at_tail, w_walk + d[at_head])
            if (relaxed == d).all():
                break
            d, last = relaxed, d
        else:
            bad = (d != last).reshape(g, n).any(axis=1)
        # Edges into nodes that reach the destination; their tails reach it too.
        keep = np.isfinite(d[at_head]) & ~bad[rows]
        at_tail, at_head, w_walk = at_tail[keep], at_head[keep], w_walk[keep]
        system = np.empty((g, n, n))
        system[:] = eye
        np.subtract.at(
            system.reshape(-1),
            at_tail * n + heads[edges[keep]],
            np.exp((d[at_tail] - w_walk - d[at_head]) / gamma),
        )
        unit = np.zeros((g, n, 1))
        unit.reshape(-1)[at_dst] = 1.0
        try:
            y = np.linalg.solve(system, unit).reshape(-1)
        except np.linalg.LinAlgError:
            y = np.full((g, n, 1), math.nan)  # find the singular systems one by one
            for i in range(g):
                try:
                    y[i] = np.linalg.solve(system[i], unit[i])
                except np.linalg.LinAlgError:
                    pass
            y = y.reshape(-1)
        reach = np.isfinite(d)
        bad |= (reach & ~(np.isfinite(y) & (y > 0.0))).reshape(g, n).any(axis=1)
        if bad.any():
            raise _divergent(index, group[int(bad.argmax())])
        rho = np.full(g * n, math.inf)
        rho[reach] = d[reach] - gamma * np.log(y[reach])
        fields.extend(rho.reshape(g, n).tolist())
    return fields


def softmin_potentials(
    level: LevelGraph,
    weights: Mapping[str, float],
    gamma: float,
    dest: str,
) -> dict[str, float]:
    """Soft-min distance from every node to ``dest`` under per-edge weights.

    Unreachable nodes map to ``+inf``. The value at a trip's origin is the
    smoothed trip cost; it tends to the shortest-path distance as
    ``gamma -> 0``. On a cyclic level it sums over all walks and raises
    ``LoadingError`` when that sum diverges. An edge or OD pair naming a
    node the level lacks, or an edge missing from ``weights``, raises
    ``ValueError``.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    index = level.index
    if dest not in index.node_index:
        raise ValueError(f"unknown destination node {dest!r}")
    try:
        w = [float(weights[e.id]) for e in level.edges]
    except KeyError as err:
        raise ValueError(f"no weight for edge {err.args[0]!r} of the level") from None
    dst = index.node_index[dest]
    if index.topo is None:
        rho = _softmin_cyclic(index, w, gamma, [dst])[0]
    else:
        rho = _softmin(index, w, gamma, dst, index.whole)
    return {v: rho[i] for v, i in index.node_index.items()}


def _sweep_weights(
    net: NetworkHierarchy, t: Sequence[float]
) -> tuple[list[list[float]], list[list[list[float]]]]:
    """Bottom-up pass: per-level edge weights and per-destination soft-min
    fields, in the order of ``LevelIndex.dests``.

    A portal edge's weight is the soft-min trip cost of its target OD pair
    one level down, so levels are processed deepest first. Each field is
    finite only on its destination's subgraph, which holds every origin
    that can reach the destination. An infinite trip cost raises
    ``NoPathError`` if the trip has no route, and ``LoadingError`` if its
    cost overflowed.
    """
    m = net.num_levels
    weights: list[list[float] | None] = [None] * m
    rho_fields: list[list[list[float]]] = [[] for _ in range(m)]
    trip_cost: list[list[float]] = [[] for _ in range(m)]

    flat_pos = 0
    plain_values: list[list[float]] = [[] for _ in range(m)]
    for k, _ in net.plain_edge_order():
        plain_values[k].append(float(t[flat_pos]))
        flat_pos += 1

    for k in range(m - 1, -1, -1):
        level = net.levels[k]
        try:
            index = level.index
        except ValueError as err:
            raise ValueError(f"{err} at level {k + 1}") from None
        w = [0.0] * len(level.edges)
        it = iter(plain_values[k])
        for pos, edge in enumerate(level.edges):
            if edge.is_plain:
                w[pos] = next(it)
            else:
                w[pos] = trip_cost[k + 1][edge.target_od.od]
        weights[k] = w
        gamma = net.gammas[k]
        if index.topo is None:
            try:
                rho_fields[k] = _softmin_cyclic(index, w, gamma, index.dests)
            except LoadingError as err:
                raise LoadingError(f"{err} at level {k + 1}") from None
        else:
            rho_fields[k] = [
                _softmin(index, w, gamma, dst, graph)
                for dst, graph in zip(index.dests, index.dest_subgraphs)
            ]
        for j, (src, dst) in enumerate(index.od_nodes):
            cost = rho_fields[k][index.dest_slot[j]][src]
            if math.isinf(cost):
                od = level.od_pairs[j]
                trip = f"{od.origin!r} -> {od.destination!r} at level {k + 1}"
                if index.reaches(src, dst):
                    raise LoadingError(f"the trip cost {trip} overflows to inf")
                raise NoPathError(f"no path {trip}")
            trip_cost[k].append(cost)
    return weights, rho_fields


def hierarchical_weights(net: NetworkHierarchy, t: Sequence[float]) -> list[dict[str, float]]:
    """Per-level edge weights at dual point ``t`` (portal entries filled in)."""
    weights, _ = _sweep_weights(net, t)
    out = []
    for level, w in zip(net.levels, weights):
        out.append({e.id: w[pos] for pos, e in enumerate(level.edges)})
    return out


def dual_smooth_value(net: NetworkHierarchy, t: Sequence[float]) -> float:
    """Smooth dual term: minus the demand-weighted soft-min trip costs."""
    _, rho_fields = _sweep_weights(net, t)
    index = net.levels[0].index
    total = 0.0
    for j, od in enumerate(net.levels[0].od_pairs):
        src = index.od_nodes[j][0]
        total -= od.demand * rho_fields[0][index.dest_slot[j]][src]
    return total


def _forward_dag(
    index: LevelIndex,
    weights: Sequence[float],
    rho: Sequence[float],
    gamma: float,
    slot: int,
    supply: list[float],
    flows: list[float],
    k: int,
) -> float:
    """Carry the demand bound for destination ``slot`` to it in one
    topological sweep of its subgraph, which holds all the flow.

    ``supply[v]`` is the summed demand of the level's OD pairs from node
    ``v`` to that destination; it becomes the through-flow in place. Adds
    the edge flows to ``flows`` and returns the demand-weighted trajectory
    entropy. ``k`` is the level's position, for error messages.
    """
    dst = index.dests[slot]
    graph = index.dest_subgraphs[slot]
    heads, out_edges = index.heads, graph.out_edges
    through = supply
    entropy = 0.0
    for v in graph.topo:
        h = through[v]
        if h <= 0.0 or v == dst:
            continue
        if math.isinf(rho[v]):
            raise NoPathError(
                f"flow toward {index.nodes[dst]!r} reached node {index.nodes[v]!r}, "
                f"which has no route to it, at level {k + 1}"
            )
        out = out_edges[v]
        probs = [math.exp((rho[v] - weights[e] - rho[heads[e]]) / gamma) for e in out]
        mass = sum(probs)
        leak = abs(mass - 1.0)
        if leak > _MASS_TOL and leak > _leak_budget(index, weights, rho, gamma, v, out, probs):
            raise MassLeakError(
                f"choice probabilities out of node {index.nodes[v]!r} toward "
                f"{index.nodes[dst]!r} sum to {mass} at level {k + 1}"
            )
        local = 0.0
        for e, p in zip(out, probs):
            p /= mass  # exact conservation; the raw sum is 1 up to rounding
            if p > 0.0:
                local -= p * math.log(p)
                flows[e] += h * p
                through[heads[e]] += h * p
        entropy += h * local
    return entropy


def _leak_budget(
    index: LevelIndex,
    weights: Sequence[float],
    rho: Sequence[float],
    gamma: float,
    v: int,
    out: Sequence[int],
    probs: Sequence[float],
) -> float:
    """Mass deviation at node ``v`` that the rounding of the potentials explains.

    Each exponent is a difference of a potential, a weight and a potential,
    so it is off by a few ulps of their magnitudes over ``gamma``, and
    ``exp`` turns that into the same relative error of the probability.
    Large potentials against a small ``gamma`` thus leave the raw sum
    further from 1 than ``_MASS_TOL`` without any mass being lost. ``out``
    lists the edges out of ``v`` that ``probs`` belong to.
    """
    spread = 0.0
    for e, p in zip(out, probs):
        if p > 0.0:
            spread += p * (abs(rho[v]) + abs(weights[e]) + abs(rho[index.heads[e]]))
    return _MASS_TOL + 4.0 * sys.float_info.epsilon * spread / gamma


def _forward_cyclic(
    index: LevelIndex,
    weights: Sequence[float],
    rho_fields: Sequence[Sequence[float]],
    gamma: float,
    supplies: Mapping[int, Sequence[float]],
    flows: list[float],
) -> float:
    """Walk-measure loading of a cyclic level toward every destination slot
    in ``supplies``, over the whole level: the expected node visits solve
    ``(I - Q^T) h = supply``, one solve for every origin bound for it.

    ``supplies`` maps a destination slot to the summed demand per origin
    node; ``rho_fields`` holds the soft-min field per slot. Adds the edge
    flows to ``flows``, destination by destination in the order of
    ``supplies``, and returns the demand-weighted trajectory entropy summed
    in that order. Destinations are taken in the groups of
    ``_softmin_cyclic``, each one stacked computation of the choice
    probabilities and one stacked solve.
    """
    import numpy as np

    n = index.n_nodes
    w = np.asarray(weights, dtype=float)
    tails, heads = np.array(index.tails), np.array(index.heads)
    eye = np.eye(n)
    entropy = 0.0
    for group in _groups(n, list(supplies)):
        g = len(group)
        r = np.array([rho_fields[slot] for slot in group]).reshape(-1)
        dst = np.array([index.dests[slot] for slot in group])
        rows, edges, at_tail, at_head = _walk_edges(tails, heads, n, dst)
        live = np.isfinite(r[at_head])
        rows, edges, at_tail, at_head = rows[live], edges[live], at_tail[live], at_head[live]
        probs = np.exp((r[at_tail] - w[edges] - r[at_head]) / gamma)
        mass = np.zeros(g * n)
        np.add.at(mass, at_tail, probs)
        probs /= mass[at_tail]  # exact conservation; the raw sums are 1 up to rounding
        system = np.empty((g, n, n))  # I - Q^T per destination
        system[:] = eye
        np.subtract.at(system.reshape(-1), at_head * n + tails[edges], probs)
        supply = np.array([supplies[slot] for slot in group])[:, :, None]
        # The exact visits are nonnegative; clip rounding residue below zero.
        through = np.maximum(np.linalg.solve(system, supply).reshape(-1), 0.0)
        edge_flows = through[at_tail] * probs
        for e, f in zip(edges.tolist(), edge_flows.tolist()):
            flows[e] += f
        used = probs > 0.0
        used_flows, logs = edge_flows[used], np.log(probs[used])
        bounds = np.searchsorted(rows[used], np.arange(g + 1)).tolist()
        for lo, hi in zip(bounds, bounds[1:]):  # one destination each
            entropy -= float(np.dot(used_flows[lo:hi], logs[lo:hi]))
    return entropy


def network_loading(net: NetworkHierarchy, t: Sequence[float]) -> LoadResult:
    """Edge flows induced by logit route choice at dual point ``t``.

    The plain-edge flows are minus the gradient of ``dual_smooth_value``
    componentwise. Portal flows become the next level's OD demands, so the
    sweep runs top-down after the bottom-up weight pass. An acyclic level
    runs one forward pass per destination with positive demand, a cyclic
    level one batched pass over all of them.
    """
    weights, rho_fields = _sweep_weights(net, t)
    m = net.num_levels

    demands: list[list[float]] = [[] for _ in range(m)]
    demands[0] = [od.demand for od in net.levels[0].od_pairs]
    flows: list[list[float]] = []
    entropies: list[float] = []
    smooth = 0.0
    for k in range(m):
        level, gamma = net.levels[k], net.gammas[k]
        index = level.index
        level_flows = [0.0] * len(level.edges)
        level_entropy = 0.0
        supplies: dict[int, list[float]] = {}  # destination slot -> demand per origin
        for j, (src, dst) in enumerate(index.od_nodes):
            d = demands[k][j]
            slot = index.dest_slot[j]
            if k == 0:
                smooth -= d * rho_fields[0][slot][src]
            if d <= 0.0 or src == dst:
                continue
            if slot not in supplies:
                supplies[slot] = [0.0] * index.n_nodes
            supplies[slot][src] += d
        if index.topo is None:
            level_entropy = _forward_cyclic(
                index, weights[k], rho_fields[k], gamma, supplies, level_flows
            )
        else:
            for slot, supply in supplies.items():
                level_entropy += _forward_dag(
                    index, weights[k], rho_fields[k][slot], gamma, slot, supply, level_flows, k
                )
        flows.append(level_flows)
        entropies.append(level_entropy)
        if k + 1 < m:
            demands[k + 1] = [
                level_flows[index.portal_for_od[j]]
                for j in range(len(net.levels[k + 1].od_pairs))
            ]
    return LoadResult(
        smooth_value=smooth, flows=flows, induced_demands=demands, entropies=entropies
    )


def entropy_term(net: NetworkHierarchy, result: LoadResult) -> float:
    """Nested entropy part of the primal objective for one loading."""
    return -sum(g * e for g, e in zip(net.gammas, result.entropies))


def surrogate_primal(
    net: NetworkHierarchy, flows: Sequence[Sequence[float]], entropy: float
) -> float:
    """Path-free primal value: cost integrals at the flows plus a supplied
    nested-entropy term (exact for one loading, an upper bound for averages)."""
    total = entropy
    for k, pos in net.plain_edge_order():
        total += net.levels[k].edges[pos].cost.integral(flows[k][pos])
    return total


def dual_objective(net: NetworkHierarchy, t: Sequence[float]) -> float:
    """Objective the solver minimises: smooth term plus conjugate penalties."""
    composite = 0.0
    for cost, value in zip(net.plain_costs(), t, strict=True):
        c = cost.conjugate(value)
        if math.isinf(c):
            raise ValueError(f"time {value} outside the conjugate domain")
        composite += c
    return dual_smooth_value(net, t) + composite


def verify_conservation(
    net: NetworkHierarchy, result: LoadResult, tol: float = 1e-9
) -> None:
    """Raise unless flow balances at every node and portals feed demands."""
    for k, level in enumerate(net.levels):
        index = level.index
        scale = 1.0 + max((abs(v) for v in result.flows[k]), default=0.0)
        balance = [0.0] * index.n_nodes
        for pos in range(len(level.edges)):
            balance[index.tails[pos]] -= result.flows[k][pos]
            balance[index.heads[pos]] += result.flows[k][pos]
        for j, (src, dst) in enumerate(index.od_nodes):
            d = result.induced_demands[k][j]
            balance[src] += d
            balance[dst] -= d
        for v, residual in enumerate(balance):
            if abs(residual) > tol * scale:
                raise AssertionError(
                    f"flow imbalance {residual} at node {level.nodes[v]!r}, level {k + 1}"
                )
        if k + 1 < net.num_levels:
            for j in range(len(net.levels[k + 1].od_pairs)):
                portal_flow = result.flows[k][index.portal_for_od[j]]
                if abs(portal_flow - result.induced_demands[k + 1][j]) > tol * scale:
                    raise AssertionError(
                        f"portal flow and induced demand disagree for level-{k + 2} OD {j}"
                    )
