"""Smoothed shortest paths and network loading.

The dual problem's smooth part is the demand-weighted soft-min travel cost
over all level-1 routes, where a portal edge's weight is the soft-min cost
of its target OD trip one level down. This module computes that value, its
gradient (minus the edge flows, obtained by propagating demand with logit
edge-choice probabilities), and the dual objective and path-free primal
value of the gap certificate. The soft-min fields stay inside the
module: a trip's smoothed cost reaches callers as the weight of the portal
edge bound to it (``hierarchical_weights``). Nothing here enumerates
routes; the path-based primal is the oracle's, an independent cross-check.

Soft-min distances on a DAG level are exact in one reverse-topological
pass. On a cyclic level the soft-min sums over all walks, not just simple
paths: it is the walk sum of a Markov chain absorbed at the destination,
and one linear solve per destination gives it exactly (Akamatsu 1996,
"Cyclic flows, Markov process and stochastic traffic assignment"). A walk
sum that diverges raises ``LoadingError``. Both passes read each level's
compiled index, ``LevelGraph.index``.

Every level has one contract between its passes. The sweep hands back
one trip cost per OD pair, the soft-min cost from its origin to its
destination. For a gradient, it also keeps the logit choice toward each
destination (``_Choice``: each edge's probability, each node's entropy),
from the ``exp``s it pays once per edge (on an acyclic level, once per
edge out of a node with several exits); the forward pass only propagates
flow through that choice, with no ``exp`` or ``log`` of its own. A value
runs the same sweep and keeps no choice.

OD pairs enter only through their destinations: pairs that share one share
its soft-min field, and since flows and trajectory entropy are linear in
the through-flow, one forward pass carries the demand of all their origins
(the destination-based form of Dial's STOCH loading). On an acyclic level
each distinct destination's field covers only the nodes between that
destination's origins and it: elsewhere the soft-min is ``+inf`` and the
flow zero, so skipping them changes no result. The level compiles those
nodes once, on its first loading, into one program per level
(``LevelIndex.program``, a ``LevelProgram``): per destination slot, its
steps in reverse Kahn order, each exit naming its edge, the position of
its head in the level's flat per-loading arrays and, at a node with
several exits, the position of its choice probability. A loading makes
one sweep call over every slot and one forward call that runs the slots
with demand, backwards, with multiply-adds only; no pass looks a head up
or allocates per destination. A node with one exit costs no ``exp`` or
``log``: its soft-min value is its one term, and it passes all its flow
on, with entropy 0.0, the bits the general formula gives.

A cyclic level runs each pass once for all its destinations: one
Bellman-Ford over a (destinations, nodes) array and one stacked solve of
the per-destination systems, in groups of ``_STACK_FLOATS // n**2``
destinations (at least one) so that a stack holds at most ``max(n**2,
_STACK_FLOATS)`` floats. Each destination sees the float operations of a
pass of its own, so the grouping changes no bit of the result. The level
is compiled once into the arrays of those passes (``_CyclicPlan``, kept
as ``LevelIndex.cyclic_plan``): per group, the walk edges of each
destination and their flat positions in the node arrays and the systems.
A pass then only gathers, relaxes, exponentiates, solves and scatters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .model import LevelIndex, NetworkHierarchy

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LoadResult",
    "LoadingError",
    "NoPathError",
    "MassLeakError",
    "hierarchical_weights",
    "dual_smooth_value",
    "network_loading",
    "entropy_term",
    "surrogate_primal",
    "dual_objective",
    "verify_conservation",
]

_MASS_TOL = 1e-9  # how far the choice probabilities out of a node may sum from 1
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


class _SmoothOverflow(LoadingError):
    """Every trip cost is finite, but the smooth dual value is not."""


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


class _Choice(NamedTuple):
    """Logit edge choice toward the destinations of a level, kept by the
    gradient's sweep for its forward pass.

    On an acyclic level one choice for all its destinations, in the flat
    arrays of its program (``LevelProgram``): ``probs[c]`` is the
    probability that flow at a node with several exits takes the exit at
    choice position ``c``; it stays 0.0 at nodes with no route. A node with
    one exit passes on all its flow and has no entry. ``entropy[v]`` is the
    entropy of the choice at node position ``v``. On a cyclic level one
    choice per group of destinations of its plan, in arrays: ``probs`` per
    walk edge of the group, in the order of its ``rows``, and ``entropy``
    per destination and node.
    """

    probs: Sequence[float]
    entropy: Sequence[float]


def _softmin(
    index: LevelIndex,
    weights: Sequence[float],
    gamma: float,
    choice: _Choice | None = None,
) -> list[float]:
    """Soft-min distance to each destination of an acyclic level, per
    position of its program (``LevelIndex.program``); the destinations are
    absorbing.

    One field per destination slot serves every OD pair of the level that
    ends there. The sweep runs the program's steps, each slot's in reverse
    Kahn order, and leaves every position it does not reach at ``+inf``. At
    a node with several exits it shifts the terms ``weights[e] + rho[head]``
    by their minimum ``best`` and sums their ``exp``s left to right into
    ``acc >= 1``, so ``rho[v] = best - gamma * log(acc)``. Each ``exp`` is
    also stored at the exit's choice position: in the ``choice``'s
    ``probs``, or in a scratch list when only the value is wanted, in which
    case the node is done. At a node with one exit ``rho[v]`` is the term
    itself, with no ``exp`` or ``log``: the very bits the shifted sum gives,
    since its one ``exp`` is of 0.0. A term of ``+inf`` or NaN leaves the
    node without a route, as the minimum does at a node with several exits.

    Given a ``choice``, the sweep goes on to fill it in for every node with
    several exits and a route: the probability ``ex_e / acc`` of each exit
    and the node's entropy ``sum_e p_e (term_e - rho[v]) / gamma``. That
    form is anchored at the rounded ``rho[v]``, so the primal of one loading
    telescopes against the very potentials of the dual. A node with one exit
    keeps its entropy of 0.0.
    """
    program = index.program
    rho = program.rho.copy()
    exp, log, inf = math.exp, math.log, math.inf
    probs, entropy = choice or ([0.0] * program.n_choices, None)
    for v, run in zip(program.at_dst, program.runs):
        for edge, head in run:
            v += 1
            if edge >= 0:
                term = weights[edge] + rho[head]
                if term < inf:
                    rho[v] = term
                continue
            best = inf
            for e, u, _ in head:
                term = weights[e] + rho[u]
                if term < best:
                    best = term
            if best == inf:
                continue
            acc = 0.0
            for e, u, c in head:
                ex = probs[c] = exp((best - (weights[e] + rho[u])) / gamma)
                acc += ex
            r = rho[v] = best - gamma * log(acc)
            if entropy is None:
                continue
            h = 0.0
            for e, u, c in head:
                p = probs[c] = probs[c] / acc
                if p > 0.0:  # a term of +inf has no share and no entropy
                    h += p * (weights[e] + rho[u] - r)
            entropy[v] = h / gamma
    return rho


def _divergent(index: LevelIndex, dst: int) -> LoadingError:
    return LoadingError(f"the walk sum to destination {index.nodes[dst]!r} diverges")


def _groups(n_nodes: int, items: Sequence) -> list:
    """``items`` in runs of ``max(1, _STACK_FLOATS // n_nodes**2)``, the
    destinations whose ``(n, n)`` systems one stack holds."""
    size = max(1, _STACK_FLOATS // n_nodes**2)
    return [items[i:i + size] for i in range(0, len(items), size)]


class _CyclicGroup(NamedTuple):
    """The arrays of one stack of a cyclic level's destinations.

    Row ``i`` of the group's ``(g, n)`` node arrays and ``(g, n, n)``
    systems belongs to destination ``dsts[i]``; ``slots`` are the positions
    of the group's destinations in the plan's list. ``rows`` and ``edges``
    list the edges a walk toward each row's destination can take (every
    edge not out of it), row by row in edge order, and each ``at_*`` array
    gives, per such edge, a flat position: ``at_tail`` and ``at_head`` of
    its tail and head in the node arrays, ``walk_at`` of its entry
    ``A[tail, head]`` in the sweep's system and ``visit_at`` of its entry
    ``Q^T[head, tail]`` in the forward pass's. ``at_dst`` holds each
    destination's position in the node arrays.
    """

    dsts: list[int]
    slots: range
    at_dst: np.ndarray
    rows: np.ndarray
    edges: np.ndarray
    at_tail: np.ndarray
    at_head: np.ndarray
    walk_at: np.ndarray
    visit_at: np.ndarray


class _CyclicPlan(NamedTuple):
    """A cyclic level's passes toward a list of destinations, compiled once:
    the ``(n, n)`` identity every system starts from and the destinations in
    groups (``_groups``), each with its ``_CyclicGroup`` arrays; with them,
    the ``_STACK_FLOATS`` that sized the groups. It holds ``O(D E + n**2)``
    numbers for ``D`` destinations and ``E`` edges, no stack of systems."""

    stack_floats: int
    eye: np.ndarray
    groups: list[_CyclicGroup]


def _compile_cyclic(index: LevelIndex, dsts: Sequence[int]) -> _CyclicPlan:
    import numpy as np

    n = index.n_nodes
    tails = np.array(index.tails, dtype=np.intp)
    heads = np.array(index.heads, dtype=np.intp)
    groups = []
    start = 0
    for group in _groups(n, list(dsts)):
        g = len(group)
        dst = np.array(group, dtype=np.intp)
        rows, edges = (tails != dst[:, None]).nonzero()
        at_tail, at_head = rows * n + tails[edges], rows * n + heads[edges]
        groups.append(_CyclicGroup(
            dsts=group,
            slots=range(start, start + g),
            at_dst=np.arange(g) * n + dst,
            rows=rows,
            edges=edges,
            at_tail=at_tail,
            at_head=at_head,
            walk_at=at_tail * n + heads[edges],
            visit_at=(rows * n + heads[edges]) * n + tails[edges],
        ))
        start += g
    return _CyclicPlan(_STACK_FLOATS, np.eye(n), groups)


def _cyclic_plan(index: LevelIndex, dsts: Sequence[int]) -> _CyclicPlan:
    """The compiled passes of a cyclic level toward ``dsts``: for the
    level's own destinations, the plan kept on the index, compiled on first
    use and again only if ``_STACK_FLOATS`` has changed since; for any
    other list, one compiled for the call."""
    if list(dsts) != index.dests:
        return _compile_cyclic(index, dsts)
    plan = index.cyclic_plan
    if plan is None or plan.stack_floats != _STACK_FLOATS:
        plan = index.cyclic_plan = _compile_cyclic(index, dsts)
    return plan


def _softmin_cyclic(
    index: LevelIndex,
    weights: Sequence[float],
    gamma: float,
    dsts: Sequence[int],
    choices: list[_Choice] | None = None,
) -> list[list[float]]:
    """Soft-min over all walks to each of ``dsts``, one field per
    destination, as ``rho = d - gamma * log(y)``.

    ``d`` is the shortest-path distance to the destination and ``y``
    solves ``(I - A) y = e_dst``, where ``A[v, u]`` sums ``exp(-(w + d[u] -
    d[v]) / gamma)`` over the edges ``v -> u``; the edges out of the
    destination are left out, since a walk ends there. The shift by ``d``
    keeps every exponent at or below zero, so the solve does not depend on
    the unit of time. A positive ``y`` exists only when the walk sum
    converges: it bounds the spectral radius of ``A`` (Collatz-Wielandt).
    Otherwise ``LoadingError`` names the first destination, in the order of
    ``dsts``, whose sum diverges. A ``gamma * log(y)`` that overflows makes
    the field infinite, which the sweep reports as an overflowing trip cost.

    Given ``choices``, the sweep appends the logit choice toward each group
    of destinations (below), as ``_softmin`` does for its level: the
    probability of each of the group's walk edges, in its ``rows`` order,
    and a ``(group, nodes)`` array of node entropies. An edge's share is its
    term of ``y[v] = sum_e A_e y[u]``: ``A_e * y[u] / y[v]``, divided by
    the sum of its tail's shares so that each node's probabilities add up
    to 1. A node's entropy sums ``p_e (log y[v] - log y[u] - x_e)`` over its
    out-edges, where ``x_e`` is ``A_e``'s exponent: ``_softmin``'s ``p_e
    (term_e - rho[v]) / gamma`` with ``rho`` written out, formed from
    numbers that stay finite at any ``gamma``, since a positive share
    bounds ``x_e`` by about -745.

    Destinations are taken in the groups of their plan (``_cyclic_plan``):
    Bellman-Ford relaxes one ``(group, nodes)`` distance array, and one
    stacked solve gives every ``y`` of the group. The passes only gather,
    relax, exponentiate, solve and scatter through the plan's positions.
    Each row sees the same float operations, in the same order, as a solve
    for its destination alone.
    """
    # Imported here so that runs on DAG levels never load numpy.
    import numpy as np

    plan = _cyclic_plan(index, dsts)
    n = index.n_nodes
    w = np.asarray(weights, dtype=float)
    fields: list[list[float]] = []
    for group in plan.groups:
        g = len(group.dsts)
        rows, at_tail, at_head = group.rows, group.at_tail, group.at_head
        w_walk = w[group.edges]
        d = np.full(g * n, math.inf)
        d[group.at_dst] = 0.0
        # Bellman-Ford: shortest paths have at most n - 1 edges, so a change
        # in round n means a negative cycle, around which the walk sum
        # diverges. A row that stops changing stays fixed.
        # A distance that overflows is +inf, as if the node could not reach
        # the destination: its trip cost then reads +inf, which the sweep
        # reports as an overflow, and the edges at it are dropped below.
        bad = np.zeros(g, dtype=bool)
        with np.errstate(over="ignore"):
            for _ in range(n):
                relaxed = d.copy()
                np.minimum.at(relaxed, at_tail, w_walk + d[at_head])
                if (relaxed == d).all():
                    break
                d, last = relaxed, d
            else:
                bad = (d != last).reshape(g, n).any(axis=1)
            # Edges between nodes at a finite distance; without an overflow,
            # every edge into a node that reaches the destination.
            keep = np.isfinite(d[at_head]) & np.isfinite(d[at_tail]) & ~bad[rows]
            at_tail, at_head, w_walk = at_tail[keep], at_head[keep], w_walk[keep]
            # An exponent that overflows to -inf is a term that rounds to 0.
            expo = (d[at_tail] - w_walk - d[at_head]) / gamma
            walk = np.exp(expo)
        system = np.empty((g, n, n))
        system[:] = plan.eye
        np.subtract.at(system.reshape(-1), group.walk_at[keep], walk)
        unit = np.zeros((g, n, 1))
        unit.reshape(-1)[group.at_dst] = 1.0
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
            raise _divergent(index, group.dsts[int(bad.argmax())])
        # Where no walk reaches the destination, d is +inf and so is rho.
        log_y = np.zeros(g * n)
        log_y[reach] = np.log(y[reach])
        with np.errstate(over="ignore"):
            rho = d - gamma * log_y
        fields.extend(rho.reshape(g, n).tolist())
        if choices is None:
            continue
        share = walk * y[at_head] / y[at_tail]
        mass = np.zeros(g * n)
        np.add.at(mass, at_tail, share)
        share /= mass[at_tail]  # exact conservation; the raw sums are 1 up to rounding
        probs = np.zeros(len(rows))
        probs[keep] = share
        used = share > 0.0  # a term that rounds to 0 has no share and no entropy
        at, p = at_tail[used], share[used]
        entropy = np.zeros(g * n)
        np.add.at(entropy, at, p * ((log_y[at] - log_y[at_head[used]]) - expo[used]))
        choices.append(_Choice(probs, entropy.reshape(g, n)))
    return fields


def _sweep_weights(
    net: NetworkHierarchy, t: Sequence[float], keep_choices: bool = False
) -> tuple[list[Sequence[float]], list[list[float]], list[_Choice | list[_Choice] | None]]:
    """Bottom-up pass: per-level edge weights, per-level trip costs (the
    soft-min cost of each OD pair, in OD order), and, with
    ``keep_choices``, the logit choice of each level (``_Choice``): one for
    an acyclic level, a list of one per group of its plan for a cyclic one
    (``None`` per level without ``keep_choices``).

    A portal edge's weight is the soft-min trip cost of its target OD pair
    one level down, so levels are processed deepest first. Each level's
    weights come from its gather, compiled once from the plain-edge order
    (``NetworkHierarchy.weight_gathers``): the level's contiguous slice of
    ``t``, with the next level's trip costs after it, picked into edge order
    in one call. So ``t`` must hold exactly one value per plain edge, or
    ``ValueError`` names both lengths; a longer or shorter ``t`` would
    shift the slices and misread the trip costs. A NaN or infinite value
    raises ``ValueError`` naming its edge and level. An acyclic level makes
    one sweep over its program, whose fields are finite only on each
    destination's subgraph, which holds every origin that can reach the
    destination. A trip cost that is not finite raises ``NoPathError`` if
    it is ``+inf`` because the trip has no route, and otherwise
    ``LoadingError`` naming the trip and the value: ``+inf`` or ``-inf``
    for a cost that overflowed, ``nan`` for one that subtracted infinities.
    """
    n_plain = net.num_plain_edges()
    if len(t) != n_plain:
        raise ValueError(f"expected {n_plain} dual values, one per plain edge, got {len(t)}")
    values = list(map(float, t))
    # A sum is finite only if every term is, so one sum screens the vector;
    # a finite vector whose sum overflows passes the scan.
    if not math.isfinite(sum(values)):
        for value, (k, i) in zip(values, net.plain_edge_order()):
            if not math.isfinite(value):
                edge_id = net.levels[k].edges[i].id
                raise ValueError(
                    f"non-finite time {value} for plain edge {edge_id!r} at level {k + 1}"
                )
    gathers = net.weight_gathers()
    m = net.num_levels
    weights: list[Sequence[float]] = [()] * m
    choices: list[_Choice | list[_Choice] | None] = [None] * m
    trip_costs: list[list[float]] = [[] for _ in range(m)]

    for k in range(m - 1, -1, -1):
        level = net.levels[k]
        try:
            index = level.index
        except ValueError as err:
            raise ValueError(f"{err} at level {k + 1}") from None
        start, stop, pick = gathers[k]
        w = values[start:stop]
        if pick is not None:
            w = pick(w + trip_costs[k + 1])
        weights[k] = w
        gamma = net.gammas[k]
        if index.topo is None:
            kept = [] if keep_choices else None
            try:
                fields = _softmin_cyclic(index, w, gamma, index.dests, kept)
            except LoadingError as err:
                raise LoadingError(f"{err} at level {k + 1}") from None
            choices[k] = kept
            costs = [fields[slot][src] for (src, _), slot in zip(index.od_nodes, index.dest_slot)]
        else:
            program = index.program
            choice = None
            if keep_choices:
                choice = choices[k] = _Choice([0.0] * program.n_choices, [0.0] * len(program.rho))
            rho = _softmin(index, w, gamma, choice)
            costs = [rho[at] for at in program.at_origin]
        if not math.isfinite(sum(costs)):
            for j, cost in enumerate(costs):
                if not math.isfinite(cost):
                    src, dst = index.od_nodes[j]
                    od = level.od_pairs[j]
                    trip = f"{od.origin!r} -> {od.destination!r} at level {k + 1}"
                    if cost != cost:
                        raise LoadingError(f"the trip cost {trip} is nan")
                    if cost < 0.0:
                        raise LoadingError(f"the trip cost {trip} overflows to -inf")
                    if index.reaches(src, dst):
                        raise LoadingError(f"the trip cost {trip} overflows to +inf")
                    raise NoPathError(f"no path {trip}")
        trip_costs[k] = costs
    return weights, trip_costs, choices


def hierarchical_weights(net: NetworkHierarchy, t: Sequence[float]) -> list[dict[str, float]]:
    """Per-level edge weights at dual point ``t`` (portal entries filled in)."""
    weights, _, _ = _sweep_weights(net, t)
    out = []
    for level, w in zip(net.levels, weights):
        out.append({e.id: w[pos] for pos, e in enumerate(level.edges)})
    return out


def dual_smooth_value(net: NetworkHierarchy, t: Sequence[float]) -> float:
    """Smooth dual term: minus the demand-weighted soft-min trip costs."""
    _, trip_costs, _ = _sweep_weights(net, t)
    return _smooth_value(net, trip_costs[0])


def _smooth_value(net: NetworkHierarchy, trip_costs: Sequence[float]) -> float:
    """Minus the level-1 demands times ``trip_costs``, summed in OD order.
    Finite trip costs can still give a product or a sum past the float
    range; a total that is not finite raises ``LoadingError`` naming it."""
    total = 0.0
    for od, cost in zip(net.levels[0].od_pairs, trip_costs):
        total -= od.demand * cost
    if not math.isfinite(total):
        if total != total:
            raise _SmoothOverflow("the smooth dual value is nan")
        raise _SmoothOverflow(f"the smooth dual value overflows to {total:+}")
    return total


def _forward_dag(
    index: LevelIndex,
    choice: _Choice,
    order: Sequence[int],
    through: list[float],
    flows: list[float],
    k: int,
) -> float:
    """Carry the demand of an acyclic level to its destinations by the
    ``choice`` its soft-min sweep kept, one destination slot after another
    in ``order``, each by the steps of its run of the level's program in
    Kahn order; its run holds all its flow.

    ``through`` holds the demand placed at each origin's position, summed
    over the OD pairs from it to its slot's destination; it becomes the
    through-flow in place. Adds the edge flows to ``flows`` and returns the
    demand-weighted trajectory entropy, summed per slot and then over the
    slots in ``order``. A node with one exit moves its whole through-flow
    along it, with entropy 0. At a node with several, the probabilities out
    of it, if flow reaches it, must sum to 1 within ``_MASS_TOL``, or
    ``MassLeakError`` names the node and the destination. Flow reaches only
    nodes with a route: the sweep checks each origin, and an edge into a
    node without one has probability 0. ``k`` is the level's position, for
    error messages.
    """
    program = index.program
    probs, node_entropy = choice
    total = 0.0
    for slot in order:
        entropy = 0.0
        run = program.runs[slot]
        v = program.at_dst[slot] + len(run) + 1
        for edge, head in reversed(run):
            v -= 1
            h = through[v]
            if h <= 0.0:
                continue
            if edge >= 0:
                flows[edge] += h
                through[head] += h
                continue
            mass = 0.0
            for e, u, c in head:
                p = probs[c]
                mass += p
                q = h * p
                flows[e] += q
                through[u] += q
            if abs(mass - 1.0) > _MASS_TOL:
                raise MassLeakError(
                    f"choice probabilities out of node {index.nodes[program.node_at[v]]!r} "
                    f"toward {index.nodes[index.dests[slot]]!r} sum to {mass} at level {k + 1}"
                )
            entropy += h * node_entropy[v]
        total += entropy
    return total


def _forward_cyclic(
    index: LevelIndex,
    choices: Sequence[_Choice],
    supplies: Mapping[int, Sequence[float]],
) -> tuple[list[float], float]:
    """Walk-measure loading of a cyclic level toward every destination slot
    in ``supplies``, over the whole level, by the ``choices`` its soft-min
    sweep kept, one per group of the level's plan: the expected node visits
    solve ``(I - Q^T) h = supply``, one solve for every origin bound for the
    destination.

    ``supplies`` maps a destination slot to the summed demand per origin
    node. Returns the edge flows, summed destination by destination in the
    order of ``supplies``, and the demand-weighted trajectory entropy summed
    in that order. Each group with a supplied destination takes one stacked
    solve; an edge a row's sweep dropped has probability 0 there, which
    leaves its system entry and flow as they are.
    """
    import numpy as np

    n, n_edges = index.n_nodes, len(index.tails)
    plan = _cyclic_plan(index, index.dests)
    supply = np.zeros((len(index.dests), n))
    for slot, s in supplies.items():
        supply[slot] = s
    through = np.zeros((len(index.dests), n))
    edge_flows = np.zeros((len(index.dests), n_edges))
    entropies = []
    for group, (probs, entropy) in zip(plan.groups, choices):
        entropies.extend(entropy)
        at = slice(group.slots.start, group.slots.stop)
        if not any(slot in supplies for slot in group.slots):
            continue
        g = len(group.dsts)
        system = np.empty((g, n, n))  # I - Q^T per destination
        system[:] = plan.eye
        np.subtract.at(system.reshape(-1), group.visit_at, probs)
        # The exact visits are nonnegative; clip rounding residue below zero.
        visits = np.maximum(np.linalg.solve(system, supply[at, :, None]).reshape(g, n), 0.0)
        through[at] = visits
        edge_flows[at][group.rows, group.edges] = visits.reshape(-1)[group.at_tail] * probs
    flows = np.zeros(n_edges)
    total = 0.0
    for slot in supplies:
        flows += edge_flows[slot]
        total += float(np.dot(through[slot], entropies[slot]))
    return flows.tolist(), total


def network_loading(net: NetworkHierarchy, t: Sequence[float]) -> LoadResult:
    """Edge flows induced by logit route choice at dual point ``t``.

    The plain-edge flows are minus the gradient of ``dual_smooth_value``
    componentwise. Portal flows become the next level's OD demands, so the
    sweep runs top-down after the bottom-up weight pass. Each level runs
    one forward pass over all its destinations with positive demand: an
    acyclic level through its program, a cyclic level one batched pass.
    """
    _, trip_costs, choices = _sweep_weights(net, t, keep_choices=True)
    m = net.num_levels

    demands: list[list[float]] = [[] for _ in range(m)]
    demands[0] = [od.demand for od in net.levels[0].od_pairs]
    smooth = _smooth_value(net, trip_costs[0])
    flows: list[list[float]] = []
    entropies: list[float] = []
    for k in range(m):
        level = net.levels[k]
        index = level.index
        demand = demands[k]
        if index.topo is None:
            supplies: dict[int, list[float]] = {}  # destination slot -> demand per origin
            for j, (src, dst) in enumerate(index.od_nodes):
                d = demand[j]
                slot = index.dest_slot[j]
                if d <= 0.0 or src == dst:
                    continue
                if slot not in supplies:
                    supplies[slot] = [0.0] * index.n_nodes
                supplies[slot][src] += d
            level_flows, level_entropy = _forward_cyclic(index, choices[k], supplies)
        else:
            # Slots run in the order their first demand arrives in, so that
            # edge flows and entropies are summed over them in that order.
            program = index.program
            through = [0.0] * len(program.rho)
            order: list[int] = []
            seen = [False] * len(program.at_dst)
            for j, at, slot in program.supplies:
                d = demand[j]
                if d > 0.0:
                    through[at] += d
                    if not seen[slot]:
                        seen[slot] = True
                        order.append(slot)
            level_flows = [0.0] * len(level.edges)
            level_entropy = _forward_dag(index, choices[k], order, through, level_flows, k)
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
