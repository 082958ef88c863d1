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
sum that diverges raises ``LoadingError``. On a DAG level every walk is a
path, so the walk sum is exact there too.

A network's first loading compiles it once: one plan per level, its
weight gather and its portal positions, in one layout (``_Layout``, kept
as ``NetworkHierarchy.layout``), which also places each level's edges
among all levels' flows. Only ``_layout`` picks a plan's kind, a
``_DagPlan`` for an acyclic level and a ``_CyclicPlan`` for a cyclic one,
and the kind names the level's kernels. Every kind keeps one contract
between its passes. The sweep (``plan.sweep``) starts from ``rho`` and
hands back the soft-min value at each position of the plan's flat node
arrays; each OD pair's trip cost is read at its ``at_origin`` position.
For a gradient, it also fills in the logit choice toward each destination
(``_Choice``, zeros from ``plan.choice()``: each edge's probability, each
node's entropy), from the ``exp``s it pays once per edge (on an acyclic
level, once per edge out of a node with several exits); the forward pass
(``plan.forward``) only propagates the demand placed at the positions of
``supplies`` through that choice, with no ``exp`` or ``log`` of its own. A
value runs the same sweep and keeps no choice.

OD pairs enter only through their destinations: pairs that share one share
its soft-min field, and since flows and trajectory entropy are linear in
the through-flow, one forward pass carries the demand of all their origins
(the destination-based form of Dial's STOCH loading). On an acyclic level
each distinct destination's field covers only the nodes between that
destination's origins and it: elsewhere the soft-min is ``+inf`` and the
flow zero, so skipping them changes no result. Its plan holds their steps
in reverse Kahn order, each exit naming its edge, the position of its head
in the flat arrays and, at a node with several exits, the position of its
choice probability. Both passes run every slot in ascending order, the
forward pass each slot's steps backwards, with multiply-adds only; no pass
looks a head up or allocates per destination. A slot without demand adds
0.0 to every flow and entropy sum. A node with one exit costs no
``exp`` or ``log``: its soft-min value is its one term, and it passes all
its flow on, with entropy 0.0, the bits the general formula gives.

A cyclic level's plan lists the walk edges toward every slot's
destination once for the whole level, and each pass runs once over them
for all its destinations: one Bellman-Ford, one ``exp`` and one ``log``
over the level's arrays, and one choice. Only the per-destination
``(n, n)`` systems come in stacks (``_CyclicStack``) of
``_STACK_FLOATS // n**2`` destinations (at least one), so that a stack
holds at most ``max(n**2, _STACK_FLOATS)`` floats; both passes build a
stack at the same positions, and the forward pass solves its transpose.
Each destination sees the float operations of a pass of its own, so the
stacking changes no bit of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

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
    gradient's sweep for its forward pass, in the flat arrays of the
    level's plan, which gives one of zeros (``plan.choice()``).

    ``entropy[v]`` is the entropy of the choice at node position ``v``. In
    a ``_DagPlan``, ``probs[c]`` is the probability that flow at a node
    with several exits takes the exit at choice position ``c``; a node with
    one exit passes on all its flow and has no entry. In a ``_CyclicPlan``,
    ``probs`` holds one per walk edge, in the order of its ``rows``. An
    edge or node without a route keeps 0.0.
    """

    probs: Sequence[float]
    entropy: Sequence[float]


# One step of an acyclic level's plan (``_DagPlan``), in positions of its
# flat arrays: a node with one exit is ``(edge, head)``; a node with several
# is ``(-1, exits)``, its exits ``(edge, head, choice)`` triples in the
# level's order. The first entry is negative only there, which tells the
# two apart.
_Step = tuple[int, int] | tuple[int, list[tuple[int, int, int]]]


def _softmin(
    plan: _DagPlan,
    index: LevelIndex,
    weights: Sequence[float],
    gamma: float,
    choice: _Choice | None = None,
) -> list[float]:
    """Soft-min distance to each destination of an acyclic level, per
    position of its plan; the destinations are absorbing. The plan holds
    all the sweep reads, so ``index`` goes unused.

    One field per destination slot serves every OD pair of the level that
    ends there. The sweep runs the plan's steps, each slot's in reverse
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
    rho = plan.rho.copy()
    exp, log, inf = math.exp, math.log, math.inf
    probs, entropy = choice or ([0.0] * plan.n_choices, None)
    for v, run in zip(plan.at_dst, plan.runs):
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


def _forward_dag(
    plan: _DagPlan,
    index: LevelIndex,
    choice: _Choice,
    through: list[float],
    flows: list[float],
    k: int,
) -> float:
    """Carry the demand of an acyclic level to its destinations by the
    ``choice`` its soft-min sweep kept, one destination slot after another
    in ascending order, each by the steps of its run of the plan in Kahn
    order; its run holds all its flow.

    ``through`` holds the demand placed at each origin's position, summed
    over the OD pairs from it to its slot's destination; it becomes the
    through-flow in place. Adds the edge flows to ``flows`` and returns the
    demand-weighted trajectory entropy, summed per slot and then over the
    slots; a slot without demand adds 0.0 to each. A node with one exit
    moves its whole through-flow along it, with entropy 0. At a node with
    several, the probabilities out of it, if flow reaches it, must sum to 1
    within ``_MASS_TOL``, or ``MassLeakError`` names the node and the
    destination. Flow reaches only nodes with a route: the sweep checks
    each origin, and an edge into a node without one has probability 0.
    ``index`` and ``k``, the level's position, name them in that error.
    """
    probs, node_entropy = choice
    total = 0.0
    for slot, run in enumerate(plan.runs):
        entropy = 0.0
        v = plan.at_dst[slot] + len(run) + 1
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
                    f"choice probabilities out of node {index.nodes[plan.node_at[v]]!r} "
                    f"toward {index.nodes[index.dests[slot]]!r} sum to {mass} at level {k + 1}"
                )
            entropy += h * node_entropy[v]
        total += entropy
    return total


class _DagPlan(NamedTuple):
    """An acyclic level's loading passes toward every destination slot,
    compiled once (``_dag_plan``).

    Each slot owns a run of positions in the flat node arrays of a loading
    (soft-min values, through-flows, node entropies): its destination's,
    ``at_dst[slot]``, then one per node between its origins and it. Position
    0, before them, stands for every origin without a route and stays
    ``+inf``. ``runs`` holds each slot's steps in reverse Kahn order, the
    ``k``-th at position ``at_dst[slot] + 1 + k``: the sweep runs them slot
    after slot, the forward pass backwards, both over every slot in
    ascending order. A step names each head by its position in the slot's
    run and each exit of a node with several by its position in the flat
    array of choice probabilities, ``n_choices`` long.

    ``rho`` is the soft-min array a sweep starts from: 0.0 at each
    destination, ``+inf`` elsewhere. ``node_at`` names the level node of
    each position (-1 for position 0). ``at_origin`` gives each OD pair the
    position its trip cost is read from; ``supplies`` lists ``(OD, origin
    position)`` in OD order for each OD pair whose origin is not its
    destination, where a loading places its demand (``_supplies``).
    """

    runs: list[list[_Step]]
    rho: list[float]
    at_dst: list[int]
    node_at: list[int]
    at_origin: list[int]
    supplies: list[tuple[int, int]]
    n_choices: int

    sweep = _softmin
    forward = _forward_dag

    def choice(self) -> _Choice:
        return _Choice([0.0] * self.n_choices, [0.0] * len(self.rho))


def _dag_plan(index: LevelIndex) -> _DagPlan:
    """The plan of an acyclic level: per destination slot, the descendants
    of its OD pairs' origins that are also its ancestors, each step keeping
    only the edges whose heads are among them. It holds an entry per kept
    node and edge of each slot, and none for the rest of the level.
    """
    trips: list[list[tuple[int, int]]] = [[] for _ in index.dests]
    for j, (src, _) in enumerate(index.od_nodes):
        trips[index.dest_slot[j]].append((j, src))
    node_at = [-1]  # position 0: every origin without a route
    runs: list[list[_Step]] = []
    at_dst: list[int] = []
    at_origin = [0] * len(index.od_nodes)
    n_choices = 0
    for slot, dst in enumerate(index.dests):
        at_dst.append(len(node_at))
        run, at, n_choices = _between(index, trips[slot], dst, node_at, n_choices)
        runs.append(run)
        for j, src in trips[slot]:
            at_origin[j] = at[src]
    rho = [math.inf] * len(node_at)
    for p in at_dst:
        rho[p] = 0.0
    return _DagPlan(runs, rho, at_dst, node_at, at_origin, _supplies(index, at_origin), n_choices)


def _supplies(index: LevelIndex, at_origin: list[int]) -> list[tuple[int, int]]:
    """``(OD, origin position)`` in OD order for each OD pair of a level
    whose origin is not its destination: where a loading places demand."""
    return [(j, at) for j, ((src, dst), at) in enumerate(zip(index.od_nodes, at_origin))
            if src != dst]


def _between(
    index: LevelIndex,
    trips: list[tuple[int, int]],
    dst: int,
    node_at: list[int],
    n_choices: int,
) -> tuple[list[_Step], list[int], int]:
    """One slot of an acyclic level's plan: the nodes on some route to
    ``dst`` from the origins of ``trips``, ``(OD, origin)`` pairs.

    Appends the slot's nodes to ``node_at``, the destination first, and
    returns its steps in reverse Kahn order, the position of each node
    of the level (0 outside the slot) and the next choice position.
    """
    heads, out_edges = index.heads, index.out_edges
    below = [False] * index.n_nodes  # a descendant of some origin
    for _, v in trips:
        below[v] = True
    # Only nodes before the destination in Kahn order can be its ancestors.
    window = index.topo[:index.topo.index(dst)]
    for v in window:
        if below[v]:
            for e in out_edges[v]:
                below[heads[e]] = True
    at = [0] * index.n_nodes  # also an ancestor of ``dst``: its position
    p = len(node_at)
    if below[dst]:
        at[dst] = p
    add = node_at.append
    add(dst)
    run: list[_Step] = []
    for v in reversed(window):
        if below[v]:
            exits = []
            c = n_choices
            for e in out_edges[v]:
                u = at[heads[e]]
                if u:
                    exits.append((e, u, c))
                    c += 1
            if exits:
                p += 1
                at[v] = p
                add(v)
                if c - n_choices == 1:
                    e, u, _ = exits[0]
                    run.append((e, u))
                else:
                    run.append((-1, exits))
                    n_choices = c
    return run, at, n_choices


def _divergent(index: LevelIndex, dst: int) -> LoadingError:
    return LoadingError(f"the walk sum to destination {index.nodes[dst]!r} diverges")


def _groups(n_nodes: int, items: Sequence) -> list:
    """``items`` in runs of ``max(1, _STACK_FLOATS // n_nodes**2)``, the
    destinations whose ``(n, n)`` systems one stack holds."""
    size = max(1, _STACK_FLOATS // n_nodes**2)
    return [items[i:i + size] for i in range(0, len(items), size)]


class _CyclicStack(NamedTuple):
    """One stack of a cyclic level's ``(g, n, n)`` systems: those of the
    destination slots ``slots``. ``walk`` is the slice of the plan's walk
    edges toward them, ``walk_at`` gives each of those edges the flat
    position of its entry ``[tail, head]`` in the stack, and ``at_dst`` each
    destination's position in the stack's ``(g, n)`` node arrays."""

    slots: range
    walk: slice
    walk_at: np.ndarray
    at_dst: np.ndarray


def _softmin_cyclic(
    plan: _CyclicPlan,
    index: LevelIndex,
    weights: Sequence[float],
    gamma: float,
    choice: _Choice | None = None,
) -> list[float]:
    """Soft-min over all walks to each destination of a cyclic level, per
    position of its plan, as ``rho = d - gamma * log(y)``.

    ``d`` is the shortest-path distance to the destination and ``y``
    solves ``(I - A) y = e_dst``, where ``A[v, u]`` sums ``exp(-(w + d[u] -
    d[v]) / gamma)`` over the edges ``v -> u``; the edges out of the
    destination are left out, since a walk ends there. The shift by ``d``
    keeps every exponent at or below zero, so the solve does not depend on
    the unit of time. A positive ``y`` exists only when the walk sum
    converges: it bounds the spectral radius of ``A`` (Collatz-Wielandt).
    Otherwise ``LoadingError`` names the first destination, in slot order,
    whose sum diverges. A ``gamma * log(y)`` that overflows makes the field
    infinite, which the sweep reports as an overflowing trip cost.

    Given a ``choice`` of zeros, the sweep fills in the logit choice toward
    each destination, as ``_softmin`` does for its level: the probability
    of each walk edge of the plan, and the entropy at each node position.
    An edge's share is its term of ``y[v] = sum_e A_e y[u]``: ``A_e * y[u]
    / y[v]``, divided by the sum of its tail's shares so that each node's
    probabilities add up to 1. A node's entropy sums ``p_e (log y[v] - log
    y[u] - x_e)`` over its out-edges, where ``x_e`` is ``A_e``'s exponent:
    ``_softmin``'s ``p_e (term_e - rho[v]) / gamma`` with ``rho`` written
    out, formed from numbers that stay finite at any ``gamma``, since a
    positive share bounds ``x_e`` by about -745.

    Bellman-Ford, the ``exp``s, the checks, the ``log``s and the choice each
    run once over the whole level; only each stack's systems are built and
    solved one stack at a time. Each destination sees the same float
    operations, in the same order, as a pass for it alone.
    """
    # Imported here so that runs on DAG levels never load numpy.
    import numpy as np

    n = index.n_nodes
    rows, at_tail, at_head = plan.rows, plan.at_tail, plan.at_head
    w_walk = np.asarray(weights, dtype=float)[plan.edges]
    d = plan.rho.copy()
    # Bellman-Ford: shortest paths have at most n - 1 edges, so a change in
    # round n means a negative cycle, around which the walk sum diverges. A
    # slot that stops changing stays fixed.
    # A distance that overflows is +inf, as if the node could not reach the
    # destination: its trip cost then reads +inf, which the sweep reports as
    # an overflow, and the edges at it are dropped below.
    bad = np.zeros(len(index.dests), dtype=bool)
    walk = np.zeros(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            relaxed = d.copy()
            np.minimum.at(relaxed, at_tail, w_walk + d[at_head])
            if (relaxed == d).all():
                break
            d, last = relaxed, d
        else:
            bad = (d != last).reshape(-1, n).any(axis=1)
        # Edges between nodes at a finite distance; without an overflow,
        # every edge into a node that reaches the destination.
        keep = np.isfinite(d[at_head]) & np.isfinite(d[at_tail]) & ~bad[rows]
        # An exponent that overflows to -inf is a term that rounds to 0. A
        # dropped edge's term is 0.0, which leaves its system entry as it
        # is; its exponent, NaN at two infinite distances, is never read.
        expo = (d[at_tail] - w_walk - d[at_head]) / gamma
        np.exp(expo, out=walk, where=keep)
    y = np.empty(len(d))
    for stack in plan.stacks:
        g = len(stack.slots)
        system = np.empty((g, n, n))
        system[:] = plan.eye
        np.subtract.at(system.reshape(-1), stack.walk_at, walk[stack.walk])
        unit = np.zeros((g, n, 1))
        unit.reshape(-1)[stack.at_dst] = 1.0
        try:
            solved = np.linalg.solve(system, unit)
        except np.linalg.LinAlgError:
            solved = np.full((g, n, 1), math.nan)  # find the singular systems one by one
            for i in range(g):
                try:
                    solved[i] = np.linalg.solve(system[i], unit[i])
                except np.linalg.LinAlgError:
                    pass
        y[stack.slots.start * n:stack.slots.stop * n] = solved.reshape(-1)
    reach = np.isfinite(d)
    bad |= (reach & ~(np.isfinite(y) & (y > 0.0))).reshape(-1, n).any(axis=1)
    if bad.any():
        raise _divergent(index, index.dests[int(bad.argmax())])
    # Where no walk reaches the destination, d is +inf and so is rho.
    log_y = np.zeros(len(d))
    log_y[reach] = np.log(y[reach])
    with np.errstate(over="ignore"):
        rho = d - gamma * log_y
    if choice is not None:
        probs, entropy = choice
        at_tail, at_head, walk, expo = at_tail[keep], at_head[keep], walk[keep], expo[keep]
        share = walk * y[at_head] / y[at_tail]
        mass = np.zeros(len(d))
        np.add.at(mass, at_tail, share)
        share /= mass[at_tail]  # exact conservation; the raw sums are 1 up to rounding
        probs[keep] = share
        used = share > 0.0  # a term that rounds to 0 has no share and no entropy
        at, p = at_tail[used], share[used]
        np.add.at(entropy, at, p * ((log_y[at] - log_y[at_head[used]]) - expo[used]))
    return rho.tolist()


def _forward_cyclic(
    plan: _CyclicPlan,
    index: LevelIndex,
    choice: _Choice,
    through: Sequence[float],
    flows: list[float],
    k: int,
) -> float:
    """Walk-measure loading of a cyclic level toward every destination
    slot, over the whole level, by the ``choice`` its soft-min sweep kept:
    the expected node visits solve ``(I - Q^T) h = supply``, one solve for
    every origin bound for the destination.

    ``through`` holds the demand placed at each origin's position of the
    plan, summed over the OD pairs from it to its slot's destination. Adds
    the edge flows to ``flows`` and returns the demand-weighted trajectory
    entropy, each summed over the slots in ascending order. Each stack
    builds ``I - Q`` at the sweep's positions and solves its transpose
    whole; a slot without demand has no visits and adds 0.0 to each sum.
    An edge a slot's sweep dropped has probability 0 there, which leaves
    its system entry and flow as they are. ``k`` goes unused: the sweep
    makes each node's probabilities sum to 1, so no mass leaks.
    """
    import numpy as np

    n = index.n_nodes
    probs, entropy = choice
    supply = np.array(through).reshape(-1, n, 1)
    visits = np.empty(supply.shape[:2])
    for stack in plan.stacks:
        system = np.empty((len(stack.slots), n, n))  # I - Q per destination
        system[:] = plan.eye
        np.subtract.at(system.reshape(-1), stack.walk_at, probs[stack.walk])
        at = slice(stack.slots.start, stack.slots.stop)
        # The exact visits are nonnegative; clip rounding residue below zero.
        solved = np.linalg.solve(system.transpose(0, 2, 1), supply[at])
        visits[at] = np.maximum(solved.reshape(-1, n), 0.0)
    total_flows = np.array(flows)
    np.add.at(total_flows, plan.edges, visits.reshape(-1)[plan.at_tail] * probs)
    flows[:] = total_flows.tolist()
    total = 0.0
    for slot, row in enumerate(visits):
        total += float(np.dot(row, entropy[slot * n:(slot + 1) * n]))
    return total


class _CyclicPlan(NamedTuple):
    """A level's walk-sum passes toward its destinations, compiled once
    (``_cyclic_plan``). Its flat node arrays hold node ``v`` of slot ``s``
    at ``s * n + v``. ``rows`` and ``edges`` list the walk edges, the edges
    a walk toward each slot's destination can take (every edge not out of
    it), slot by slot in edge order; ``at_tail`` and ``at_head`` give each
    one's tail and head position in the node arrays. ``eye`` is the
    ``(n, n)`` identity every system starts from, and ``stacks`` the slots
    in stacks (``_groups``), at whose positions both passes build and solve
    every system. ``supplies`` lists ``(OD, origin position)`` in OD order
    (``_supplies``). It holds ``O(D E + n**2)`` numbers for ``D``
    destinations and ``E`` edges, no stack of systems."""

    rho: np.ndarray
    at_origin: list[int]
    supplies: list[tuple[int, int]]
    rows: np.ndarray
    edges: np.ndarray
    at_tail: np.ndarray
    at_head: np.ndarray
    eye: np.ndarray
    stacks: list[_CyclicStack]

    sweep = _softmin_cyclic
    forward = _forward_cyclic

    def choice(self) -> _Choice:
        import numpy as np

        return _Choice(np.zeros(len(self.edges)), np.zeros(len(self.rho)))


def _cyclic_plan(index: LevelIndex) -> _CyclicPlan:
    """The walk-sum plan of a level, exact whether or not it has a cycle."""
    import numpy as np

    n = index.n_nodes
    tails = np.array(index.tails, dtype=np.intp)
    heads = np.array(index.heads, dtype=np.intp)
    dsts = np.array(index.dests, dtype=np.intp)
    rows, edges = (tails != dsts[:, None]).nonzero()
    at_tail, at_head = rows * n + tails[edges], rows * n + heads[edges]
    stacks = []
    for slots in _groups(n, range(len(dsts))):
        start, stop = rows.searchsorted([slots.start, slots.stop])
        stacks.append(_CyclicStack(
            slots=slots,
            walk=slice(start, stop),
            walk_at=(at_tail[start:stop] - slots.start * n) * n + heads[edges[start:stop]],
            at_dst=np.arange(len(slots)) * n + dsts[slots.start:slots.stop],
        ))
    rho = np.full(len(index.dests) * n, math.inf)
    rho[[slot * n + dst for slot, dst in enumerate(index.dests)]] = 0.0
    at_origin = [slot * n + src for (src, _), slot in zip(index.od_nodes, index.dest_slot)]
    return _CyclicPlan(rho, at_origin, _supplies(index, at_origin), rows, edges, at_tail, at_head,
                       np.eye(n), stacks)


class _Layout(NamedTuple):
    """A network compiled for loading in one pass over its levels.

    ``plans[k]`` is level ``k``'s plan: a ``_DagPlan`` when the level has a
    Kahn order, a ``_CyclicPlan`` when it has a cycle. Its plain edges hold
    the entries ``start:stop`` of the dual vector of plain-edge times
    (``gathers[k] = (start, stop, pick)``), in edge order. ``pick`` is
    ``None`` when the level has no portal; otherwise it takes the weights,
    in edge order, out of the next level's trip costs followed by that
    slice. ``portals[k]`` gives, for each OD pair of level ``k + 1`` in OD
    order, the position of the portal edge bound to it. ``plain_at`` gives
    each plain edge's position among all levels' flows concatenated, in
    plain-edge order, and ``ends[k]`` where level ``k``'s flows end.
    """

    plans: list[_DagPlan | _CyclicPlan]
    gathers: list[tuple[int, int, Callable[[Sequence[float]], Sequence[float]] | None]]
    portals: list[list[int]]
    plain_at: list[int]
    ends: list[int]


def _layout(net: NetworkHierarchy) -> _Layout:
    """The network's layout, compiled on first use (a loading or a solve)
    and kept on the network; ``ValueError`` names a node a level lacks."""
    if net.layout is None:
        plans, gathers, portals, plain_at, ends, end = [], [], [], [], [], 0
        for k, level in enumerate(net.levels):
            try:
                index = level.index
            except ValueError as err:
                raise ValueError(f"{err} at level {k + 1}") from None
            plans.append(_dag_plan(index) if index.topo is not None else _cyclic_plan(index))
            below = len(net.levels[k + 1].od_pairs) if k + 1 < net.num_levels else 0
            portal = [0] * below
            start = len(plain_at)
            source = []  # each edge's weight in the trip costs below, then the slice
            for pos, edge in enumerate(level.edges):
                if edge.is_plain:
                    source.append(below + len(plain_at) - start)
                    plain_at.append(end + pos)
                else:
                    source.append(edge.target_od.od)
                    portal[edge.target_od.od] = pos
            pick = None
            if len(plain_at) - start < len(source):
                # itemgetter of one key returns the item, of a slice a list
                pick = itemgetter(*source) if len(source) > 1 else itemgetter(
                    slice(source[0], source[0] + 1))
            gathers.append((start, len(plain_at), pick))
            portals.append(portal)
            end += len(source)
            ends.append(end)
        net.layout = _Layout(plans, gathers, portals, plain_at, ends)
    return net.layout


def _sweep_weights(
    net: NetworkHierarchy, t: Sequence[float], keep_choices: bool = False
) -> tuple[list[Sequence[float]], list[list[float]], list[_Choice | None]]:
    """Bottom-up pass: per-level edge weights, per-level trip costs (the
    soft-min cost of each OD pair, in OD order), and, with
    ``keep_choices``, the logit choice of each level (``_Choice``; ``None``
    per level without ``keep_choices``).

    A portal edge's weight is the soft-min trip cost of its target OD pair
    one level down, so levels are processed deepest first. Each level's
    weights come from its gather in the network's layout (``_layout``): the
    level's contiguous slice of ``t``, after the next level's trip costs,
    picked into edge order in one call. So ``t`` must hold exactly one
    value per plain edge, or ``ValueError`` names both lengths; a longer or
    shorter ``t`` would shift the slices and misread the trip costs. A NaN
    or infinite value raises ``ValueError`` naming its edge and level. Each
    level makes one sweep over its plan in the layout and reads each OD
    pair's trip cost at its ``at_origin`` position. A trip cost that is not finite raises
    ``NoPathError`` if it is ``+inf`` because the trip has no route, and
    otherwise ``LoadingError`` naming the trip and the value: ``+inf`` or
    ``-inf`` for a cost that overflowed, ``nan`` for one that subtracted
    infinities.
    """
    layout = _layout(net)
    n_plain = len(layout.plain_at)
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
    m = net.num_levels
    weights: list[Sequence[float]] = [()] * m
    choices: list[_Choice | None] = [None] * m
    trip_costs: list[list[float]] = [[] for _ in range(m)]

    for k in range(m - 1, -1, -1):
        level = net.levels[k]
        index = level.index
        start, stop, pick = layout.gathers[k]
        w = values[start:stop]
        if pick is not None:
            w = pick(trip_costs[k + 1] + w)
        weights[k] = w
        plan = layout.plans[k]
        choice = plan.choice() if keep_choices else None
        try:
            rho = plan.sweep(index, w, net.gammas[k], choice)
        except LoadingError as err:
            raise LoadingError(f"{err} at level {k + 1}") from None
        choices[k] = choice
        costs = [rho[at] for at in plan.at_origin]
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


def network_loading(net: NetworkHierarchy, t: Sequence[float]) -> LoadResult:
    """Edge flows induced by logit route choice at dual point ``t``.

    The plain-edge flows are minus the gradient of ``dual_smooth_value``
    componentwise. Portal flows become the next level's OD demands, so the
    sweep runs top-down after the bottom-up weight pass. Each level places
    its demand at the origin positions of its plan and makes one forward
    call over all its destinations.
    """
    _, trip_costs, choices = _sweep_weights(net, t, keep_choices=True)
    layout = _layout(net)
    m = net.num_levels

    demands: list[list[float]] = [[] for _ in range(m)]
    demands[0] = [od.demand for od in net.levels[0].od_pairs]
    smooth = _smooth_value(net, trip_costs[0])
    flows: list[list[float]] = []
    entropies: list[float] = []
    for k in range(m):
        level = net.levels[k]
        index = level.index
        plan = layout.plans[k]
        demand = demands[k]
        through = [0.0] * len(plan.rho)
        for j, at in plan.supplies:
            through[at] += demand[j]
        level_flows = [0.0] * len(level.edges)
        level_entropy = plan.forward(index, choices[k], through, level_flows, k)
        flows.append(level_flows)
        entropies.append(level_entropy)
        if k + 1 < m:
            demands[k + 1] = [level_flows[pos] for pos in layout.portals[k]]
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
    """Raise unless flow balances at every node and portals feed demands.

    Each portal's binding is read from its edge, not from the compiled
    layout that the loading used, so the check does not share that map."""
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
            for pos, edge in enumerate(level.edges):
                if not edge.is_portal:
                    continue
                j = edge.target_od.od
                if abs(result.flows[k][pos] - result.induced_demands[k + 1][j]) > tol * scale:
                    raise AssertionError(
                        f"portal flow and induced demand disagree for level-{k + 2} OD {j}"
                    )


def longest_path_bounds(net: NetworkHierarchy) -> list[list[float]]:
    """Most plain edges any fully expanded route of each OD pair can
    traverse, per level, in one bottom-up pass that runs one longest-route
    search per level, over its plan.

    A portal edge counts the bound of its target OD pair, taken through the
    level's weight gather, so on DAG levels the value equals exhaustive
    path expansion. A walk-sum plan sums over walks of every length, so
    there the bound is ``inf``, and so is that of every OD pair above whose
    routes may cross its portals. Raises ``ValueError`` naming the first OD
    pair, in OD order, with no route.
    """
    layout = _layout(net)
    bounds: list[list[float]] = [[] for _ in net.levels]
    for k in range(net.num_levels - 1, -1, -1):
        index = net.levels[k].index
        plan = layout.plans[k]
        if isinstance(plan, _CyclicPlan):
            bounds[k] = [math.inf] * len(index.od_nodes)
            continue
        start, stop, pick = layout.gathers[k]
        weights = [1] * (stop - start)
        if pick is not None:
            weights = pick(bounds[k + 1] + weights)
        longest = _longest_routes(plan, weights)
        for (src, dst), at in zip(index.od_nodes, plan.at_origin):
            length = longest[at]
            if length < 0:
                raise ValueError(f"no path {index.nodes[src]!r} -> {index.nodes[dst]!r}")
            bounds[k].append(length)
    return bounds


def _longest_routes(plan: _DagPlan, weights: Sequence[float]) -> list[float]:
    """Largest total weight of a route to its slot's destination from each
    position of an acyclic level's plan, or -1 where there is none; the
    destinations absorb.

    Every route from an origin bound for a destination stays in its slot's
    nodes, whose steps the pass walks, so at those origins the values are
    the whole level's.
    """
    best = [-1] * len(plan.rho)
    for v, run in zip(plan.at_dst, plan.runs):
        best[v] = 0
        for edge, head in run:
            v += 1
            for e, u, _ in ((edge, head, 0),) if edge >= 0 else head:
                if best[u] >= 0:
                    cand = weights[e] + best[u]
                    if cand > best[v]:
                        best[v] = cand
    return best
