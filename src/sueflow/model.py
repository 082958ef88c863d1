"""Hierarchical network model.

A network is a stack of levels. Each level is a directed graph whose edges
are either *plain* (they carry their own congestion cost) or *portals*: an
edge whose traversal stands for a full origin-destination trip on the next
level down the stack. Portals and next-level OD pairs are in one-to-one
correspondence; the flow on a portal edge becomes the travel demand of its
target OD pair at runtime.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .costs import LinkCost

__all__ = [
    "ODRef",
    "ODPair",
    "Edge",
    "LevelGraph",
    "LevelIndex",
    "LevelProgram",
    "NetworkHierarchy",
    "Violation",
    "validate_hierarchy",
    "longest_path_bounds",
]


@dataclass(frozen=True)
class ODRef:
    """Reference to an OD pair: 0-based level index plus position in the level."""

    level: int
    od: int


@dataclass(frozen=True)
class ODPair:
    origin: str
    destination: str
    demand: float | None = None  # exogenous at level 1, runtime-induced below


@dataclass(frozen=True)
class Edge:
    """Directed edge; exactly one of ``cost`` (plain) / ``target_od`` (portal)."""

    id: str
    tail: str
    head: str
    cost: LinkCost | None = None
    target_od: ODRef | None = None

    def __post_init__(self) -> None:
        if (self.cost is None) == (self.target_od is None):
            raise ValueError(
                f"edge {self.id!r} must have exactly one of cost or target_od"
            )

    @property
    def is_plain(self) -> bool:
        return self.cost is not None

    @property
    def is_portal(self) -> bool:
        return self.target_od is not None


@dataclass(frozen=True)
class LevelGraph:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    od_pairs: tuple[ODPair, ...]

    @cached_property
    def index(self) -> LevelIndex:
        """The level compiled to integer positions, built on first use.

        Every edge and OD endpoint must be a node of the level, or
        ``ValueError`` names the first that is not; ``validate_hierarchy``
        reads the index only once its own endpoint checks pass.
        """
        return LevelIndex(self)


# One step of a level program (``LevelProgram``), in positions of its flat
# arrays: a node with one exit is ``(edge, head)``; a node with several is
# ``(-1, exits)``, its exits ``(edge, head, choice)`` triples in the level's
# order. The first entry is negative only there, which tells the two apart.
Step = tuple[int, int] | tuple[int, list[tuple[int, int, int]]]


class LevelProgram(NamedTuple):
    """An acyclic level's loading passes toward every destination slot,
    compiled once (``LevelIndex.program``).

    Each slot owns a run of positions in the flat node arrays of a loading
    (soft-min values, through-flows, node entropies): its destination's,
    ``at_dst[slot]``, then one per node between its origins and it. Position
    0, before them, stands for every origin without a route and stays
    ``+inf``. ``runs`` holds each slot's steps in reverse Kahn order, the
    ``k``-th at position ``at_dst[slot] + 1 + k``: the sweep runs them slot
    after slot, the forward pass backwards, slot by slot in the order their
    demand arrives. A step names each head by its position in the slot's
    run and each exit of a node with several by its position in the flat
    array of choice probabilities, ``n_choices`` long.

    ``rho`` is the soft-min array a sweep starts from: 0.0 at each
    destination, ``+inf`` elsewhere. ``node_at`` names the level node of
    each position (-1 for position 0). ``at_origin`` gives each OD pair the
    position its trip cost is read from; ``supplies`` lists ``(OD, origin
    position, slot)`` for each OD pair whose origin is not its destination,
    where a loading places its demand.
    """

    runs: list[list[Step]]
    rho: list[float]
    at_dst: list[int]
    node_at: list[int]
    at_origin: list[int]
    supplies: list[tuple[int, int, int]]
    n_choices: int


class LevelIndex:
    """Integer index of one level graph, shared by validation, route-length
    bounds and loading.

    Nodes and edges are numbered by their position in the level. ``topo``
    is a Kahn order of the node positions, or ``None`` when the graph has a
    cycle. ``dests`` lists the distinct OD destinations in order of first
    appearance, and ``dest_slot[j]`` is the position of OD ``j``'s
    destination in it: loading computes one soft-min field per destination.
    An acyclic level runs every destination's passes at once, by one
    program per level (``program``). On a cyclic level the loading module
    compiles the arrays of its passes on first use and keeps them in
    ``cyclic_plan``, ``None`` until then.
    """

    __slots__ = (
        "nodes",
        "n_nodes",
        "node_index",
        "tails",
        "heads",
        "out_edges",
        "topo",
        "od_nodes",
        "dests",
        "dest_slot",
        "portal_for_od",
        "_program",
        "cyclic_plan",
    )

    def __init__(self, level: LevelGraph) -> None:
        self.nodes = level.nodes
        node_index = self.node_index = {v: i for i, v in enumerate(level.nodes)}
        self.n_nodes = len(level.nodes)
        try:
            self.tails = [node_index[e.tail] for e in level.edges]
            self.heads = [node_index[e.head] for e in level.edges]
            self.od_nodes = [
                (node_index[od.origin], node_index[od.destination]) for od in level.od_pairs
            ]
        except KeyError:
            raise _unknown_node(level, node_index) from None
        self.out_edges: list[list[int]] = [[] for _ in level.nodes]
        indeg = [0] * self.n_nodes
        for pos, (t, h) in enumerate(zip(self.tails, self.heads)):
            self.out_edges[t].append(pos)
            indeg[h] += 1
        order = [v for v in range(self.n_nodes) if indeg[v] == 0]
        for v in order:  # the loop also visits the nodes it appends
            for e in self.out_edges[v]:
                u = self.heads[e]
                indeg[u] -= 1
                if indeg[u] == 0:
                    order.append(u)
        self.topo = order if len(order) == self.n_nodes else None
        slot_of: dict[int, int] = {}
        self.dest_slot = [slot_of.setdefault(dst, len(slot_of)) for _, dst in self.od_nodes]
        self.dests = list(slot_of)
        self.portal_for_od: dict[int, int] = {}
        for pos, e in enumerate(level.edges):
            if e.is_portal:
                self.portal_for_od[e.target_od.od] = pos
        self._program: LevelProgram | None = None
        self.cyclic_plan: object | None = None

    @property
    def program(self) -> LevelProgram:
        """The level program of an acyclic level (``LevelProgram``): per
        destination slot, the nodes between its OD origins and it.

        These are the descendants of the origins of the OD pairs bound for
        the destination that are also its ancestors, and each step keeps
        only the edges whose heads are among them. Outside them the soft-min
        distance is ``+inf`` and the flow toward the destination zero, so
        loading passes over the program compute the whole level's trip
        costs and flows exactly, and a longest-route pass over it the
        origins' route bounds. It holds an entry per kept node and edge of
        each slot, and none for the rest of the level. A cyclic level has
        none: its passes are linear solves over the whole level. Compiled on
        first use and kept: validation never reads it.
        """
        if self._program is None:
            trips: list[list[tuple[int, int]]] = [[] for _ in self.dests]
            for j, (src, _) in enumerate(self.od_nodes):
                trips[self.dest_slot[j]].append((j, src))
            node_at = [-1]  # position 0: every origin without a route
            runs: list[list[Step]] = []
            at_dst: list[int] = []
            at_origin = [0] * len(self.od_nodes)
            supplies: list[tuple[int, int, int]] = []
            n_choices = 0
            for slot, dst in enumerate(self.dests):
                at_dst.append(len(node_at))
                run, at, n_choices = self._between(trips[slot], dst, node_at, n_choices)
                runs.append(run)
                for j, src in trips[slot]:
                    at_origin[j] = at[src]
                    if src != dst:
                        supplies.append((j, at[src], slot))
            rho = [math.inf] * len(node_at)
            for p in at_dst:
                rho[p] = 0.0
            self._program = LevelProgram(
                runs, rho, at_dst, node_at, at_origin, supplies, n_choices
            )
        return self._program

    def _between(
        self,
        trips: list[tuple[int, int]],
        dst: int,
        node_at: list[int],
        n_choices: int,
    ) -> tuple[list[Step], list[int], int]:
        """One slot of the level program: the nodes on some route to
        ``dst`` from the origins of ``trips``, ``(OD, origin)`` pairs.

        Appends the slot's nodes to ``node_at``, the destination first, and
        returns its steps in reverse Kahn order, the position of each node
        of the level (0 outside the slot) and the next choice position.
        """
        heads, out_edges = self.heads, self.out_edges
        below = [False] * self.n_nodes  # a descendant of some origin
        for _, v in trips:
            below[v] = True
        # Only nodes before the destination in Kahn order can be its ancestors.
        window = self.topo[:self.topo.index(dst)]
        for v in window:
            if below[v]:
                for e in out_edges[v]:
                    below[heads[e]] = True
        at = [0] * self.n_nodes  # also an ancestor of ``dst``: its position
        p = len(node_at)
        if below[dst]:
            at[dst] = p
        add = node_at.append
        add(dst)
        run: list[Step] = []
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

    def reaches(self, src: int, dst: int) -> bool:
        """Whether some route of the level leads from ``src`` to ``dst``."""
        stack, seen = [src], {src}
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for e in self.out_edges[v]:
                u = self.heads[e]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return False


def _unknown_node(level: LevelGraph, node_index: Mapping[str, int]) -> ValueError:
    """The error for the first endpoint outside the level: edge tails, then
    edge heads, then OD origins and destinations."""
    owners = itertools.chain(
        ((f"edge {e.id!r}", e.tail) for e in level.edges),
        ((f"edge {e.id!r}", e.head) for e in level.edges),
        ((f"OD pair {j}", node) for j, od in enumerate(level.od_pairs)
         for node in (od.origin, od.destination)),
    )
    owner, node = next((owner, node) for owner, node in owners if node not in node_index)
    return ValueError(f"{owner} names node {node!r}, which the level lacks")


class WeightGather(NamedTuple):
    """How loading assembles one level's edge weights from the dual vector.

    The level's plain edges hold the entries ``start:stop`` of the vector,
    in edge order. ``pick`` is ``None`` when the level has no portal, so
    that the slice is its weight list. Otherwise ``pick`` takes the weights,
    in edge order, out of the slice followed by the trip costs of the next
    level's OD pairs, in one call.
    """

    start: int
    stop: int
    pick: Callable[[Sequence[float]], Sequence[float]] | None


@dataclass(frozen=True)
class Violation:
    code: str
    path: str
    message: str


class NetworkHierarchy:
    """Immutable level stack with per-level rationality temperatures.

    ``walk_cap`` admits cyclic level graphs; without it every level must be
    a DAG. Only ``validate_hierarchy`` reads it, as that opt-in: loading on
    a cyclic level sums over walks of every length, solved exactly, and
    fails when that sum diverges.
    """

    def __init__(
        self,
        levels: list[LevelGraph] | tuple[LevelGraph, ...],
        gammas: list[float] | tuple[float, ...],
        walk_cap: int | None = None,
    ) -> None:
        self.levels: tuple[LevelGraph, ...] = tuple(levels)
        self.gammas: tuple[float, ...] = tuple(float(g) for g in gammas)
        self.walk_cap = walk_cap
        self._plain_order: list[tuple[int, int]] | None = None
        self._gathers: list[WeightGather] | None = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def plain_edge_order(self) -> list[tuple[int, int]]:
        """Canonical (level, edge position) order of all plain edges."""
        if self._plain_order is None:
            order = []
            for k, level in enumerate(self.levels):
                for i, edge in enumerate(level.edges):
                    if edge.is_plain:
                        order.append((k, i))
            self._plain_order = order
        return self._plain_order

    def weight_gathers(self) -> list[WeightGather]:
        """Per level, its weight assembly compiled from ``plain_edge_order``:
        a plain edge takes its level's entry of the dual vector, a portal the
        trip cost of its target OD pair. Built on first use and kept."""
        if self._gathers is None:
            order = self.plain_edge_order()
            gathers = []
            start = 0
            for k, level in enumerate(self.levels):
                stop = bisect_left(order, (k + 1,))
                n_plain = stop - start
                pick = None
                if n_plain < len(level.edges):
                    rank = {i: r for r, (_, i) in enumerate(order[start:stop])}
                    source = [
                        rank[pos] if pos in rank else n_plain + edge.target_od.od
                        for pos, edge in enumerate(level.edges)
                    ]
                    # itemgetter of one key returns the item, of a slice a list
                    pick = itemgetter(*source) if len(source) > 1 else itemgetter(
                        slice(source[0], source[0] + 1))
                gathers.append(WeightGather(start, stop, pick))
                start = stop
            self._gathers = gathers
        return self._gathers

    def plain_edges(self) -> Iterator[tuple[int, Edge]]:
        """Yield (level, edge) over plain edges in canonical order."""
        for k, i in self.plain_edge_order():
            yield k, self.levels[k].edges[i]

    def plain_costs(self) -> list[LinkCost]:
        return [edge.cost for _, edge in self.plain_edges()]

    def free_flow_times(self) -> list[float]:
        return [edge.cost.free_flow_time for _, edge in self.plain_edges()]

    def num_plain_edges(self) -> int:
        return len(self.plain_edge_order())

    def dual_from_map(self, per_level: list[Mapping[str, float]]) -> list[float]:
        """Flatten per-level ``edge id -> time`` maps into canonical order."""
        if len(per_level) != self.num_levels:
            raise ValueError(
                f"expected {self.num_levels} levels of edge times, got {len(per_level)}"
            )
        seen = [set() for _ in self.levels]
        values = []
        for k, i in self.plain_edge_order():
            edge = self.levels[k].edges[i]
            if edge.id not in per_level[k]:
                raise ValueError(f"missing time for plain edge {edge.id!r} at level {k + 1}")
            seen[k].add(edge.id)
            values.append(float(per_level[k][edge.id]))
        for k, level in enumerate(self.levels):
            extra = set(per_level[k]) - seen[k]
            if extra:
                raise ValueError(
                    f"times given for unknown or portal edges {sorted(extra)} at level {k + 1}"
                )
        return values


def validate_hierarchy(net: NetworkHierarchy) -> list[Violation]:
    """Check all structural invariants; one Violation per failure, stable order."""
    out: list[Violation] = []
    m = net.num_levels

    if m < 1:
        out.append(Violation("EmptyHierarchy", "levels", "at least one level is required"))
        return out
    if len(net.gammas) != m:
        out.append(
            Violation(
                "GammaCountMismatch",
                "gammas",
                f"{len(net.gammas)} temperatures for {m} levels",
            )
        )
    for k, g in enumerate(net.gammas):
        if not 0.0 < g < math.inf:
            out.append(
                Violation(
                    "NonpositiveGamma", f"gammas[{k}]", f"gamma must be finite and > 0, got {g}"
                )
            )

    # Per-level structural checks. A level whose endpoints all name its own
    # nodes is compiled; the graph checks below read that index.
    indexes: list[LevelIndex | None] = []
    for k, level in enumerate(net.levels):
        nodes = set(level.nodes)
        endpoints_known = True
        if len(nodes) != len(level.nodes):
            out.append(Violation("DuplicateNodeId", f"levels[{k}].nodes", "repeated node id"))
        seen_edge_ids = set()
        for i, edge in enumerate(level.edges):
            if edge.id in seen_edge_ids:
                out.append(
                    Violation("DuplicateEdgeId", _edge_path(k, i, edge),
                              f"edge id {edge.id!r} repeated")
                )
            seen_edge_ids.add(edge.id)
            if edge.tail == edge.head:
                out.append(
                    Violation("SelfLoop", _edge_path(k, i, edge), "self-loops are not allowed")
                )
            for endpoint in (edge.tail, edge.head):
                if endpoint not in nodes:
                    endpoints_known = False
                    out.append(
                        Violation("UnknownEndpoint", _edge_path(k, i, edge),
                                  f"node {endpoint!r} not in level")
                    )
            if edge.is_portal:
                if k == m - 1:
                    out.append(
                        Violation("PortalAtLastLevel", _edge_path(k, i, edge),
                                  "last level admits no portals")
                    )
                else:
                    ref = edge.target_od
                    if ref.level != k + 1:
                        out.append(
                            Violation(
                                "BadPortalTarget",
                                _edge_path(k, i, edge),
                                f"portal must target level {k + 2}, got {ref.level + 1}",
                            )
                        )
                    elif not 0 <= ref.od < len(net.levels[k + 1].od_pairs):
                        out.append(
                            Violation(
                                "BadPortalTarget",
                                _edge_path(k, i, edge),
                                f"od index {ref.od} out of range at level {k + 2}",
                            )
                        )
        demand_sum = 0.0  # of the level-1 demands that pass their own check
        for j, od in enumerate(level.od_pairs):
            for endpoint in (od.origin, od.destination):
                if endpoint not in nodes:
                    endpoints_known = False
                    out.append(
                        Violation("UnknownEndpoint", _od_path(k, j),
                                  f"node {endpoint!r} not in level")
                    )
            if k == 0:
                if od.demand is None or not 0.0 < od.demand < math.inf:
                    out.append(
                        Violation(
                            "BadDemand",
                            _od_path(k, j),
                            f"level-1 demand must be finite and > 0, got {od.demand}",
                        )
                    )
                else:
                    demand_sum += od.demand
            elif od.demand is not None:
                out.append(
                    Violation(
                        "DemandAtUpperLevel",
                        _od_path(k, j),
                        "demands below level 1 are induced by portal flow, not data",
                    )
                )
        # Every flow is a share of the total demand, so a finite total keeps
        # every through-flow finite; a total past the float range does not.
        if demand_sum == math.inf:
            out.append(
                Violation(
                    "DemandSumOverflow",
                    "levels[0].od_pairs",
                    "level-1 demands sum past the largest float",
                )
            )
        indexes.append(level.index if endpoints_known else None)

    # Portal <-> OD bijection between consecutive levels.
    for k in range(m - 1):
        refs: dict[int, list[str]] = {}
        for edge in net.levels[k].edges:
            if edge.is_portal and edge.target_od.level == k + 1:
                refs.setdefault(edge.target_od.od, []).append(edge.id)
        for j, ids in sorted(refs.items()):
            if len(ids) > 1:
                out.append(
                    Violation(
                        "DuplicatePortalBinding",
                        _od_path(k + 1, j),
                        f"bound by portals {ids} at level {k + 1}",
                    )
                )
        for j in range(len(net.levels[k + 1].od_pairs)):
            if j not in refs:
                out.append(
                    Violation(
                        "UnboundOD",
                        _od_path(k + 1, j),
                        f"no level-{k + 1} portal is bound to this OD pair",
                    )
                )

    # Reachability of every OD on its own level (plain + portal topology).
    for k, index in enumerate(indexes):
        if index is None:
            continue  # endpoints already reported above
        for j, (src, dst) in enumerate(index.od_nodes):
            if not index.reaches(src, dst):
                od = net.levels[k].od_pairs[j]
                out.append(
                    Violation(
                        "NoPathForOD",
                        _od_path(k, j),
                        f"no path {od.origin!r} -> {od.destination!r}",
                    )
                )

    # Cycles are only admitted under an explicit walk-length cap.
    if net.walk_cap is None:
        for k, index in enumerate(indexes):
            if index is not None and index.topo is None:
                out.append(
                    Violation(
                        "CyclicLevelWithoutCap",
                        f"levels[{k}]",
                        "cyclic level graph requires an explicit walk-length cap",
                    )
                )
    elif net.walk_cap < 1:
        out.append(Violation("BadWalkCap", "walk_cap", f"cap must be >= 1, got {net.walk_cap}"))

    return out


# Violation paths, formatted only for a violation.
def _edge_path(k: int, i: int, edge: Edge) -> str:
    return f"levels[{k}].edges[{i}]({edge.id})"


def _od_path(k: int, j: int) -> str:
    return f"levels[{k}].od_pairs[{j}]"


def longest_path_bounds(net: NetworkHierarchy) -> list[list[float]]:
    """Most plain edges any fully expanded route of each OD pair can
    traverse, per level, in one bottom-up pass that runs one longest-route
    search per level, over its ``LevelIndex.program``.

    A portal edge counts the bound of its target OD pair, so on DAG levels
    the value equals exhaustive path expansion. Loading on a cyclic level
    sums over walks of every length, so there the bound is ``inf``, and so
    is that of every OD pair above whose routes may cross its portals.
    Raises ``ValueError`` naming the first OD pair, in OD order, with no
    route.
    """
    bounds: list[list[float]] = [[] for _ in net.levels]
    for k in range(net.num_levels - 1, -1, -1):
        level = net.levels[k]
        index = level.index
        if index.topo is None:
            bounds[k] = [math.inf] * len(level.od_pairs)
            continue
        weights = [
            1 if edge.is_plain else bounds[k + 1][edge.target_od.od] for edge in level.edges
        ]
        longest = _longest_routes(index, weights)
        for (src, dst), at in zip(index.od_nodes, index.program.at_origin):
            length = longest[at]
            if length < 0:
                raise ValueError(f"no path {index.nodes[src]!r} -> {index.nodes[dst]!r}")
            bounds[k].append(length)
    return bounds


def _longest_routes(index: LevelIndex, weights: list[float]) -> list[float]:
    """Largest total weight of a route to its slot's destination from each
    position of an acyclic level's program (``LevelIndex.program``), or -1
    where there is none; the destinations absorb.

    Every route from an origin bound for a destination stays in its slot's
    nodes, whose steps the pass walks, so at those origins the values are
    the whole level's.
    """
    program = index.program
    best = [-1] * len(program.rho)
    for v, run in zip(program.at_dst, program.runs):
        best[v] = 0
        for edge, head in run:
            v += 1
            for e, u, _ in ((edge, head, 0),) if edge >= 0 else head:
                if best[u] >= 0:
                    cand = weights[e] + best[u]
                    if cand > best[v]:
                        best[v] = cand
    return best
