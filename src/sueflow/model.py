"""Hierarchical network model.

A network is a stack of levels. Each level is a directed graph whose edges
are either *plain* (they carry their own congestion cost) or *portals*: an
edge whose traversal stands for a full origin-destination trip on the next
level down the stack. Portals and next-level OD pairs are in one-to-one
correspondence; the flow on a portal edge becomes the travel demand of its
target OD pair at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .costs import LinkCost

__all__ = [
    "ODRef",
    "ODPair",
    "Edge",
    "LevelGraph",
    "LevelIndex",
    "NetworkHierarchy",
    "Violation",
    "validate_hierarchy",
    "longest_path_bound",
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

        Every edge and OD endpoint must be a node of the level;
        ``validate_hierarchy`` reads the index only once that holds.
        """
        return LevelIndex(self)


class LevelIndex:
    """Integer index of one level graph, shared by validation, route-length
    bounds and loading.

    Nodes and edges are numbered by their position in the level. ``topo``
    is a Kahn order of the node positions, or ``None`` when the graph has a
    cycle.
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
        "portal_for_od",
        "plain_positions",
    )

    def __init__(self, level: LevelGraph) -> None:
        self.nodes = level.nodes
        self.node_index = {v: i for i, v in enumerate(level.nodes)}
        self.n_nodes = len(level.nodes)
        self.tails = [self.node_index[e.tail] for e in level.edges]
        self.heads = [self.node_index[e.head] for e in level.edges]
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
        self.od_nodes = [
            (self.node_index[od.origin], self.node_index[od.destination])
            for od in level.od_pairs
        ]
        self.portal_for_od: dict[int, int] = {}
        for pos, e in enumerate(level.edges):
            if e.is_portal:
                self.portal_for_od[e.target_od.od] = pos
        self.plain_positions = [pos for pos, e in enumerate(level.edges) if e.is_plain]


@dataclass(frozen=True)
class Violation:
    code: str
    path: str
    message: str


class NetworkHierarchy:
    """Immutable level stack with per-level rationality temperatures.

    ``walk_cap`` admits cyclic level graphs; without it every level must be
    a DAG. Loading on a cyclic level sums over all walks, solved exactly,
    and fails when that sum diverges; the cap only bounds the walk length
    that ``longest_path_bound`` measures.
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
        if not g > 0.0:
            out.append(
                Violation("NonpositiveGamma", f"gammas[{k}]", f"gamma must be > 0, got {g}")
            )

    # Per-level structural checks. A level whose endpoints all name its own
    # nodes is compiled; the graph checks below read that index.
    indexes: list[LevelIndex | None] = []
    for k, level in enumerate(net.levels):
        where = f"levels[{k}]"
        nodes = set(level.nodes)
        endpoints_known = True
        if len(nodes) != len(level.nodes):
            out.append(Violation("DuplicateNodeId", f"{where}.nodes", "repeated node id"))
        seen_edge_ids = set()
        for i, edge in enumerate(level.edges):
            epath = f"{where}.edges[{i}]({edge.id})"
            if edge.id in seen_edge_ids:
                out.append(Violation("DuplicateEdgeId", epath, f"edge id {edge.id!r} repeated"))
            seen_edge_ids.add(edge.id)
            if edge.tail == edge.head:
                out.append(Violation("SelfLoop", epath, "self-loops are not allowed"))
            for endpoint in (edge.tail, edge.head):
                if endpoint not in nodes:
                    endpoints_known = False
                    out.append(
                        Violation("UnknownEndpoint", epath, f"node {endpoint!r} not in level")
                    )
            if edge.is_portal:
                if k == m - 1:
                    out.append(
                        Violation("PortalAtLastLevel", epath, "last level admits no portals")
                    )
                else:
                    ref = edge.target_od
                    if ref.level != k + 1:
                        out.append(
                            Violation(
                                "BadPortalTarget",
                                epath,
                                f"portal must target level {k + 2}, got {ref.level + 1}",
                            )
                        )
                    elif not 0 <= ref.od < len(net.levels[k + 1].od_pairs):
                        out.append(
                            Violation(
                                "BadPortalTarget",
                                epath,
                                f"od index {ref.od} out of range at level {k + 2}",
                            )
                        )
        for j, od in enumerate(level.od_pairs):
            opath = f"{where}.od_pairs[{j}]"
            for endpoint in (od.origin, od.destination):
                if endpoint not in nodes:
                    endpoints_known = False
                    out.append(
                        Violation("UnknownEndpoint", opath, f"node {endpoint!r} not in level")
                    )
            if k == 0:
                if od.demand is None or not od.demand > 0.0:
                    out.append(
                        Violation(
                            "BadDemand", opath, f"level-1 demand must be > 0, got {od.demand}"
                        )
                    )
            elif od.demand is not None:
                out.append(
                    Violation(
                        "DemandAtUpperLevel",
                        opath,
                        "demands below level 1 are induced by portal flow, not data",
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
                        f"levels[{k + 1}].od_pairs[{j}]",
                        f"bound by portals {ids} at level {k + 1}",
                    )
                )
        for j in range(len(net.levels[k + 1].od_pairs)):
            if j not in refs:
                out.append(
                    Violation(
                        "UnboundOD",
                        f"levels[{k + 1}].od_pairs[{j}]",
                        f"no level-{k + 1} portal is bound to this OD pair",
                    )
                )

    # Reachability of every OD on its own level (plain + portal topology).
    for k, index in enumerate(indexes):
        if index is None:
            continue  # endpoints already reported above
        for j, (src, dst) in enumerate(index.od_nodes):
            if not _reaches(index, src, dst):
                od = net.levels[k].od_pairs[j]
                out.append(
                    Violation(
                        "NoPathForOD",
                        f"levels[{k}].od_pairs[{j}]",
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


def _reaches(index: LevelIndex, src: int, dst: int) -> bool:
    stack, seen = [src], {src}
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        for e in index.out_edges[v]:
            u = index.heads[e]
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return False


def longest_path_bound(net: NetworkHierarchy, od_index: int) -> int:
    """Most plain edges any fully expanded route of a level-1 OD can traverse.

    Portal edges contribute the bound of their target OD pair, computed
    bottom-up, so the value equals exhaustive path expansion on DAG levels.
    Cyclic levels are measured over walks of at most ``walk_cap`` edges.
    """
    if not 0 <= od_index < len(net.levels[0].od_pairs):
        raise ValueError(f"no level-1 OD pair with index {od_index}")
    return longest_path_bounds(net)[0][od_index]


def longest_path_bounds(net: NetworkHierarchy) -> list[list[int]]:
    """``longest_path_bound`` of every OD pair of every level, per level,
    in one bottom-up pass that measures each OD pair once."""
    bounds: list[list[int]] = [[] for _ in net.levels]
    for k in range(net.num_levels - 1, -1, -1):
        level = net.levels[k]
        weights = [
            1 if edge.is_plain else bounds[k + 1][edge.target_od.od] for edge in level.edges
        ]
        bounds[k] = [
            _longest_route(level.index, weights, j, net.walk_cap)
            for j in range(len(level.od_pairs))
        ]
    return bounds


def _longest_route(index: LevelIndex, weights: list[int], od: int, walk_cap: int | None) -> int:
    """Largest total weight of a route of OD ``od``; the destination absorbs."""
    src, dst = index.od_nodes[od]
    none = -1
    best = [none] * index.n_nodes
    best[dst] = 0
    if index.topo is not None:
        for v in reversed(index.topo):
            if v == dst:
                continue
            for e in index.out_edges[v]:
                u = index.heads[e]
                if best[u] != none:
                    cand = weights[e] + best[u]
                    if cand > best[v]:
                        best[v] = cand
    else:
        # Longest walk of at most walk_cap edges, max-plus relaxation.
        if walk_cap is None:
            raise ValueError("cyclic level graph requires an explicit walk-length cap")
        for _ in range(walk_cap):
            nxt = list(best)
            for v in range(index.n_nodes):
                if v == dst:
                    continue
                for e in index.out_edges[v]:
                    u = index.heads[e]
                    if best[u] != none:
                        cand = weights[e] + best[u]
                        if cand > nxt[v]:
                            nxt[v] = cand
            best = nxt
    if best[src] == none:
        origin, destination = index.nodes[src], index.nodes[dst]
        raise ValueError(f"no path {origin!r} -> {destination!r}")
    return best[src]
