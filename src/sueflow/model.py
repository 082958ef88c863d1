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
from typing import Iterator, Mapping

from .costs import LinkCost

__all__ = [
    "ODRef",
    "ODPair",
    "Edge",
    "LevelGraph",
    "NetworkHierarchy",
    "Violation",
    "validate_hierarchy",
    "portal_demand_map",
    "longest_path_bound",
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
        self._topologies = None  # built lazily by the loading module

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

    # Per-level structural checks.
    for k, level in enumerate(net.levels):
        where = f"levels[{k}]"
        nodes = set(level.nodes)
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
    for k, level in enumerate(net.levels):
        adjacency: dict[str, list[str]] = {}
        for edge in level.edges:
            adjacency.setdefault(edge.tail, []).append(edge.head)
        for j, od in enumerate(level.od_pairs):
            if od.origin not in set(level.nodes) or od.destination not in set(level.nodes):
                continue  # already reported above
            if not _reaches(adjacency, od.origin, od.destination):
                out.append(
                    Violation(
                        "NoPathForOD",
                        f"levels[{k}].od_pairs[{j}]",
                        f"no path {od.origin!r} -> {od.destination!r}",
                    )
                )

    # Cycles are only admitted under an explicit walk-length cap.
    if net.walk_cap is None:
        for k, level in enumerate(net.levels):
            if _has_cycle(level):
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


def _reaches(adjacency: Mapping[str, list[str]], src: str, dst: str) -> bool:
    stack, seen = [src], {src}
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        for u in adjacency.get(v, ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return False


def _has_cycle(level: LevelGraph) -> bool:
    order = topological_order(level)
    return order is None


def topological_order(level: LevelGraph) -> list[str] | None:
    """Kahn order over node names, or None when the level graph is cyclic."""
    indeg = {v: 0 for v in level.nodes}
    adjacency: dict[str, list[str]] = {v: [] for v in level.nodes}
    for edge in level.edges:
        if edge.tail in indeg and edge.head in indeg:
            adjacency[edge.tail].append(edge.head)
            indeg[edge.head] += 1
    ready = [v for v in level.nodes if indeg[v] == 0]
    order: list[str] = []
    i = 0
    while i < len(ready):
        v = ready[i]
        i += 1
        order.append(v)
        for u in adjacency[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return order if len(order) == len(level.nodes) else None


def portal_demand_map(
    net: NetworkHierarchy, level: int, flows: Mapping[str, float]
) -> dict[int, float]:
    """Demands induced at ``level + 1``: od index -> flow on its binding portal."""
    if not 0 <= level < net.num_levels - 1:
        raise ValueError(f"level {level} has no next level")
    demands: dict[int, float] = {}
    for edge in net.levels[level].edges:
        if not edge.is_portal:
            continue
        if edge.id not in flows:
            raise ValueError(f"missing flow for portal edge {edge.id!r} at level {level + 1}")
        demands[edge.target_od.od] = float(flows[edge.id])
    return demands


def longest_path_bound(net: NetworkHierarchy, od_index: int) -> int:
    """Most plain edges any fully expanded route of a level-1 OD can traverse.

    Portal edges contribute the bound of their target OD pair, computed
    bottom-up, so the value equals exhaustive path expansion on DAG levels.
    Cyclic levels are measured over walks of at most ``walk_cap`` edges.
    """
    if not 0 <= od_index < len(net.levels[0].od_pairs):
        raise ValueError(f"no level-1 OD pair with index {od_index}")
    bounds: list[list[int]] = [[] for _ in net.levels]
    for k in range(net.num_levels - 1, -1, -1):
        level = net.levels[k]
        weights = []
        for edge in level.edges:
            weights.append(1 if edge.is_plain else bounds[k + 1][edge.target_od.od])
        for od in level.od_pairs:
            bounds[k].append(_longest_route(net, level, weights, od))
    return bounds[0][od_index]


def _longest_route(
    net: NetworkHierarchy, level: LevelGraph, weights: list[int], od: ODPair
) -> int:
    node_index = {v: i for i, v in enumerate(level.nodes)}
    out_edges: list[list[tuple[int, int]]] = [[] for _ in level.nodes]
    for i, edge in enumerate(level.edges):
        out_edges[node_index[edge.tail]].append((i, node_index[edge.head]))
    src, dst = node_index[od.origin], node_index[od.destination]
    order = topological_order(level)
    none = -1
    if order is not None:
        best = [none] * len(level.nodes)
        best[dst] = 0
        for name in reversed(order):
            v = node_index[name]
            if v == dst:
                continue
            for e, u in out_edges[v]:
                if best[u] != none:
                    cand = weights[e] + best[u]
                    if cand > best[v]:
                        best[v] = cand
        value = best[src]
    else:
        # Longest walk of at most walk_cap edges, max-plus relaxation.
        if net.walk_cap is None:
            raise ValueError("cyclic level graph requires an explicit walk-length cap")
        best = [none] * len(level.nodes)
        best[dst] = 0
        for _ in range(net.walk_cap):
            nxt = list(best)
            for v in range(len(level.nodes)):
                if v == dst:
                    continue
                for e, u in out_edges[v]:
                    if best[u] != none:
                        cand = weights[e] + best[u]
                        if cand > nxt[v]:
                            nxt[v] = cand
            best = nxt
        value = best[src]
    if value == none:
        raise ValueError(f"no path {od.origin!r} -> {od.destination!r}")
    return value
