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


class LevelIndex:
    """Integer index of one level graph, shared by validation and loading.

    Nodes and edges are numbered by their position in the level. ``topo``
    is a Kahn order of the node positions, or ``None`` when the graph has a
    cycle. ``dests`` lists the distinct OD destinations in order of first
    appearance, and ``dest_slot[j]`` is the position of OD ``j``'s
    destination in it: loading computes one soft-min field per destination.
    The index holds graph facts only; the loading module compiles the
    level's plan from it into the network's layout
    (``NetworkHierarchy.layout``).
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


@dataclass(frozen=True)
class Violation:
    code: str
    path: str
    message: str


class NetworkHierarchy:
    """Immutable level stack with per-level rationality temperatures.

    A level may be cyclic: its loading sums over walks of every length,
    solved exactly, and raises ``LoadingError`` when that sum diverges.
    A network's first loading compiles it once: one plan per level, its
    weight gather and its portal positions, kept by the loading module as
    ``layout``, with where each plain edge and each level's edges sit among
    all levels' edges. ``layout`` is ``None`` until the first loading, and
    validation never reads it.
    ``walk_cap`` is accepted and ignored: ``perfbench/run.py`` still passes
    it, and ROADMAP item 3 removes the keyword together with that call.
    """

    def __init__(
        self,
        levels: list[LevelGraph] | tuple[LevelGraph, ...],
        gammas: list[float] | tuple[float, ...],
        walk_cap: int | None = None,
    ) -> None:
        self.levels: tuple[LevelGraph, ...] = tuple(levels)
        self.gammas: tuple[float, ...] = tuple(float(g) for g in gammas)
        self._plain_order: list[tuple[int, int]] | None = None
        self.layout: object | None = None

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

    return out


# Violation paths, formatted only for a violation.
def _edge_path(k: int, i: int, edge: Edge) -> str:
    return f"levels[{k}].edges[{i}]({edge.id})"


def _od_path(k: int, j: int) -> str:
    return f"levels[{k}].od_pairs[{j}]"

