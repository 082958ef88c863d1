"""Seeded generators for the benchmark's network families.

Each generator takes a ``layout`` and a ``seed`` and returns
``(doc, walk_cap)``: ``doc`` is a network file in the CLI's JSON format and
``walk_cap`` is ``None`` except for the cyclic family, which the CLI
rejects and the benchmark builds through the library.

The layout fixes the shape: level sizes, which links are BPR, where
portals sit and which nodes the OD pairs join. The seed scales every cost
parameter and demand by its own factor within +-1 % and shuffles the order
in which each level lists its edges. Iterations to a relative-gap target
then differ by one or two from seed to seed. On larger instances of these
families a new layout per seed moved them by up to a factor of three and
+-5 % jitter by up to 40 %, while the benchmark's run-to-run spread has to
stay well below its regression bounds. So the seed only perturbs. Layouts
other than 0 are the held-out instances.

``shrink=True`` gives a miniature of the same family whose routes the
path-enumeration oracle can list in full.
"""

from __future__ import annotations

import random

# Relative duality-gap target per workload. The benchmark turns it into the
# absolute ``gap_tol`` the solver config takes, once, from the dual value
# at free-flow times.
REL_GAP = {
    "grid-distinct": 1e-6,
    "grid-shared-dest": 1e-5,
    "bpr-corridor": 1e-6,
    "cyclic-grid": 1e-5,
}

# Iteration cap, several times what any workload needed when this was written,
# so that a slower-converging change shows as time rather than as exit 1.
MAX_ITERS = 1000

_JITTER = 0.01


class _Draw:
    """Random streams: ``shape`` from the layout, ``value`` from the seed."""

    def __init__(self, layout: int, seed: int) -> None:
        self.shape = random.Random(layout)
        self.value = random.Random(seed)

    def param(self, lo: float, hi: float) -> float:
        """A value drawn from [lo, hi] by the layout, perturbed by the seed;
        ``param(1.0, 1.0)`` is the seed's factor alone."""
        return self.shape.uniform(lo, hi) * (1.0 + _JITTER * (2.0 * self.value.random() - 1.0))

    def shuffled(self, items: list) -> list:
        items = list(items)
        self.value.shuffle(items)
        return items


def _node(i: int, j: int) -> str:
    return f"r{i}c{j}"


def _cost(draw: _Draw, power: bool, scale: float, cap: float) -> dict:
    t0 = scale * draw.param(0.8, 1.2)
    if power:
        return {"type": "power", "t0": t0, "beta": 0.15, "cap": cap * draw.param(0.8, 1.2),
                "mu": 4.0}
    return {"type": "affine", "a": t0, "b": scale * draw.param(0.05, 0.15) / cap}


def _grid_level(
    draw: _Draw,
    size: tuple[int, int],
    scale: float,
    cap: float,
    portals: int,
    od_pairs: list[dict],
    level_number: int,
) -> dict:
    """Grid DAG (edges right and down), 30 % of its links BPR, plus
    ``portals`` diagonal express edges; portal ``p`` binds OD ``p`` of the
    next level."""
    rows, cols = size
    nodes = [_node(i, j) for i in range(rows) for j in range(cols)]
    links = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                links.append((_node(i, j), _node(i, j + 1)))
            if i + 1 < rows:
                links.append((_node(i, j), _node(i + 1, j)))
    power = set(draw.shape.sample(range(len(links)), round(0.3 * len(links))))
    edges = [
        {"id": f"e{pos}", "from": tail, "to": head, "kind": "plain",
         "cost": _cost(draw, pos in power, scale, cap)}
        for pos, (tail, head) in enumerate(links)
    ]
    cells = [(i, j) for i in range(rows - 1) for j in range(cols - 1)]
    for p, (i, j) in enumerate(draw.shape.sample(cells, portals)):
        edges.append({"id": f"x{p}", "from": _node(i, j), "to": _node(i + 1, j + 1),
                      "kind": "portal", "target_od": {"level": level_number + 1, "od": p}})
    return {"nodes": nodes, "edges": draw.shuffled(edges), "od_pairs": od_pairs}


def _spanned_pairs(
    draw: _Draw, size: tuple[int, int], count: int, span: int, demand: float | None
) -> list[dict]:
    """``count`` OD pairs with distinct destinations, each origin ``span``
    grid steps up and left of its destination."""
    rows, cols = size
    dests = [(i, j) for i in range(rows) for j in range(cols) if i + j >= span]
    pairs = []
    for di, dj in draw.shape.sample(dests, count):
        a = draw.shape.randint(max(0, span - dj), min(span, di))
        pair = {"origin": _node(di - a, dj - (span - a)), "destination": _node(di, dj)}
        if demand is not None:
            pair["demand"] = demand * draw.param(1.0, 1.0)
        pairs.append(pair)
    return pairs


# Total level-1 demand of grid-distinct. grid-shared-dest gets half of it,
# which keeps its solve, already doubled by the L2 diagnostic, short: its
# flow converges on two destination corners, and the full total needs 23
# iterations against 16.
_GRID_DEMAND = 15.0


def grid_distinct(layout: int, seed: int, shrink: bool = False) -> tuple[dict, None]:
    """Three grid levels; every level-1 OD has its own destination."""
    draw = _Draw(layout, seed)
    if shrink:
        sizes, ods, spans, portals = [(3, 3), (3, 3), (2, 2)], 2, [3, 2, 1], [2, 1]
    else:
        sizes, ods, spans, portals = [(7, 7), (5, 5), (4, 4)], 16, [6, 4, 3], [8, 4]
    levels = [
        _grid_level(draw, sizes[0], 1.0, 3.0, portals[0],
                    _spanned_pairs(draw, sizes[0], ods, spans[0], _GRID_DEMAND / ods), 1),
        _grid_level(draw, sizes[1], 2.0 / spans[1], 4.0, portals[1],
                    _spanned_pairs(draw, sizes[1], portals[0], spans[1], None), 2),
        _grid_level(draw, sizes[2], 2.0 / spans[2], 4.0, 0,
                    _spanned_pairs(draw, sizes[2], portals[1], spans[2], None), 3),
    ]
    return {"version": 1, "gammas": [0.5, 0.4, 0.3], "levels": levels}, None


def grid_shared_dest(layout: int, seed: int, shrink: bool = False) -> tuple[dict, None]:
    """Two grid levels; many level-1 ODs share a few destinations."""
    draw = _Draw(layout, seed)
    if shrink:
        size, n_dest, per_dest, sub, span, portals = (3, 3), 2, 2, (3, 3), 2, 2
    else:
        size, n_dest, per_dest, sub, span, portals = (7, 7), 2, 20, (5, 5), 4, 8
    rows, cols = size
    corner = [(i, j) for i in range(rows - 2, rows) for j in range(cols - 2, cols)]
    od_pairs = []
    for di, dj in draw.shape.sample(corner, n_dest):
        origins = [(i, j) for i in range(di) for j in range(dj) if (di - i) + (dj - j) >= 2]
        for oi, oj in draw.shape.sample(origins, per_dest):
            od_pairs.append({
                "origin": _node(oi, oj), "destination": _node(di, dj),
                "demand": 0.5 * _GRID_DEMAND / (n_dest * per_dest) * draw.param(1.0, 1.0),
            })
    levels = [
        _grid_level(draw, size, 1.0, 3.0, portals, od_pairs, 1),
        _grid_level(draw, sub, 2.0 / span, 4.0, 0,
                    _spanned_pairs(draw, sub, portals, span, None), 2),
    ]
    return {"version": 1, "gammas": [0.5, 0.4], "levels": levels}, None


def bpr_corridor(layout: int, seed: int, shrink: bool = False) -> tuple[dict, None]:
    """One level: stages of parallel BPR links between consecutive nodes and
    one heavily congested OD, so per-edge cost work dominates and loading
    is cheap."""
    draw = _Draw(layout, seed)
    stages, width = (2, 3) if shrink else (10, 25)
    nodes = [f"s{k}" for k in range(stages + 1)]
    edges = [
        {"id": f"s{k}w{w}", "from": nodes[k], "to": nodes[k + 1], "kind": "plain",
         "cost": {"type": "power", "t0": draw.param(0.8, 1.2), "beta": 0.15,
                  "cap": draw.param(1.0, 2.0), "mu": 4.0}}
        for k in range(stages) for w in range(width)
    ]
    level = {"nodes": nodes, "edges": draw.shuffled(edges),
             "od_pairs": [{"origin": nodes[0], "destination": nodes[-1],
                           "demand": 2.0 * width * draw.param(1.0, 1.0)}]}
    return {"version": 1, "gammas": [1.0], "levels": [level]}, None


def cyclic_grid(layout: int, seed: int, shrink: bool = False) -> tuple[dict, int]:
    """Bidirectional grid (cyclic), loaded through the walk-capped library path.

    The oracle enumerates simple paths while the cyclic loading sums over
    walks, so the shrunken instance uses a temperature small enough that
    any walk with a cycle carries under 1e-15 of an OD's mass.
    """
    draw = _Draw(layout, seed)
    side, n_od, gamma = (3, 2, 0.02) if shrink else (4, 3, 0.5)
    nodes = [_node(i, j) for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                ni, nj = i + di, j + dj
                if 0 <= ni < side and 0 <= nj < side:
                    edges.append({
                        "id": f"e{len(edges)}", "from": _node(i, j), "to": _node(ni, nj),
                        "kind": "plain",
                        "cost": {"type": "affine", "a": draw.param(0.8, 1.2),
                                 "b": draw.param(0.05, 0.15)},
                    })
    corners = [(0, 0), (0, side - 1), (side - 1, 0), (side - 1, side - 1)]
    od_pairs = [
        {"origin": _node(oi, oj), "destination": _node(side - 1 - oi, side - 1 - oj),
         "demand": 4.0 * draw.param(1.0, 1.0)}
        for oi, oj in draw.shape.sample(corners, n_od)
    ]
    level = {"nodes": nodes, "edges": draw.shuffled(edges), "od_pairs": od_pairs}
    return {"version": 1, "gammas": [gamma], "levels": [level]}, 100_000


GENERATORS = {
    "grid-distinct": grid_distinct,
    "grid-shared-dest": grid_shared_dest,
    "bpr-corridor": bpr_corridor,
    "cyclic-grid": cyclic_grid,
}


def describe(doc: dict) -> dict[str, float]:
    """Input descriptors: sizes, and how many level-1 ODs share a destination."""
    levels = doc["levels"]
    plain = [e for level in levels for e in level["edges"] if e["kind"] == "plain"]
    top = levels[0]["od_pairs"]
    return {
        "input.levels": len(levels),
        "input.nodes": sum(len(level["nodes"]) for level in levels),
        "input.plain_edges": len(plain),
        "input.power_edges": sum(1 for e in plain if e["cost"]["type"] == "power"),
        "input.ods": sum(len(level["od_pairs"]) for level in levels),
        "input.dests": len({od["destination"] for od in top}),
        "input.od_per_dest": len(top) / len({od["destination"] for od in top}),
    }
