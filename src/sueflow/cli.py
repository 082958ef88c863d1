"""Command-line front end and the network file format.

Subcommands: ``validate`` checks a network file, ``load`` performs one
network loading at given edge times, ``solve`` runs the equilibrium solver.
Every output file starts with a manifest line tying it to the exact inputs
(paths, content digests, tool version), and all numeric output is written
with 17 significant digits so doubles round-trip losslessly.

Exit codes: 0 success (for ``solve``: gap within tolerance), 1 tolerance
not reached, 2 bad input, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .costs import ProxConvergenceError, cost_from_dict, cost_to_dict
from .loading import LoadingError, network_loading, hierarchical_weights
from .model import (
    Edge,
    LevelGraph,
    NetworkHierarchy,
    ODPair,
    ODRef,
    validate_hierarchy,
)
from .solver import BacktrackBudgetError, SolverConfig, lipschitz_bound_diagnostic, solve

__all__ = ["ParseError", "parse_network", "serialize_network", "load_config", "main"]

_FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; the message carries a path to the offence."""


def _fail(where: str, message: str) -> ParseError:
    return ParseError(f"{where}: {message}")


def _require_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise _fail(where, f"unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise _fail(where, f"missing keys {missing}")


def _number(obj, where: str) -> float:
    # json.loads accepts NaN and Infinity; neither is a valid model value.
    if not isinstance(obj, (int, float)) or isinstance(obj, bool) or not math.isfinite(obj):
        raise _fail(where, f"expected a finite number, got {obj!r}")
    return float(obj)


def _string(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise _fail(where, f"expected a string, got {obj!r}")
    return obj


def _read_json(path: str | Path):
    """The JSON document in ``path``, read as UTF-8; any failure is a ``ParseError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise _fail(str(path), f"cannot read: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise _fail(str(path), f"not UTF-8 text at byte {err.start}") from err
    except json.JSONDecodeError as err:
        raise _fail(str(path), f"invalid JSON at line {err.lineno}, column {err.colno}") from err


def parse_network(path: str | Path) -> NetworkHierarchy:
    """Strict parse of a network file; the result always validates clean."""
    net = network_from_dict(_read_json(path))
    violations = validate_hierarchy(net)
    if violations:
        lines = "; ".join(f"[{v.code}] {v.path}: {v.message}" for v in violations)
        raise _fail(str(path), f"invalid network: {lines}")
    return net


def network_from_dict(doc: dict) -> NetworkHierarchy:
    _require_keys(doc, "$", ("version", "gammas", "levels"))
    version = doc["version"]
    if version != _FORMAT_VERSION:
        raise _fail("$.version", f"unsupported version {version!r}")
    if not isinstance(doc["gammas"], list) or not doc["gammas"]:
        raise _fail("$.gammas", "expected a non-empty list")
    gammas = [_number(g, f"$.gammas[{i}]") for i, g in enumerate(doc["gammas"])]
    if not isinstance(doc["levels"], list) or not doc["levels"]:
        raise _fail("$.levels", "expected a non-empty list")

    levels = []
    for k, node in enumerate(doc["levels"]):
        where = f"$.levels[{k}]"
        _require_keys(node, where, ("nodes", "edges", "od_pairs"))
        if not isinstance(node["nodes"], list):
            raise _fail(f"{where}.nodes", "expected a list")
        nodes = tuple(_string(v, f"{where}.nodes[{i}]") for i, v in enumerate(node["nodes"]))

        edges = []
        if not isinstance(node["edges"], list):
            raise _fail(f"{where}.edges", "expected a list")
        for i, eobj in enumerate(node["edges"]):
            ewhere = f"{where}.edges[{i}]"
            _require_keys(eobj, ewhere, ("id", "from", "to", "kind"), ("cost", "target_od"))
            kind = _string(eobj["kind"], f"{ewhere}.kind")
            eid = _string(eobj["id"], f"{ewhere}.id")
            tail = _string(eobj["from"], f"{ewhere}.from")
            head = _string(eobj["to"], f"{ewhere}.to")
            if kind == "plain":
                if "cost" not in eobj or "target_od" in eobj:
                    raise _fail(ewhere, "plain edges carry 'cost' and no 'target_od'")
                try:
                    cost = cost_from_dict(eobj["cost"])
                except ValueError as err:
                    raise _fail(f"{ewhere}.cost", str(err)) from err
                edges.append(Edge(id=eid, tail=tail, head=head, cost=cost))
            elif kind == "portal":
                if "target_od" not in eobj or "cost" in eobj:
                    raise _fail(ewhere, "portal edges carry 'target_od' and no 'cost'")
                tobj = eobj["target_od"]
                _require_keys(tobj, f"{ewhere}.target_od", ("level", "od"))
                tlevel = tobj["level"]
                tod = tobj["od"]
                if not isinstance(tlevel, int) or isinstance(tlevel, bool) or tlevel < 1:
                    raise _fail(f"{ewhere}.target_od.level", f"expected a 1-based level, got {tlevel!r}")
                if not isinstance(tod, int) or isinstance(tod, bool) or tod < 0:
                    raise _fail(f"{ewhere}.target_od.od", f"expected a 0-based index, got {tod!r}")
                edges.append(
                    Edge(id=eid, tail=tail, head=head, target_od=ODRef(level=tlevel - 1, od=tod))
                )
            else:
                raise _fail(f"{ewhere}.kind", f"unknown edge kind {kind!r}")

        od_pairs = []
        if not isinstance(node["od_pairs"], list):
            raise _fail(f"{where}.od_pairs", "expected a list")
        for j, oobj in enumerate(node["od_pairs"]):
            owhere = f"{where}.od_pairs[{j}]"
            _require_keys(oobj, owhere, ("origin", "destination"), ("demand",))
            demand = None
            if "demand" in oobj:
                if k > 0:
                    raise _fail(
                        f"{owhere}.demand",
                        "demands below level 1 are induced by portal flow, not data",
                    )
                demand = _number(oobj["demand"], f"{owhere}.demand")
            od_pairs.append(
                ODPair(
                    origin=_string(oobj["origin"], f"{owhere}.origin"),
                    destination=_string(oobj["destination"], f"{owhere}.destination"),
                    demand=demand,
                )
            )
        levels.append(LevelGraph(nodes=nodes, edges=tuple(edges), od_pairs=tuple(od_pairs)))
    return NetworkHierarchy(levels=levels, gammas=gammas)


def network_to_dict(net: NetworkHierarchy) -> dict:
    levels = []
    for level in net.levels:
        edges = []
        for e in level.edges:
            if e.is_plain:
                edges.append(
                    {"id": e.id, "from": e.tail, "to": e.head, "kind": "plain",
                     "cost": cost_to_dict(e.cost)}
                )
            else:
                edges.append(
                    {"id": e.id, "from": e.tail, "to": e.head, "kind": "portal",
                     "target_od": {"level": e.target_od.level + 1, "od": e.target_od.od}}
                )
        od_pairs = []
        for od in level.od_pairs:
            obj = {"origin": od.origin, "destination": od.destination}
            if od.demand is not None:
                obj["demand"] = od.demand
            od_pairs.append(obj)
        levels.append({"nodes": list(level.nodes), "edges": edges, "od_pairs": od_pairs})
    return {"version": _FORMAT_VERSION, "gammas": list(net.gammas), "levels": levels}


def serialize_network(net: NetworkHierarchy, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


_CONFIG_KEYS = ("L0", "max_iters", "gap_tol", "max_backtracks_per_iter")


def load_config(path: str | Path | None) -> SolverConfig:
    """Solver settings from JSON; keys mirror SolverConfig, all optional."""
    if path is None:
        return SolverConfig()
    doc = _read_json(path)
    _require_keys(doc, str(path), (), _CONFIG_KEYS)
    kwargs = {}
    for key in _CONFIG_KEYS:
        if key in doc:
            value = doc[key]
            if key in ("max_iters", "max_backtracks_per_iter"):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise _fail(f"{path}:{key}", f"expected an integer, got {value!r}")
                kwargs[key] = value
            else:
                kwargs[key] = _number(value, f"{path}:{key}")
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise _fail(str(path), str(err)) from err


def load_times(path: str | Path, net: NetworkHierarchy) -> list[float]:
    """Edge times from JSON: {"version": 1, "times": [{edge id: value}, ...]}."""
    doc = _read_json(path)
    _require_keys(doc, str(path), ("version", "times"))
    if doc["version"] != _FORMAT_VERSION:
        raise _fail(f"{path}:version", f"unsupported version {doc['version']!r}")
    times = doc["times"]
    if not isinstance(times, list) or len(times) != net.num_levels:
        raise _fail(f"{path}:times", f"expected one object per level ({net.num_levels})")
    per_level = []
    for k, obj in enumerate(times):
        if not isinstance(obj, dict):
            raise _fail(f"{path}:times[{k}]", "expected an object")
        per_level.append({key: _number(v, f"{path}:times[{k}].{key}") for key, v in obj.items()})
    try:
        return net.dual_from_map(per_level)
    except ValueError as err:
        raise _fail(str(path), str(err)) from err


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(command: str, args: argparse.Namespace) -> dict:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "network_path": args.network,
        "out_dir": args.out,
    }
    digests = {"network": _digest(args.network)}
    if getattr(args, "config", None):
        manifest["config_path"] = args.config
        digests["config"] = _digest(args.config)
    if getattr(args, "t_file", None):
        manifest["t_file_path"] = args.t_file
        digests["t_file"] = _digest(args.t_file)
    manifest["input_digests"] = digests
    return manifest


def _manifest_line(manifest: dict) -> str:
    return "# manifest: " + json.dumps(manifest, separators=(", ", ": ")) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_flows(
    path: Path,
    manifest: dict,
    net: NetworkHierarchy,
    flows: list[list[float]],
    times: list[float],
) -> None:
    """Rows for every edge: plain edges show their dual time, portals the
    smoothed trip cost of their subnetwork at the same point."""
    weight_maps = hierarchical_weights(net, times)
    with path.open("w", newline="\n") as fh:
        fh.write(_manifest_line(manifest))
        fh.write("level,edge_id,flow,time\n")
        for k, level in enumerate(net.levels):
            for pos, edge in enumerate(level.edges):
                fh.write(
                    f"{k + 1},{edge.id},{_fmt(flows[k][pos])},{_fmt(weight_maps[k][edge.id])}\n"
                )


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        net = network_from_dict(_read_json(args.network))
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    violations = validate_hierarchy(net)
    if violations:
        for v in violations:
            print(f"[{v.code}] {v.path}: {v.message}")
        return 2
    print("OK")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    try:
        net = parse_network(args.network)
        if args.t_file is None:
            raise _fail("load", "--t-file is required")
        times = load_times(args.t_file, net)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        result = network_loading(net, times)
    except LoadingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_flows(out_dir / "flows.csv", _manifest("load", args), net, result.flows, times)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        net = parse_network(args.network)
        cfg = load_config(args.config)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        t_final, certificate, history = solve(net, cfg)
    except (BacktrackBudgetError, LoadingError, ProxConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    manifest = _manifest("solve", args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_flows(out_dir / "flows.csv", manifest, net, certificate.avg_flows, t_final)

    with (out_dir / "history.csv").open("w", newline="\n") as fh:
        fh.write(_manifest_line(manifest))
        fh.write("iter,L_used,n_func_evals,dual_value,gap\n")
        for rec in history:
            fh.write(
                f"{rec.iter},{_fmt(rec.L_used)},{rec.n_func_evals},"
                f"{_fmt(rec.dual_value)},{_fmt(rec.gap)}\n"
            )

    l2 = lipschitz_bound_diagnostic(net)
    certificate_doc = {
        "manifest": manifest,
        "dual_value": certificate.dual_value,
        "primal_value": certificate.primal_value,
        "gap": certificate.gap,
        "T": certificate.T,
        "stop": certificate.stop,
        # JSON has no Infinity: a bound that overflows is written as null.
        "L2_diagnostic": l2 if math.isfinite(l2) else None,
    }
    with (out_dir / "certificate.json").open("w", newline="\n") as fh:
        json.dump(certificate_doc, fh, indent=2, allow_nan=False)
        fh.write("\n")

    return 0 if certificate.gap <= cfg.gap_tol else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sueflow",
        description="Stochastic-user-equilibrium flows on hierarchical networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute equilibrium flows and a gap certificate")
    p_load = sub.add_parser("load", help="one network loading at given edge times")
    p_validate = sub.add_parser("validate", help="check a network file")

    for p in (p_solve, p_load, p_validate):
        p.add_argument("--network", required=True, help="network JSON file")
    for p in (p_solve, p_load):
        p.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--config", default=None, help="solver config JSON file")
    p_load.add_argument("--t-file", dest="t_file", default=None, help="edge times JSON file")

    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "load":
        return _cmd_load(args)
    return _cmd_solve(args)


if __name__ == "__main__":
    sys.exit(main())
