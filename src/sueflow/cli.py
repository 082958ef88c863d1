"""Command-line front end and the file formats.

The only module that reads the input files: the network, with its link
costs (``cost_from_dict``), the edge times and the solver config. It
rejects malformed and non-finite values, naming their JSON path, and
leaves the model's rules to ``validate_hierarchy``. Each check formats its
path and message only when it fails (a path is kept as a ``(parent, key)``
pair until then): every run parses a network, nearly always a valid one,
and building the text of errors a valid file never raises took about a
quarter of the parse.

Subcommands: ``validate`` checks a network file, ``load`` performs one
network loading at given edge times, ``solve`` runs the equilibrium solver.
Every output file starts with a manifest line tying it to the exact inputs
(paths, content digests, tool version), and all numeric output is written
with 17 significant digits so doubles round-trip losslessly.

Exit codes: 0 success (for ``solve``: gap within tolerance), 1 tolerance
not reached, 2 bad input, 3 solver failure; ``main`` maps every failure
that a command raises to 2 or 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .costs import AffineCost, ConstantCost, LinkCost, PowerCost, ProxConvergenceError
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

__all__ = ["ParseError", "parse_network", "load_config", "main"]

_FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; the message carries a path to the offence."""


def _render(where) -> str:
    """A JSON path from its lazy form: a string, or a ``(parent, key)`` pair
    whose key is an object key or a list index."""
    if isinstance(where, str):
        return where
    parent, key = where
    return f"{_render(parent)}[{key}]" if isinstance(key, int) else f"{_render(parent)}.{key}"


def _fail(where, message: str) -> ParseError:
    return ParseError(f"{_render(where)}: {message}")


class _Keys(NamedTuple):
    """The keys of one kind of object: ``required`` in the order a message
    lists the missing ones, and the sets that a well-formed object's keys
    lie between."""

    required: tuple[str, ...]
    least: frozenset[str]
    most: frozenset[str]


def _keys(*required: str, optional: tuple[str, ...] = ()) -> _Keys:
    return _Keys(required, frozenset(required), frozenset(required + optional))


def _require_keys(obj, where, keys: _Keys) -> None:
    if isinstance(obj, dict) and keys.least <= obj.keys() <= keys.most:
        return
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object, got {type(obj).__name__}")
    unknown = obj.keys() - keys.most
    if unknown:
        raise _fail(where, f"unknown keys {sorted(unknown)}")
    raise _fail(where, f"missing keys {[k for k in keys.required if k not in obj]}")


def _finite(value) -> bool:
    # json.loads accepts NaN, Infinity and integers beyond the float range,
    # on which math.isfinite raises OverflowError; none is a valid model value.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, parent, key=None) -> float:
    """``value`` as a float; ``parent`` is its path, or with ``key`` its parent's."""
    if not _finite(value):
        where = parent if key is None else (parent, key)
        raise _fail(where, f"expected a finite number, got {value!r}")
    return float(value)


def _string(value, parent, key) -> str:
    if not isinstance(value, str):
        raise _fail((parent, key), f"expected a string, got {value!r}")
    return value


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
    except ValueError as err:  # an integer literal past the int conversion limit
        raise _fail(str(path), f"invalid JSON: {err}") from err


def parse_network(path: str | Path) -> NetworkHierarchy:
    """Strict parse of a network file; the result always validates clean."""
    net = network_from_dict(_read_json(path))
    violations = _violations(net)
    if violations:
        raise _fail(str(path), f"invalid network: {'; '.join(violations)}")
    return net


def _violations(net: NetworkHierarchy) -> list[str]:
    """The model's violations of ``net``, one ``[code] path: message`` each."""
    return [f"[{v.code}] {v.path}: {v.message}" for v in validate_hierarchy(net)]


_DOC_KEYS = _keys("version", "gammas", "levels")
_LEVEL_KEYS = _keys("nodes", "edges", "od_pairs")
_EDGE_KEYS = _keys("id", "from", "to", "kind", optional=("cost", "target_od"))
_TARGET_KEYS = _keys("level", "od")
_OD_KEYS = _keys("origin", "destination", optional=("demand",))


def network_from_dict(doc: dict) -> NetworkHierarchy:
    _require_keys(doc, "$", _DOC_KEYS)
    version = doc["version"]
    if version != _FORMAT_VERSION:
        raise _fail("$.version", f"unsupported version {version!r}")
    if not isinstance(doc["gammas"], list) or not doc["gammas"]:
        raise _fail("$.gammas", "expected a non-empty list")
    gammas = [_number(g, "$.gammas", i) for i, g in enumerate(doc["gammas"])]
    if not isinstance(doc["levels"], list) or not doc["levels"]:
        raise _fail("$.levels", "expected a non-empty list")

    levels = []
    for k, node in enumerate(doc["levels"]):
        where = ("$.levels", k)
        _require_keys(node, where, _LEVEL_KEYS)
        nodes_at = (where, "nodes")
        if not isinstance(node["nodes"], list):
            raise _fail(nodes_at, "expected a list")
        nodes = tuple(_string(v, nodes_at, i) for i, v in enumerate(node["nodes"]))

        edges = []
        edges_at = (where, "edges")
        if not isinstance(node["edges"], list):
            raise _fail(edges_at, "expected a list")
        for i, eobj in enumerate(node["edges"]):
            ewhere = (edges_at, i)
            _require_keys(eobj, ewhere, _EDGE_KEYS)
            kind = _string(eobj["kind"], ewhere, "kind")
            eid = _string(eobj["id"], ewhere, "id")
            tail = _string(eobj["from"], ewhere, "from")
            head = _string(eobj["to"], ewhere, "to")
            if kind == "plain":
                if "cost" not in eobj or "target_od" in eobj:
                    raise _fail(ewhere, "plain edges carry 'cost' and no 'target_od'")
                try:
                    cost = cost_from_dict(eobj["cost"])
                except ValueError as err:
                    raise _fail((ewhere, "cost"), str(err)) from err
                edges.append(Edge(eid, tail, head, cost))
            elif kind == "portal":
                if "target_od" not in eobj or "cost" in eobj:
                    raise _fail(ewhere, "portal edges carry 'target_od' and no 'cost'")
                tobj = eobj["target_od"]
                twhere = (ewhere, "target_od")
                _require_keys(tobj, twhere, _TARGET_KEYS)
                tlevel = tobj["level"]
                tod = tobj["od"]
                if not isinstance(tlevel, int) or isinstance(tlevel, bool) or tlevel < 1:
                    raise _fail((twhere, "level"), f"expected a 1-based level, got {tlevel!r}")
                if not isinstance(tod, int) or isinstance(tod, bool) or tod < 0:
                    raise _fail((twhere, "od"), f"expected a 0-based index, got {tod!r}")
                edges.append(Edge(eid, tail, head, None, ODRef(tlevel - 1, tod)))
            else:
                raise _fail((ewhere, "kind"), f"unknown edge kind {kind!r}")

        od_pairs = []
        ods_at = (where, "od_pairs")
        if not isinstance(node["od_pairs"], list):
            raise _fail(ods_at, "expected a list")
        for j, oobj in enumerate(node["od_pairs"]):
            owhere = (ods_at, j)
            _require_keys(oobj, owhere, _OD_KEYS)
            demand = None
            if "demand" in oobj:
                demand = _number(oobj["demand"], owhere, "demand")
            od_pairs.append(
                ODPair(
                    _string(oobj["origin"], owhere, "origin"),
                    _string(oobj["destination"], owhere, "destination"),
                    demand,
                )
            )
        levels.append(LevelGraph(nodes, tuple(edges), tuple(od_pairs)))
    return NetworkHierarchy(levels, gammas)


# Per cost type: its class, the parameters in the constructor's order, and
# every key of its file form.
_COST_TYPES = {
    kind: (cls, fields, frozenset(("type", *fields)))
    for kind, cls, fields in (
        ("constant", ConstantCost, ("t0",)),
        ("affine", AffineCost, ("a", "b")),
        ("power", PowerCost, ("t0", "beta", "cap", "mu")),
    )
}


def cost_from_dict(obj: dict) -> LinkCost:
    """Build a cost from its file form, rejecting unknown types and keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"cost must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _COST_TYPES:
        raise ValueError(f"unknown cost type {kind!r}")
    cls, fields, keys = _COST_TYPES[kind]
    if obj.keys() != keys:
        extra = obj.keys() - keys
        if extra:
            raise ValueError(f"unknown cost keys {sorted(extra)} for type {kind!r}")
        missing = [k for k in fields if k not in obj]
        raise ValueError(f"missing cost keys {missing} for type {kind!r}")
    params = []
    for k in fields:
        val = obj[k]
        # A finite float, the common case, passes without a call.
        if not (isinstance(val, float) and math.isfinite(val) or _finite(val)):
            raise ValueError(f"cost parameter {k!r} must be a finite number, got {val!r}")
        params.append(float(val))
    return cls(*params)


_CONFIG_KEYS = ("L0", "max_iters", "gap_tol")
_CONFIG_SHAPE = _keys(optional=_CONFIG_KEYS)
_TIMES_KEYS = _keys("version", "times")


def load_config(path: str | Path | None) -> SolverConfig:
    """Solver settings from JSON; keys mirror SolverConfig, all optional."""
    if path is None:
        return SolverConfig()
    doc = _read_json(path)
    _require_keys(doc, str(path), _CONFIG_SHAPE)
    kwargs = {}
    for key in _CONFIG_KEYS:
        if key in doc:
            # SolverConfig checks that max_iters is an integer.
            value = doc[key]
            kwargs[key] = value if key == "max_iters" else _number(value, f"{path}:{key}")
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise _fail(str(path), str(err)) from err


def load_times(path: str | Path, net: NetworkHierarchy) -> list[float]:
    """Edge times from JSON: {"version": 1, "times": [{edge id: value}, ...]}."""
    doc = _read_json(path)
    _require_keys(doc, str(path), _TIMES_KEYS)
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
    violations = _violations(network_from_dict(_read_json(args.network)))
    print("\n".join(violations) or "OK")
    return 2 if violations else 0


def _cmd_load(args: argparse.Namespace) -> int:
    net = parse_network(args.network)
    if args.t_file is None:
        raise _fail("load", "--t-file is required")
    times = load_times(args.t_file, net)
    result = network_loading(net, times)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_flows(out_dir / "flows.csv", _manifest("load", args), net, result.flows, times)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    net = parse_network(args.network)
    cfg = load_config(args.config)
    t_final, certificate, history = solve(net, cfg)
    if not math.isfinite(certificate.gap):
        print(f"error: the duality gap is {certificate.gap} at T {certificate.T}", file=sys.stderr)
        return 3

    manifest = _manifest("solve", args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_flows(out_dir / "flows.csv", manifest, net, certificate.avg_flows, t_final)

    with (out_dir / "history.csv").open("w", newline="\n") as fh:
        fh.write(_manifest_line(manifest))
        fh.write("iter,L_used,n_func_evals,dual_value,gap,alpha,A\n")
        for rec in history:
            fh.write(
                f"{rec.iter},{_fmt(rec.L_used)},{rec.n_func_evals},"
                f"{_fmt(rec.dual_value)},{_fmt(rec.gap)},{_fmt(rec.alpha)},{_fmt(rec.A)}\n"
            )

    l2 = lipschitz_bound_diagnostic(net)
    certificate_doc = {
        "manifest": manifest,
        "dual_value": certificate.dual_value,
        "primal_value": certificate.primal_value,
        "gap": certificate.gap,
        "T": certificate.T,
        "stop": certificate.stop,
        "primal_point": certificate.primal_point,
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
    command = {"validate": _cmd_validate, "load": _cmd_load, "solve": _cmd_solve}[args.command]
    try:
        return command(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (BacktrackBudgetError, LoadingError, ProxConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
