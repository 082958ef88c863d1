"""Correctness gate: each check raises ``CheckFailed`` with a reason."""

from __future__ import annotations

import csv
import io
import json

from sueflow import oracle
from sueflow.loading import LoadResult, dual_objective, network_loading, verify_conservation

# Relative agreement required between recomputed and reported dual values,
# and between the dynamic-programming loading and path enumeration.
DUAL_RTOL = 1e-9
ORACLE_TOL = 1e-9


class CheckFailed(Exception):
    pass


def read_flows_csv(text: str) -> list[list[tuple[str, float, float]]]:
    """``flows.csv`` rows per level as (edge id, flow, time); manifest skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    per_level: dict[int, list[tuple[str, float, float]]] = {}
    for row in csv.DictReader(io.StringIO("\n".join(lines))):
        per_level.setdefault(int(row["level"]), []).append(
            (row["edge_id"], float(row["flow"]), float(row["time"])))
    return [per_level[k] for k in sorted(per_level)]


def check_cli_outputs(net, files: dict[str, bytes], gap_tol: float) -> None:
    """Gap within target, dual value reproducible from the written times,
    and flow conservation of the written (averaged) flows."""
    cert = json.loads(files["certificate.json"])
    rows = read_flows_csv(files["flows.csv"].decode())
    if len(rows) != net.num_levels:
        raise CheckFailed(f"flows.csv has {len(rows)} levels, network has {net.num_levels}")
    times = []
    flows = []
    for level, level_rows in zip(net.levels, rows):
        if [r[0] for r in level_rows] != [e.id for e in level.edges]:
            raise CheckFailed("flows.csv edge rows do not match the network")
        times.append({eid: t for (eid, _, t), e in zip(level_rows, level.edges) if e.is_plain})
        flows.append([f for _, f, _ in level_rows])
    check_certificate(net, net.dual_from_map(times), flows, cert["dual_value"], cert["gap"],
                      gap_tol)


def check_certificate(net, t_final, avg_flows, dual_value: float, gap: float,
                      gap_tol: float) -> None:
    if not 0.0 <= gap <= gap_tol:
        raise CheckFailed(f"gap {gap!r} outside [0, {gap_tol!r}]")
    recomputed = dual_objective(net, t_final)
    if abs(recomputed - dual_value) > DUAL_RTOL * (1.0 + abs(dual_value)):
        raise CheckFailed(f"dual value {dual_value!r} but {recomputed!r} at the final times")
    demands = [[od.demand for od in net.levels[0].od_pairs]]
    for k in range(net.num_levels - 1):
        portal = {e.target_od.od: pos for pos, e in enumerate(net.levels[k].edges) if e.is_portal}
        demands.append([avg_flows[k][portal[j]] for j in range(len(net.levels[k + 1].od_pairs))])
    averaged = LoadResult(smooth_value=0.0, flows=avg_flows, induced_demands=demands,
                          entropies=[])
    try:
        verify_conservation(net, averaged)
    except AssertionError as err:
        raise CheckFailed(f"averaged flows: {err}") from err


def check_against_oracle(net) -> float:
    """Largest scaled flow deviation of the loading from path enumeration,
    at times 10 % above free flow."""
    t = [1.1 * v for v in net.free_flow_times()]
    result = network_loading(net, t)
    reference, _ = oracle.loading_by_enumeration(net, t)
    worst = 0.0
    for k, level in enumerate(net.levels):
        for pos, edge in enumerate(level.edges):
            ref = reference[k][edge.id]
            worst = max(worst, abs(result.flows[k][pos] - ref) / (1.0 + abs(ref)))
    if worst > ORACLE_TOL:
        raise CheckFailed(f"loading differs from path enumeration by {worst:.3e}")
    return worst
