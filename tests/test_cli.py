"""File format, command behaviour, exit codes, and output determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sueflow
from sueflow import AffineCost, ConstantCost, ODPair, ODRef, PowerCost, loading, solver
from sueflow.cli import ParseError, load_config, load_times, main, network_from_dict, parse_network

from conftest import FIXTURES, hierarchies, network_doc, parallel_net, random_hierarchy


def run_cli(*args):
    return main([str(a) for a in args])


class TestParseNetwork:
    def test_two_edge_fixture(self):
        net = parse_network(FIXTURES / "two_edge.json")
        assert net.num_levels == 1
        assert len(net.levels[0].od_pairs) == 1
        assert net.levels[0].od_pairs[0].demand == 1.0
        costs = net.plain_costs()
        assert costs == [AffineCost(1.0, 1.0), AffineCost(2.0, 1.0)]

    def test_two_level_fixture(self):
        net = parse_network(FIXTURES / "two_level.json")
        assert net.num_levels == 2
        assert isinstance(net.plain_costs()[1], PowerCost)
        gate = net.levels[0].edges[2]
        assert gate.is_portal and gate.target_od.level == 1 and gate.target_od.od == 0
        # Field by field against the file's contents.
        assert net.gammas == (1.0, 0.8)
        top, sub = net.levels
        assert top.nodes == ("o", "m", "d") and sub.nodes == ("u", "v", "w")
        assert [(e.id, e.tail, e.head) for e in top.edges] == [
            ("p1", "o", "m"), ("p2", "o", "m"), ("gate", "m", "d"), ("direct", "o", "d"),
        ]
        assert [(e.id, e.tail, e.head) for e in sub.edges] == [
            ("q1", "u", "w"), ("q2", "u", "v"), ("q3", "v", "w"),
        ]
        assert [e.cost for e in top.edges] == [
            AffineCost(1.0, 1.0), PowerCost(1.0, 0.15, 2.0, 4.0), None, AffineCost(2.5, 0.5),
        ]
        assert [e.cost for e in sub.edges] == [
            AffineCost(0.5, 1.0), ConstantCost(0.4), AffineCost(0.3, 0.8),
        ]
        assert [e.target_od for e in top.edges] == [None, None, ODRef(1, 0), None]
        assert all(e.target_od is None for e in sub.edges)
        assert top.od_pairs == (ODPair("o", "d", 2.0),)
        assert sub.od_pairs == (ODPair("u", "w", None),)

    def test_demand_below_level_one_rejected(self, tmp_path):
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        doc["levels"][1]["od_pairs"][0]["demand"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="induced by portal flow"):
            parse_network(bad)

    def test_unknown_cost_type_rejected(self, tmp_path):
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        doc["levels"][0]["edges"][0]["cost"] = {"type": "quartic", "t0": 1.0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown cost type"):
            parse_network(bad)

    def test_unknown_keys_rejected(self, tmp_path):
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        doc["walk_limit"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown keys"):
            parse_network(bad)

    def test_bad_version_rejected(self, tmp_path):
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        doc["version"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unsupported version"):
            parse_network(bad)

    def test_invalid_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ParseError, match="line 2"):
            parse_network(bad)

    def test_validation_failure_reported(self, tmp_path):
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        doc["levels"][0]["od_pairs"][0]["demand"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="BadDemand"):
            parse_network(bad)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.L0 == 1.0 and solver._MAX_BACKTRACKS == 60

    def test_reads_values(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"L0": 2.0, "max_iters": 10, "gap_tol": 1e-6}')
        cfg = load_config(p)
        assert cfg.L0 == 2.0 and cfg.max_iters == 10 and cfg.gap_tol == 1e-6

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"step_size": 2.0}')
        with pytest.raises(ParseError, match="unknown keys"):
            load_config(p)

    def test_retired_backtrack_key_rejected(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text('{"max_backtracks_per_iter": 0}')
        with pytest.raises(ParseError, match="unknown keys"):
            load_config(p)
        out = tmp_path / "out"
        network = FIXTURES / "two_level.json"
        assert run_cli("solve", "--network", network, "--config", p, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {p}: unknown keys ['max_backtracks_per_iter']\n"
        assert not out.exists()

    def test_type_check(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"max_iters": 2.5}')
        with pytest.raises(ParseError, match="integer"):
            load_config(p)


class TestTimesFile:
    def test_reads_canonical_order(self):
        net = parse_network(FIXTURES / "two_level.json")
        t = load_times(FIXTURES / "two_level_times.json", net)
        assert t == [1.1, 1.05, 2.6, 0.55, 0.4, 0.35]

    def test_missing_edge_rejected(self, tmp_path):
        net = parse_network(FIXTURES / "two_level.json")
        doc = json.loads((FIXTURES / "two_level_times.json").read_text())
        del doc["times"][0]["p1"]
        p = tmp_path / "t.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="missing time"):
            load_times(p, net)

    def test_unknown_edge_rejected(self, tmp_path):
        net = parse_network(FIXTURES / "two_level.json")
        doc = json.loads((FIXTURES / "two_level_times.json").read_text())
        doc["times"][0]["gate"] = 1.0  # portal edges carry no time
        p = tmp_path / "t.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown or portal"):
            load_times(p, net)


class TestValidateCommand:
    def test_valid_network(self, capsys):
        assert run_cli("validate", "--network", FIXTURES / "two_edge.json") == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_violations_reported(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        doc["levels"][0]["edges"][0]["to"] = "nowhere"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--network", bad) == 2
        out = capsys.readouterr().out
        assert "UnknownEndpoint" in out

    def test_demand_below_level_one_is_a_violation(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        doc["levels"][1]["od_pairs"][0]["demand"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--network", bad) == 2
        out = capsys.readouterr().out
        assert out.startswith("[DemandAtUpperLevel] levels[1].od_pairs[0]: "), out

    def test_demands_summing_past_the_float_range_are_a_violation(self, tmp_path, capsys):
        # Two level-1 OD pairs of demand 1e308 meet on m -> d, whose flow
        # would overflow to inf.
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        od = doc["levels"][0]["od_pairs"][0]
        od["demand"] = 1e308
        doc["levels"][0]["od_pairs"].append({"origin": "m", "destination": "d", "demand": 1e308})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--network", bad) == 2
        out = capsys.readouterr().out
        assert out == (
            "[DemandSumOverflow] levels[0].od_pairs: level-1 demands sum past the largest float\n"
        )
        doc["levels"][0]["od_pairs"][1]["demand"] = 7e307
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--network", bad) == 0

    def test_missing_file(self, capsys):
        assert run_cli("validate", "--network", "/no/such/file.json") == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli("validate", "--network", bad) == 2


class TestLoadCommand:
    def test_symmetric_two_edge(self, tmp_path):
        doc = {
            "version": 1,
            "gammas": [1.0],
            "levels": [
                {
                    "nodes": ["o", "d"],
                    "edges": [
                        {"id": "e1", "from": "o", "to": "d", "kind": "plain",
                         "cost": {"type": "affine", "a": 1.0, "b": 1.0}},
                        {"id": "e2", "from": "o", "to": "d", "kind": "plain",
                         "cost": {"type": "affine", "a": 1.0, "b": 1.0}},
                    ],
                    "od_pairs": [{"origin": "o", "destination": "d", "demand": 4.0}],
                }
            ],
        }
        netfile = tmp_path / "net.json"
        netfile.write_text(json.dumps(doc))
        tfile = tmp_path / "t.json"
        tfile.write_text('{"version": 1, "times": [{"e1": 5.0, "e2": 5.0}]}')
        out = tmp_path / "out"
        assert run_cli("load", "--network", netfile, "--t-file", tfile, "--out", out) == 0
        rows = (out / "flows.csv").read_text().splitlines()
        assert rows[1] == "level,edge_id,flow,time"
        assert rows[2] == "1,e1,2,5" and rows[3] == "1,e2,2,5"

    def test_below_free_flow_accepted(self, tmp_path):
        tfile = tmp_path / "t.json"
        tfile.write_text('{"version": 1, "times": [{"e1": 0.5, "e2": 0.2}]}')
        out = tmp_path / "out"
        code = run_cli(
            "load", "--network", FIXTURES / "two_edge.json", "--t-file", tfile, "--out", out
        )
        assert code == 0

    def test_golden_two_level(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "load",
            "--network", FIXTURES / "two_level.json",
            "--t-file", FIXTURES / "two_level_times.json",
            "--out", out,
        )
        assert code == 0
        produced = (out / "flows.csv").read_text().splitlines()[1:]
        golden = (FIXTURES / "two_level_load_golden.csv").read_text().splitlines()
        assert produced == golden

    def test_missing_time_gives_exit_2(self, tmp_path, capsys):
        tfile = tmp_path / "t.json"
        tfile.write_text('{"version": 1, "times": [{"e1": 1.0}]}')
        out = tmp_path / "out"
        code = run_cli(
            "load", "--network", FIXTURES / "two_edge.json", "--t-file", tfile, "--out", out
        )
        assert code == 2

    def test_loading_error_gives_exit_3(self, tmp_path, capsys):
        # Each time is finite, but the route o -> m -> d costs 2e308, which
        # overflows to inf: the loading reports the overflow, not a missing path.
        doc = {
            "version": 1,
            "gammas": [1.0],
            "levels": [
                {
                    "nodes": ["o", "m", "d"],
                    "edges": [
                        {"id": "om", "from": "o", "to": "m", "kind": "plain",
                         "cost": {"type": "affine", "a": 1.0, "b": 1.0}},
                        {"id": "md", "from": "m", "to": "d", "kind": "plain",
                         "cost": {"type": "affine", "a": 1.0, "b": 1.0}},
                    ],
                    "od_pairs": [{"origin": "o", "destination": "d", "demand": 1.0}],
                }
            ],
        }
        netfile = tmp_path / "net.json"
        netfile.write_text(json.dumps(doc))
        tfile = tmp_path / "t.json"
        tfile.write_text('{"version": 1, "times": [{"om": 1e308, "md": 1e308}]}')
        out = tmp_path / "out"
        assert run_cli("load", "--network", netfile, "--t-file", tfile, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'o' -> 'd'" in err
        assert not (out / "flows.csv").exists()

    def test_smooth_value_overflow_gives_exit_3(self, tmp_path, capsys):
        # The trip cost o -> d is finite, near 1e308; twice it, the demand
        # times the cost, is not.
        tfile = tmp_path / "t.json"
        tfile.write_text(json.dumps({"version": 1, "times": [
            {"p1": 1e308, "p2": 1e308, "direct": 1e308}, {"q1": 1.0, "q2": 1.0, "q3": 1.0}]}))
        out = tmp_path / "out"
        code = run_cli("load", "--network", FIXTURES / "two_level.json", "--t-file", tfile,
                       "--out", out)
        assert code == 3
        assert capsys.readouterr().err == "error: the smooth dual value overflows to -inf\n"
        assert not out.exists()

    def test_nan_trip_cost_gives_exit_3(self, tmp_path, capsys):
        # Times near -1e308 on both routes of u -> w: their soft-min
        # subtracts infinities, so the trip cost is NaN.
        tfile = tmp_path / "t.json"
        tfile.write_text(json.dumps({"version": 1, "times": [
            {"p1": -1e308, "p2": -1e308, "direct": -1e308},
            {"q1": -1e308, "q2": -1e308, "q3": -1e308}]}))
        out = tmp_path / "out"
        code = run_cli("load", "--network", FIXTURES / "two_level.json", "--t-file", tfile,
                       "--out", out)
        assert code == 3
        assert capsys.readouterr().err == "error: the trip cost 'u' -> 'w' at level 2 is nan\n"
        assert not out.exists()

    def test_t_file_required(self, tmp_path):
        assert (
            run_cli("load", "--network", FIXTURES / "two_edge.json", "--out", tmp_path / "o")
            == 2
        )


class TestSolveCommand:
    def test_two_edge_reaches_tolerance(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gap_tol": 1e-8, "max_iters": 50000}')
        out = tmp_path / "out"
        code = run_cli(
            "solve", "--network", FIXTURES / "two_edge.json", "--config", cfg, "--out", out
        )
        assert code == 0
        rows = (out / "flows.csv").read_text().splitlines()[2:]
        flows = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
        assert flows["e1"] == pytest.approx(0.6626, abs=1e-3)
        assert flows["e2"] == pytest.approx(0.3374, abs=1e-3)
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["gap"] <= 1e-8
        assert cert["L2_diagnostic"] == pytest.approx(1.0)

    def test_certificate_is_strict_json(self, tmp_path):
        # 1/gamma overflows, so the L2 bound is inf, which JSON cannot hold
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        doc["gammas"] = [1e-309]
        network = tmp_path / "net.json"
        network.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("solve", "--network", network, "--out", out) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        cert = json.loads((out / "certificate.json").read_text(), parse_constant=reject)
        assert cert["L2_diagnostic"] is None
        assert cert["stop"] == "gap_reached"

    def test_iteration_cap_gives_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gap_tol": 1e-8, "max_iters": 1}')
        out = tmp_path / "out"
        code = run_cli(
            "solve", "--network", FIXTURES / "two_edge.json", "--config", cfg, "--out", out
        )
        assert code == 1
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 3  # manifest, header, one record

    @pytest.mark.parametrize(
        "config, code, stop",
        [
            ('{"gap_tol": 1e-8}', 0, "gap_reached"),
            ('{"gap_tol": 0, "max_iters": 1000}', 1, "roundoff"),
            ('{"gap_tol": 1e-8, "max_iters": 2}', 1, "iteration_cap"),
        ],
    )
    def test_certificate_says_why_it_stopped(self, tmp_path, config, code, stop):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--network", FIXTURES / "two_level.json", "--config", cfg, "--out", out
        ) == code
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["stop"] == stop
        # Deterministic fields only: no wall-clock data.
        assert set(cert) == {
            "manifest", "dual_value", "primal_value", "gap", "T", "stop", "primal_point",
            "L2_diagnostic",
        }

    def test_vanishing_gammas_stop_at_the_cap(self, tmp_path):
        # At gamma 1e-300 every exponent but each node's best underflows.
        # The best term is exp(0) = 1, so a node's choice never sums to 0.
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        doc["gammas"] = [1e-300, 1e-300]
        network = tmp_path / "net.json"
        network.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_iters": 50}')
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("solve", "--network", network, "--config", cfg, "--out", out)
        assert code == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["stop"] == "iteration_cap"
        assert math.isfinite(cert["gap"])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_huge_gammas_stop_at_roundoff(self, tmp_path):
        # At gamma 1e12 the primal value is near 3.2e12, so the default
        # absolute gap_tol of 1e-8 lies below its round-off: an honest exit 1.
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        doc["gammas"] = [1e12, 1e12]
        network = tmp_path / "net.json"
        network.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("solve", "--network", network, "--out", out) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert (cert["stop"], cert["T"]) == ("roundoff", 3)
        assert math.isfinite(cert["gap"])

    def test_vanishing_L0_reaches_the_gap(self, tmp_path):
        # 4 * L0**2 underflowed to 0 in the step weight's old form, which
        # ended in a ZeroDivisionError; the products alpha * L stay finite.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L0": 1e-300}')
        out = tmp_path / "out"
        network = FIXTURES / "two_level.json"
        assert run_cli("solve", "--network", network, "--config", cfg, "--out", out) == 0
        assert json.loads((out / "certificate.json").read_text())["stop"] == "gap_reached"

    def test_L0_near_the_largest_float_reaches_the_gap(self, tmp_path):
        # Each iteration halves L at most once, so this takes about 1030.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L0": 1e308}')
        out = tmp_path / "out"
        network = FIXTURES / "two_level.json"
        assert run_cli("solve", "--network", network, "--config", cfg, "--out", out) == 0
        assert json.loads((out / "certificate.json").read_text())["stop"] == "gap_reached"

    @pytest.mark.parametrize("L0", [1e-310, 5e-324])
    def test_L0_whose_step_overflows_gives_exit_2(self, tmp_path, capsys, L0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L0": L0}))
        out = tmp_path / "out"
        network = FIXTURES / "two_level.json"
        assert run_cli("solve", "--network", network, "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: L0 must be finite and positive, and so must 1/L0, got {L0!r}\n"
        )
        assert not out.exists()

    def test_small_L0_costs_few_oracle_calls(self, tmp_path):
        # A rejected trial jumps to the curvature it measured.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L0": 1e-6}')
        out = tmp_path / "out"
        network = FIXTURES / "two_level.json"
        assert run_cli("solve", "--network", network, "--config", cfg, "--out", out) == 0
        assert json.loads((out / "certificate.json").read_text())["stop"] == "gap_reached"
        last = (out / "history.csv").read_text().splitlines()[-1]
        assert int(last.split(",")[2]) <= 30

    def test_tiny_capacity_reaches_the_gap(self, tmp_path):
        # Far above cap 1e-100 a cost integral overflows; that candidate
        # never certifies (TestOverflowingRuns has the library side).
        network = TestOverflowingRuns.network(tmp_path, cap=1e-100)
        out = tmp_path / "out"
        assert run_cli("solve", "--network", network, "--out", out) == 0
        assert json.loads((out / "certificate.json").read_text())["stop"] == "gap_reached"

    def test_outputs_match_the_library_solve(self, tmp_path):
        out = tmp_path / "out"
        network = FIXTURES / "two_level.json"
        assert run_cli("solve", "--network", network, "--out", out) == 0
        _, cert, history = sueflow.solve(parse_network(network))
        doc = json.loads((out / "certificate.json").read_text())
        assert (doc["primal_point"], doc["primal_value"], doc["T"]) == (
            cert.primal_point, cert.primal_value, cert.T
        )
        lines = (out / "history.csv").read_text().splitlines()[1:]
        assert lines[0] == "iter,L_used,n_func_evals,dual_value,gap,alpha,A"
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(r[0]), float(r[5]), float(r[6])) for r in rows] == [
            (rec.iter, rec.alpha, rec.A) for rec in history
        ]

    def test_malformed_network_gives_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("solve", "--network", bad, "--out", tmp_path / "o") == 2

    def test_backtrack_failure_gives_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L0": 1e-9}')
        out = tmp_path / "out"
        code = run_cli(
            "solve", "--network", FIXTURES / "two_edge.json", "--config", cfg, "--out", out
        )
        assert code == 3

    def test_prox_failure_gives_exit_3(self, tmp_path, monkeypatch, capsys):
        from sueflow import costs

        monkeypatch.setattr(costs, "_ROOT_ITERS", 1)
        out = tmp_path / "out"
        assert run_cli("solve", "--network", FIXTURES / "two_level.json", "--out", out) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gap_tol": 1e-6, "max_iters": 5000}')
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "solve",
                "--network", FIXTURES / "two_level.json",
                "--config", cfg,
                "--out", out,
            )
            outputs.append(
                {
                    f.name: (out / f.name).read_bytes()
                    for f in out.iterdir()
                }
            )
        a, b = outputs
        assert set(a) == {"flows.csv", "certificate.json", "history.csv"}
        for name in a:
            # manifests embed the output directory, which differs by design
            stripped_a = a[name].split(b"\n", 1)[-1] if name.endswith(".csv") else a[name]
            stripped_b = b[name].split(b"\n", 1)[-1] if name.endswith(".csv") else b[name]
            if name == "certificate.json":
                doc_a = json.loads(stripped_a)
                doc_b = json.loads(stripped_b)
                doc_a.pop("manifest")
                doc_b.pop("manifest")
                assert doc_a == doc_b
            else:
                assert stripped_a == stripped_b



class TestCyclicNetwork:
    """A cyclic level is ordinary input. ``cyclic_grid.json`` is a
    bidirectional 3x3 grid at gamma 0.5; ``cyclic_grid_divergent.json`` is
    the same grid at gamma 50, where the walk sum to each destination
    diverges already at free-flow times."""

    CYCLIC = FIXTURES / "cyclic_grid.json"
    DIVERGENT = FIXTURES / "cyclic_grid_divergent.json"
    DIVERGES = "error: the walk sum to destination 'r2c2' diverges at level 1\n"

    @pytest.mark.parametrize("network", [CYCLIC, DIVERGENT], ids=["cyclic", "divergent"])
    def test_validate_checks_structure_only(self, capsys, network):
        assert parse_network(network).levels[0].index.topo is None
        assert run_cli("validate", "--network", network) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_solve_reaches_the_gap(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("solve", "--network", self.CYCLIC, "--out", out) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["stop"] == "gap_reached"
        # No walk length bounds a route on a cyclic level, so no a-priori bound.
        assert cert["L2_diagnostic"] is None
        _, lib, _ = sueflow.solve(parse_network(self.CYCLIC))
        assert (cert["primal_point"], cert["primal_value"], cert["gap"], cert["T"]) == (
            lib.primal_point, lib.primal_value, lib.gap, lib.T
        )

    def test_divergent_solve_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("solve", "--network", self.DIVERGENT, "--out", out) == 3
        err = capsys.readouterr().err
        assert err == self.DIVERGES and "Traceback" not in err
        assert not (out / "flows.csv").exists()

    def test_load_at_free_flow(self, tmp_path):
        net = parse_network(self.CYCLIC)
        free = {e.id: e.cost.free_flow_time for e in net.levels[0].edges}
        tfile = tmp_path / "t.json"
        tfile.write_text(json.dumps({"version": 1, "times": [free]}))
        out = tmp_path / "out"
        assert run_cli("load", "--network", self.CYCLIC, "--t-file", tfile, "--out", out) == 0
        rows = [row.split(",") for row in (out / "flows.csv").read_text().splitlines()[2:]]
        assert [(level, edge_id) for level, edge_id, _, _ in rows] == [
            ("1", e.id) for e in net.levels[0].edges
        ]
        flows = [float(flow) for _, _, flow, _ in rows]
        result = loading.network_loading(net, net.free_flow_times())
        assert flows == result.flows[0]
        loading.verify_conservation(net, dataclasses.replace(result, flows=[flows]))

    def test_divergent_load_exits_3(self, tmp_path, capsys):
        net = parse_network(self.DIVERGENT)
        free = {e.id: e.cost.free_flow_time for e in net.levels[0].edges}
        tfile = tmp_path / "t.json"
        tfile.write_text(json.dumps({"version": 1, "times": [free]}))
        out = tmp_path / "out"
        assert run_cli("load", "--network", self.DIVERGENT, "--t-file", tfile, "--out", out) == 3
        err = capsys.readouterr().err
        assert err == self.DIVERGES and "Traceback" not in err
        assert not (out / "flows.csv").exists()


NONFINITE_CASES = [
    ("cost", ("validate", "load", "solve"), "$.levels[0].edges[0].cost: cost parameter 'a'"),
    ("demand", ("validate", "load", "solve"), "$.levels[0].od_pairs[0].demand"),
    ("gamma", ("validate", "load", "solve"), "$.gammas[0]"),
    ("times", ("load",), "t.json:times[0].e2"),
    ("config", ("solve",), "cfg.json:L0"),
]


class TestOverflowingRuns:
    """Numbers that overflow inside a solve end in an honest stop: no numpy
    warning, and no non-finite certificate."""

    @staticmethod
    def network(tmp_path, cap=2.0, demand=2.0, costs=None):
        """``two_level.json`` with power cost ``p2``'s ``cap``, the level-1
        demand and the level-1 cost parameters of ``costs`` (edge id ->
        parameters) set."""
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        edges = {e["id"]: e for e in doc["levels"][0]["edges"]}
        edges["p2"]["cost"]["cap"] = cap
        for edge_id, params in (costs or {}).items():
            edges[edge_id]["cost"].update(params)
        doc["levels"][0]["od_pairs"][0]["demand"] = demand
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("cap", [1e-100, 1e-300])
    def test_tiny_capacity_reaches_the_gap(self, tmp_path, cap):
        # A loading far above the cap has an infinite cost integral. That
        # primal candidate is never chosen, and its gap never stops the run.
        net = parse_network(self.network(tmp_path, cap=cap))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, cert, _ = sueflow.solve(net)
        assert cert.stop == "gap_reached"
        assert math.isfinite(cert.gap)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_infinite_gap_exits_3_before_writing(self, tmp_path, capsys):
        # At demand 1e100 and L0 1e100 no primal candidate ever has a
        # finite value, so every gap is inf up to the iteration cap.
        for edits, config, T in (
            ({"cap": 1e-100}, '{"max_iters": 50}', 50),
            ({"demand": 1e100}, '{"L0": 1e100, "max_iters": 200}', 200),
        ):
            network = self.network(tmp_path, **edits)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            out = tmp_path / f"out{T}"
            assert run_cli("solve", "--network", network, "--config", cfg, "--out", out) == 3
            assert f"error: the duality gap is inf at T {T}" in capsys.readouterr().err
            assert not out.exists()

    def test_huge_demand_exits_3_without_a_warning(self, tmp_path, capsys):
        # The step's dot products overflow; the secant is then no number and
        # each rejection doubles L until the budget runs out. At demand 1e100
        # the secant is finite but small, so each rejection only doubles L
        # too, and 60 doublings fall short of the 1e99 the step needs.
        for demand in (1e300, 1e100):
            out = tmp_path / f"out{demand:g}"
            network = self.network(tmp_path, demand=demand)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli("solve", "--network", network, "--out", out)
            assert code == 3
            assert capsys.readouterr().err == (
                "error: no acceptable local Lipschitz estimate within 60 backtracks"
                " at iteration 0\n"
            )
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert not out.exists()

    @pytest.mark.parametrize("edits, error", [
        # The first trial's prox (step 1) overflows in Newton's bounds.
        pytest.param({"demand": 1e193, "costs": {"p2": {"beta": 1e-116}}},
                     r"the prox at step 1\.0 is not finite for 1 of 6 plain edges",
                     id="huge-demand-tiny-beta"),
        # A mirror step near 1.9e300, and a cost integral of 0 * inf.
        pytest.param({"costs": {"p2": {"beta": 1e-8, "cap": 1e-199, "mu": 1e117}}},
                     r"the prox at step 1\.9\d*e\+300 is not finite for 1 of 6 plain edges",
                     id="tiny-cap-huge-mu-tiny-beta"),
        # A step near 3.9e307, where the averaged flows overflow too.
        pytest.param({"cap": 1e-199, "costs": {"p2": {"mu": 1e110}}},
                     r"the prox at step 3\.9\d*e\+307 is not finite for 1 of 6 plain edges",
                     id="tiny-cap-huge-mu"),
        # The compiled slope c*mu/s overflows, and later the step weight.
        pytest.param({"cap": 1e-199, "costs": {"p2": {"mu": 1e110, "beta": 1.0}}},
                     "the prox step overflows to inf", id="overflowing-slope"),
    ])
    def test_prox_without_a_finite_answer_exits_3(self, tmp_path, capsys, edits, error):
        # Valid networks whose power-cost prox has no finite answer in
        # floats: the prox raises naming its step, where a NaN time once
        # reached the loading and ended in a traceback.
        network = self.network(tmp_path, **edits)
        assert run_cli("validate", "--network", network) == 0
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("solve", "--network", network, "--out", out)
        assert code == 3
        assert re.fullmatch(f"error: {error}\n", capsys.readouterr().err)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_overflowing_conjugate_still_reaches_the_gap(self, tmp_path):
        # direct's free-flow time of 1e170: two accepted points have a
        # conjugate past the float range, so an infinite dual value, and
        # the run goes on to its gap.
        network = self.network(tmp_path, cap=10.0, demand=10.0,
                               costs={"direct": {"a": 1e170}})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("solve", "--network", network, "--out", out)
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        cert = json.loads((out / "certificate.json").read_text())
        assert (cert["stop"], cert["T"]) == ("gap_reached", 24)
        assert math.isfinite(cert["gap"])
        history = (out / "history.csv").read_text().splitlines()[2:]
        assert sum(1 for row in history if row.split(",")[3] == "inf") == 2

    def test_trial_past_the_float_range_is_rejected(self, tmp_path):
        # grad / L0 passes the float range: the trial is rejected unevaluated
        # and L doubles, where an infinite time once reached the loading.
        network = self.network(tmp_path, demand=1000.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L0": 1e-306}')
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("solve", "--network", network, "--config", cfg, "--out", out)
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        cert = json.loads((out / "certificate.json").read_text())
        assert (cert["stop"], cert["T"]) == ("gap_reached", 1494)

    @pytest.mark.parametrize("demand, config, error", [
        # Rejected trials past the float range use up the backtrack budget.
        pytest.param(1.6741756718849347e190, {"L0": 3.0964573719113523e-288},
                     "no acceptable local Lipschitz estimate within 60 backtracks at iteration 0",
                     id="trial"),
        # The mirror step, which no test can reject, passes the float range.
        pytest.param(1.9151248243076568e42, {"L0": 7.550111067711041e-275, "max_iters": 200},
                     "the mirror step leaves the float range at iteration 1", id="mirror"),
    ])
    def test_step_past_the_float_range_exits_3(self, tmp_path, capsys, demand, config, error):
        network = self.network(tmp_path, demand=demand)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("solve", "--network", network, "--config", cfg, "--out", out)
        assert code == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("costs, demand, config, error", [
        # Far above cap, tau overflows to +inf and Newton's step falls to
        # -inf: a time of -inf once reached the loading and ended in a
        # traceback with exit 1.
        pytest.param([PowerCost(1.0, 1e-150, 1.0, 3.0)], 1e126, {},
                     "the prox at step 8.112963841460668e+31 is not finite for 1 of 1 plain edges",
                     id="newton-to-minus-inf"),
        pytest.param([PowerCost(1.0, 1e-272, 1.0, 3.0)], 1e126, {},
                     "the prox at step 1.0 is not finite for 1 of 1 plain edges",
                     id="newton-to-minus-inf-at-step-1"),
        # L halves below 1/max float, so the step weight is inf: inf * 0 on
        # the edge without flow once printed a numpy warning.
        pytest.param([AffineCost(1.0, 1.0), PowerCost(1.0, 8.2e178, 1.0, 4.0)], 1.0,
                     {"L0": 1e-300, "max_iters": 200}, "the prox step overflows to inf",
                     id="infinite-step-weight"),
    ])
    def test_one_level_overflow_exits_3(self, tmp_path, capsys, costs, demand, config, error):
        network = tmp_path / "net.json"
        network.write_text(json.dumps(network_doc(parallel_net(costs, demand=demand))))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("solve", "--network", network, "--config", cfg, "--out", out)
        assert code == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_integral_coefficient_past_the_float_range_exits_0(self, tmp_path):
        # c*s of the power cost passes the float range, but its integral
        # c/(mu + 1) * f * (f/s)**mu does not. Formed as c*s/(mu + 1) first,
        # it read every gap as inf, exit 3 at T 50, and once printed a numpy
        # warning.
        costs = [AffineCost(1.0, 1.0), PowerCost(1e9, 1.0, 1e300, 4.0)]
        network = tmp_path / "net.json"
        network.write_text(json.dumps(network_doc(parallel_net(costs))))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_iters": 50}')
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("solve", "--network", network, "--config", cfg, "--out", out)
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["stop"] == "gap_reached"
        assert math.isfinite(cert["gap"]) and cert["gap"] <= 1e-8


def _two_level_inputs():
    """Names of the inputs of ``two_level.json`` that the contract test
    draws: both gammas at once, the level-1 demand, each cost parameter as
    ``edge.param``, and the config's ``L0`` and ``gap_tol``."""
    doc = json.loads((FIXTURES / "two_level.json").read_text())
    params = [
        f"{edge['id']}.{param}"
        for level in doc["levels"] for edge in level["edges"] if edge["kind"] == "plain"
        for param in edge["cost"] if param != "type"
    ]
    return ["gammas", "demand", *params, "L0", "gap_tol"]


@st.composite
def _hierarchy_edits(draw):
    """A ``hierarchies`` draw in file form, and one or two of its inputs
    to change: all gammas, the level-1 demand, one cost parameter as
    ``(level, edge, param)``, ``L0`` or ``gap_tol``, each to a value drawn
    log-uniformly from 1e-300 to 1e300."""
    doc = network_doc(draw(hierarchies(), label="hierarchy")[0])
    params = [
        (k, i, param)
        for k, level in enumerate(doc["levels"]) for i, edge in enumerate(level["edges"])
        if edge["kind"] == "plain" for param in edge["cost"] if param != "type"
    ]
    edits = draw(st.lists(
        st.tuples(st.sampled_from(["gammas", "demand", *params, "L0", "gap_tol"]),
                  st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
        min_size=1, max_size=2, unique_by=lambda edit: edit[0],
    ), label="edits")
    return doc, edits


class TestRunContract:
    """Whatever its input, ``sueflow solve`` exits 0 with ``gap_reached``, 1
    with a finite certificate, 2 or 3 with an ``error:`` line, and never
    raises or prints a numpy warning."""

    @staticmethod
    def run(edits, tmp):
        """``solve`` on ``two_level.json`` at ``max_iters`` 200 with ``edits``
        (input name, value) applied; a cost's ``mu`` is set to 1 plus the
        value. Returns the exit code, stderr and the certificate, if any."""
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        costs = {e["id"]: e["cost"] for level in doc["levels"] for e in level["edges"]
                 if e["kind"] == "plain"}
        config = {"max_iters": 200}
        for name, value in edits:
            if name == "gammas":
                doc["gammas"] = [value, value]
            elif name == "demand":
                doc["levels"][0]["od_pairs"][0]["demand"] = value
            elif name in ("L0", "gap_tol"):
                config[name] = value
            else:
                edge, param = name.split(".")
                costs[edge][param] = 1.0 + value if param == "mu" else value
        (tmp / "net.json").write_text(json.dumps(doc))
        (tmp / "cfg.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("solve", "--network", tmp / "net.json", "--config", tmp / "cfg.json",
                           "--out", tmp / "out")
        path = tmp / "out" / "certificate.json"
        return code, err.getvalue(), json.loads(path.read_text()) if path.exists() else None

    @given(edits=st.lists(
        st.tuples(st.sampled_from(_two_level_inputs()),
                  st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
        min_size=1, max_size=2, unique_by=lambda edit: edit[0],
    ))
    # The three rows where a trial point or a mirror step left the float range.
    @example(edits=[("demand", 1000.0), ("L0", 1e-306)])
    @example(edits=[("demand", 1.6741756718849347e190), ("L0", 3.0964573719113523e-288)])
    @example(edits=[("demand", 1.9151248243076568e42), ("L0", 7.550111067711041e-275)])
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_every_input_ends_in_an_allowed_outcome(self, edits):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err, cert = self.run(edits, Path(tmp))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            assert cert["stop"] == "gap_reached"
        elif code == 1:
            assert all(math.isfinite(cert[key]) for key in ("dual_value", "primal_value", "gap"))
        elif code == 3:
            assert re.fullmatch("error: [^\n]+\n", err), err
        else:
            assert code == 2, code

    def test_network_doc_round_trips(self):
        for seed in range(300):
            net, _ = random_hierarchy(seed)
            parsed = network_from_dict(json.loads(json.dumps(network_doc(net))))
            assert (parsed.levels, parsed.gammas) == (net.levels, net.gammas)

    @given(case=_hierarchy_edits())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_every_random_hierarchy_ends_in_an_allowed_outcome(self, case):
        # As on two_level.json, with a cost's mu set to 1 plus the value.
        doc, edits = case
        config = {"max_iters": 200}
        for name, value in edits:
            if name == "gammas":
                doc["gammas"] = [value] * len(doc["gammas"])
            elif name == "demand":
                doc["levels"][0]["od_pairs"][0]["demand"] = value
            elif name in ("L0", "gap_tol"):
                config[name] = value
            else:
                k, i, param = name
                cost = doc["levels"][k]["edges"][i]["cost"]
                cost[param] = 1.0 + value if param == "mu" else value
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tmp = Path(tmp)
            (tmp / "net.json").write_text(json.dumps(doc))
            (tmp / "cfg.json").write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli("solve", "--network", tmp / "net.json", "--config",
                               tmp / "cfg.json", "--out", tmp / "out")
            path = tmp / "out" / "certificate.json"
            cert = json.loads(path.read_text()) if path.exists() else None
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            assert cert["stop"] == "gap_reached"
        elif code == 1:
            assert all(math.isfinite(cert[key]) for key in ("dual_value", "primal_value", "gap"))
        elif code == 3:
            assert re.fullmatch("error: [^\n]+\n", err.getvalue()), err.getvalue()
        else:
            assert code == 2, code


class TestNonFiniteInput:
    """json.loads accepts NaN, Infinity and integers beyond the float range;
    every command must reject them."""

    @staticmethod
    def check_exit_2(tmp_path, capsys, case, commands, where, value):
        """Run ``commands`` with ``value`` at the place ``case`` names."""
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        times = {"version": 1, "times": [{"e1": 1.0, "e2": 2.0}]}
        config = {"max_iters": 5}
        if case == "cost":
            doc["levels"][0]["edges"][0]["cost"]["a"] = value
        elif case == "demand":
            doc["levels"][0]["od_pairs"][0]["demand"] = value
        elif case == "gamma":
            doc["gammas"] = [value]
        elif case == "times":
            times["times"][0]["e2"] = value
        else:
            config["L0"] = value
        paths = {"net": tmp_path / "net.json", "t": tmp_path / "t.json", "cfg": tmp_path / "cfg.json"}
        for name, obj in (("net", doc), ("t", times), ("cfg", config)):
            paths[name].write_text(json.dumps(obj))  # writes NaN / Infinity literals
        extra = {
            "validate": [],
            "load": ["--t-file", paths["t"], "--out", tmp_path / "out"],
            "solve": ["--config", paths["cfg"], "--out", tmp_path / "out"],
        }
        for command in commands:
            assert run_cli(command, "--network", paths["net"], *extra[command]) == 2
            err = capsys.readouterr().err
            assert where in err and "finite number" in err, err

    @pytest.mark.parametrize("case, commands, where", NONFINITE_CASES)
    def test_exit_2_naming_the_value(self, tmp_path, capsys, case, commands, where):
        value = {"cost": math.nan, "times": -math.inf, "config": math.nan}.get(case, math.inf)
        self.check_exit_2(tmp_path, capsys, case, commands, where, value)

    @pytest.mark.parametrize("case, commands, where", NONFINITE_CASES)
    def test_integer_beyond_the_float_range(self, tmp_path, capsys, case, commands, where):
        # math.isfinite raises OverflowError on such an integer
        self.check_exit_2(tmp_path, capsys, case, commands, where, 10**400)


DROP = object()  # marks a key that an edit removes
E0 = ("levels", 0, "edges", 0)
E1 = ("levels", 0, "edges", 1)
GATE = ("levels", 0, "edges", 2)
OD0 = ("levels", 0, "od_pairs", 0)

# Edits of two_level.json, each with the exact message of its first offence.
MALFORMED = {
    "doc-not-object": (None, "$: expected an object, got list"),
    "doc-unknown-key": ([(("walk_limit",), 5)], "$: unknown keys ['walk_limit']"),
    "doc-missing-keys": (
        [(("gammas",), DROP), (("version",), DROP)], "$: missing keys ['version', 'gammas']"),
    "version": ([(("version",), 2)], "$.version: unsupported version 2"),
    "gammas-empty": ([(("gammas",), [])], "$.gammas: expected a non-empty list"),
    "gamma-bool": ([(("gammas", 1), True)], "$.gammas[1]: expected a finite number, got True"),
    "levels-not-list": ([(("levels",), {})], "$.levels: expected a non-empty list"),
    "level-not-object": ([(("levels", 1), [])], "$.levels[1]: expected an object, got list"),
    "level-unknown-key": (
        [(("levels", 1, "walk_limit"), 3)], "$.levels[1]: unknown keys ['walk_limit']"),
    "nodes-not-list": ([(("levels", 0, "nodes"), "omd")], "$.levels[0].nodes: expected a list"),
    "node-not-string": (
        [(("levels", 1, "nodes", 2), 7)], "$.levels[1].nodes[2]: expected a string, got 7"),
    "edges-not-list": ([(("levels", 0, "edges"), None)], "$.levels[0].edges: expected a list"),
    "edge-not-object": ([(E1, 5)], "$.levels[0].edges[1]: expected an object, got int"),
    "edge-unknown-key": ([(E0 + ("speed",), 1)], "$.levels[0].edges[0]: unknown keys ['speed']"),
    "edge-missing-keys": (
        [(E0 + ("kind",), DROP), (E0 + ("from",), DROP)],
        "$.levels[0].edges[0]: missing keys ['from', 'kind']"),
    "edge-unknown-before-missing": (
        [(E0 + ("speed",), 1), (E0 + ("to",), DROP)],
        "$.levels[0].edges[0]: unknown keys ['speed']"),
    "edge-id-not-string": (
        [(E0 + ("id",), 1)], "$.levels[0].edges[0].id: expected a string, got 1"),
    "edge-from-not-string": (
        [(E0 + ("from",), None)], "$.levels[0].edges[0].from: expected a string, got None"),
    "edge-to-not-string": (
        [(E0 + ("to",), ["m"])], "$.levels[0].edges[0].to: expected a string, got ['m']"),
    "edge-kind-not-string": (
        [(E0 + ("kind",), 2)], "$.levels[0].edges[0].kind: expected a string, got 2"),
    "edge-kind-before-id": (
        [(E0 + ("id",), 1), (E0 + ("kind",), False)],
        "$.levels[0].edges[0].kind: expected a string, got False"),
    "cost-type-unhashable": (
        [(E0 + ("cost", "type"), ["affine"])],
        "$.levels[0].edges[0].cost: unknown cost type ['affine']"),
    "demand-beyond-float-range": (
        [(OD0 + ("demand",), 10**400)],
        f"$.levels[0].od_pairs[0].demand: expected a finite number, got {10**400}"),
    "edge-unknown-kind": (
        [(E0 + ("kind",), "bridge")], "$.levels[0].edges[0].kind: unknown edge kind 'bridge'"),
    "plain-without-cost": (
        [(E0 + ("cost",), DROP)],
        "$.levels[0].edges[0]: plain edges carry 'cost' and no 'target_od'"),
    "plain-with-target": (
        [(E0 + ("target_od",), {"level": 2, "od": 0})],
        "$.levels[0].edges[0]: plain edges carry 'cost' and no 'target_od'"),
    "portal-with-cost": (
        [(GATE + ("cost",), {"type": "constant", "t0": 1.0})],
        "$.levels[0].edges[2]: portal edges carry 'target_od' and no 'cost'"),
    "portal-without-target": (
        [(GATE + ("target_od",), DROP)],
        "$.levels[0].edges[2]: portal edges carry 'target_od' and no 'cost'"),
    "target-not-object": (
        [(GATE + ("target_od",), [2, 0])],
        "$.levels[0].edges[2].target_od: expected an object, got list"),
    "target-unknown-key": (
        [(GATE + ("target_od", "edge"), "q1")],
        "$.levels[0].edges[2].target_od: unknown keys ['edge']"),
    "target-level-zero": (
        [(GATE + ("target_od", "level"), 0)],
        "$.levels[0].edges[2].target_od.level: expected a 1-based level, got 0"),
    "target-level-bool": (
        [(GATE + ("target_od", "level"), True)],
        "$.levels[0].edges[2].target_od.level: expected a 1-based level, got True"),
    "target-level-float": (
        [(GATE + ("target_od", "level"), 2.0)],
        "$.levels[0].edges[2].target_od.level: expected a 1-based level, got 2.0"),
    "target-od-negative": (
        [(GATE + ("target_od", "od"), -1)],
        "$.levels[0].edges[2].target_od.od: expected a 0-based index, got -1"),
    "target-od-string": (
        [(GATE + ("target_od", "od"), "0")],
        "$.levels[0].edges[2].target_od.od: expected a 0-based index, got '0'"),
    "cost-not-object": (
        [(E0 + ("cost",), [1.0, 1.0])],
        "$.levels[0].edges[0].cost: cost must be an object, got list"),
    "cost-unknown-type": (
        [(E0 + ("cost", "type"), "quartic")],
        "$.levels[0].edges[0].cost: unknown cost type 'quartic'"),
    "cost-missing-type": (
        [(E0 + ("cost", "type"), DROP)], "$.levels[0].edges[0].cost: unknown cost type None"),
    "cost-unknown-key": (
        [(E0 + ("cost", "c"), 1.0)],
        "$.levels[0].edges[0].cost: unknown cost keys ['c'] for type 'affine'"),
    "cost-missing-keys": (
        [(E1 + ("cost", "mu"), DROP), (E1 + ("cost", "beta"), DROP)],
        "$.levels[0].edges[1].cost: missing cost keys ['beta', 'mu'] for type 'power'"),
    "cost-param-bool": (
        [(E0 + ("cost", "a"), True)],
        "$.levels[0].edges[0].cost: cost parameter 'a' must be a finite number, got True"),
    "cost-param-nan": (
        [(E1 + ("cost", "cap"), math.nan)],
        "$.levels[0].edges[1].cost: cost parameter 'cap' must be a finite number, got nan"),
    "cost-param-inf": (
        [(("levels", 1, "edges", 1, "cost", "t0"), math.inf)],
        "$.levels[1].edges[1].cost: cost parameter 't0' must be a finite number, got inf"),
    "cost-param-string": (
        [(E0 + ("cost", "b"), "1")],
        "$.levels[0].edges[0].cost: cost parameter 'b' must be a finite number, got '1'"),
    "cost-first-bad-param": (
        [(E1 + ("cost", "mu"), math.nan), (E1 + ("cost", "beta"), False)],
        "$.levels[0].edges[1].cost: cost parameter 'beta' must be a finite number, got False"),
    "cost-out-of-range": (
        [(E0 + ("cost", "b"), 0)],
        "$.levels[0].edges[0].cost: affine cost requires finite b > 0, got 0.0"),
    "od-pairs-not-list": (
        [(("levels", 0, "od_pairs"), {})], "$.levels[0].od_pairs: expected a list"),
    "od-not-object": ([(OD0, "o->d")], "$.levels[0].od_pairs[0]: expected an object, got str"),
    "od-unknown-key": (
        [(OD0 + ("weight",), 1)], "$.levels[0].od_pairs[0]: unknown keys ['weight']"),
    "od-missing-key": (
        [(OD0 + ("destination",), DROP)],
        "$.levels[0].od_pairs[0]: missing keys ['destination']"),
    "origin-not-string": (
        [(OD0 + ("origin",), 0)], "$.levels[0].od_pairs[0].origin: expected a string, got 0"),
    "demand-bool": (
        [(OD0 + ("demand",), True)],
        "$.levels[0].od_pairs[0].demand: expected a finite number, got True"),
    "demand-nan": (
        [(OD0 + ("demand",), math.nan)],
        "$.levels[0].od_pairs[0].demand: expected a finite number, got nan"),
    "demand-inf": (
        [(OD0 + ("demand",), -math.inf)],
        "$.levels[0].od_pairs[0].demand: expected a finite number, got -inf"),
    "demand-before-origin": (
        [(OD0 + ("origin",), 0), (OD0 + ("demand",), math.nan)],
        "$.levels[0].od_pairs[0].demand: expected a finite number, got nan"),
    "edges-before-od-pairs": (
        [(OD0 + ("origin",), 0), (E1 + ("cost", "t0"), -1.0)],
        "$.levels[0].edges[1].cost: power cost requires finite t0 > 0, got -1.0"),
    "level-0-before-level-1": (
        [(("levels", 1, "nodes", 0), None), (OD0 + ("demand",), "2")],
        "$.levels[0].od_pairs[0].demand: expected a finite number, got '2'"),
}


class TestMalformedNetwork:
    """Each malformed branch of the network parser: its first offence's exact
    message, from the library and from ``validate`` and ``solve`` (exit 2)."""

    @staticmethod
    def edited(edits):
        doc = json.loads((FIXTURES / "two_level.json").read_text())
        if edits is None:
            return []
        for path, value in edits:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        return doc

    @pytest.mark.parametrize("edits, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_first_offence_is_reported(self, tmp_path, capsys, edits, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.edited(edits)))  # writes NaN / Infinity literals
        with pytest.raises(ParseError) as err:
            parse_network(bad)
        assert str(err.value) == message
        for command in ("validate", "solve"):
            extra = ["--out", tmp_path / "out"] if command == "solve" else []
            assert run_cli(command, "--network", bad, *extra) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int conversion limit"
    )
    def test_integer_literal_past_the_conversion_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer literal longer than the interpreter's conversion limit
        bad = tmp_path / "bad.json"
        doc = self.edited([(OD0 + ("demand",), "BIG")])
        bad.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * 5000))
        message = f"{bad}: invalid JSON: Exceeds the limit"
        with pytest.raises(ParseError) as err:
            parse_network(bad)
        assert str(err.value).startswith(message)
        for command in ("validate", "solve"):
            extra = ["--out", tmp_path / "out"] if command == "solve" else []
            assert run_cli(command, "--network", bad, *extra) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()


class TestUnreadableInput:
    """An input file that cannot be read as UTF-8 JSON is bad input, exit 2."""

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    @pytest.mark.parametrize(
        "command, option",
        [
            ("validate", "--network"),
            ("load", "--network"),
            ("load", "--t-file"),
            ("solve", "--network"),
            ("solve", "--config"),
        ],
    )
    def test_exit_2_naming_the_file(self, tmp_path, capsys, kind, command, option):
        bad = tmp_path / "bad.json"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"version": 1, "\xff": 0}')
        inputs = {"--network": FIXTURES / "two_level.json"}
        if command == "load":
            inputs["--t-file"] = FIXTURES / "two_level_times.json"
        inputs[option] = bad
        args = [arg for pair in inputs.items() for arg in pair]
        if command != "validate":
            args += ["--out", tmp_path / "out"]
        assert run_cli(command, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: "), err
        assert not (tmp_path / "out").exists()


class TestOracleCompareCommand:
    def test_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "oracle-compare" not in capsys.readouterr().out

    def test_cli_does_not_import_the_oracle(self, tmp_path):
        # The path-enumeration oracle is a test-only reference implementation,
        # and numpy is loaded only by solve and by loading cyclic levels:
        # importing the CLI, validating any network and loading a DAG
        # network leave both out.
        env = dict(os.environ, PYTHONPATH=str(Path(sueflow.__file__).parents[1]))
        net, times = FIXTURES / "two_level.json", FIXTURES / "two_level_times.json"
        cyclic = FIXTURES / "cyclic_grid.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gap_tol": 1e-4}')
        code = "\n".join([
            "import sys, sueflow.cli",
            "def loaded():",
            "    return sorted(m for m in ('sueflow.oracle', 'numpy') if m in sys.modules)",
            "assert not loaded(), loaded()",
            f"assert sueflow.cli.main(['validate', '--network', {str(net)!r}]) == 0",
            f"assert sueflow.cli.main(['validate', '--network', {str(cyclic)!r}]) == 0",
            "assert not loaded(), loaded()",
            f"assert sueflow.cli.main(['load', '--network', {str(net)!r}, "
            f"'--t-file', {str(times)!r}, '--out', {str(tmp_path / 'load')!r}]) == 0",
            "assert not loaded(), loaded()",
            f"assert sueflow.cli.main(['solve', '--network', {str(net)!r}, '--config', "
            f"{str(cfg)!r}, '--out', {str(tmp_path / 'solve')!r}]) == 0",
            "assert loaded() == ['numpy'], loaded()",
        ])
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
