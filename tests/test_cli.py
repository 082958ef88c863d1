"""File format, command behaviour, exit codes, and output determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sueflow
from sueflow import AffineCost, PowerCost
from sueflow.cli import (
    ParseError,
    load_config,
    load_times,
    main,
    network_from_dict,
    network_to_dict,
    parse_network,
    serialize_network,
)

from conftest import FIXTURES


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
        doc["walk_cap"] = 5
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

    def test_round_trip(self, tmp_path):
        net = parse_network(FIXTURES / "two_level.json")
        out = tmp_path / "copy.json"
        serialize_network(net, out)
        again = parse_network(out)
        assert network_to_dict(again) == network_to_dict(net)
        assert again.gammas == net.gammas

    def test_round_trip_via_dict(self):
        net = parse_network(FIXTURES / "two_edge.json")
        assert network_to_dict(network_from_dict(network_to_dict(net))) == network_to_dict(net)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.L0 == 1.0 and cfg.max_backtracks_per_iter == 60

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
            "manifest", "dual_value", "primal_value", "gap", "T", "stop", "L2_diagnostic"
        }

    def test_malformed_network_gives_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("solve", "--network", bad, "--out", tmp_path / "o") == 2

    def test_backtrack_failure_gives_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L0": 1e-9, "max_backtracks_per_iter": 0}')
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


class TestNonFiniteInput:
    """json.loads accepts NaN and Infinity; every command must reject them."""

    @pytest.mark.parametrize(
        "case, commands, where",
        [
            ("cost", ("validate", "load", "solve"), "$.levels[0].edges[0].cost: cost parameter 'a'"),
            ("demand", ("validate", "load", "solve"), "$.levels[0].od_pairs[0].demand"),
            ("gamma", ("validate", "load", "solve"), "$.gammas[0]"),
            ("times", ("load",), "t.json:times[0].e2"),
            ("config", ("solve",), "cfg.json:L0"),
        ],
    )
    def test_exit_2_naming_the_value(self, tmp_path, capsys, case, commands, where):
        doc = json.loads((FIXTURES / "two_edge.json").read_text())
        times = {"version": 1, "times": [{"e1": 1.0, "e2": 2.0}]}
        config = {"max_iters": 5}
        if case == "cost":
            doc["levels"][0]["edges"][0]["cost"]["a"] = math.nan
        elif case == "demand":
            doc["levels"][0]["od_pairs"][0]["demand"] = math.inf
        elif case == "gamma":
            doc["gammas"] = [math.inf]
        elif case == "times":
            times["times"][0]["e2"] = -math.inf
        else:
            config["L0"] = math.nan
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
        # and numpy is loaded only by solve and by cyclic levels: importing
        # the CLI, validating and loading a DAG network leave both out.
        env = dict(os.environ, PYTHONPATH=str(Path(sueflow.__file__).parents[1]))
        net, times = FIXTURES / "two_level.json", FIXTURES / "two_level_times.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gap_tol": 1e-4}')
        code = "\n".join([
            "import sys, sueflow.cli",
            "def loaded():",
            "    return sorted(m for m in ('sueflow.oracle', 'numpy') if m in sys.modules)",
            "assert not loaded(), loaded()",
            f"assert sueflow.cli.main(['validate', '--network', {str(net)!r}]) == 0",
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
