"""The public surface: the names ``sueflow`` exports, the library names that
the benchmark's tracer, ``perfbench/spans.py``, rebinds by name, and the
library calls that the benchmark's driver, ``perfbench/run.py``, makes."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import sueflow
import sueflow.cli  # the tracer rebinds names of the cli module too
from sueflow import costs, loading, model, oracle, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = [
    "__version__",
    "AffineCost",
    "ConstantCost",
    "LinkCost",
    "PowerCost",
    "LoadingError",
    "LoadResult",
    "MassLeakError",
    "NoPathError",
    "dual_objective",
    "dual_smooth_value",
    "hierarchical_weights",
    "network_loading",
    "Edge",
    "LevelGraph",
    "NetworkHierarchy",
    "ODPair",
    "ODRef",
    "Violation",
    "validate_hierarchy",
    "BacktrackBudgetError",
    "GapCertificate",
    "IterationRecord",
    "SolverConfig",
    "lipschitz_bound_diagnostic",
    "solve",
]


class TestPublicNames:
    def test_all_is_the_explicit_list(self):
        assert sueflow.__all__ == PUBLIC
        for name in PUBLIC:
            assert hasattr(sueflow, name), name

    def test_every_module_export_resolves(self):
        for module in (costs, loading, model, oracle, solver):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_removed_names_are_gone(self):
        for name in ("duality_gap", "softmin_potentials"):
            assert not hasattr(sueflow, name)
        assert not hasattr(solver, "duality_gap")
        assert not hasattr(loading, "softmin_potentials")
        for cls in (costs.LinkCost, costs.ConstantCost, costs.AffineCost, costs.PowerCost):
            assert not hasattr(cls, "conjugate_derivative"), cls.__name__
        assert "wall_time" not in {f.name for f in dataclasses.fields(solver.IterationRecord)}
        # Optional fields would let a certificate be built without them.
        for field in dataclasses.fields(solver.GapCertificate):
            assert field.default is dataclasses.MISSING, field.name
        # The loading module compiles and keeps each level's one plan; the
        # model keeps graph facts only.
        for name in ("LevelProgram", "Step", "longest_path_bounds", "_longest_routes"):
            assert not hasattr(model, name), name
            assert name not in model.__all__
        for name in ("program", "cyclic_plan", "_program", "plan", "portal_for_od"):
            assert not hasattr(model.LevelIndex, name), name
        compiled_slots = [
            s for s in model.LevelIndex.__slots__
            if "plan" in s or "program" in s or "portal" in s
        ]
        assert compiled_slots == []
        assert "longest_path_bounds" not in loading.__all__
        # The loading module compiles each network once into one layout:
        # each level's plan, its weight gather and its portal positions, and
        # the solver's plain-edge positions.
        assert not hasattr(loading, "_plan")
        assert not hasattr(model, "WeightGather")
        assert "WeightGather" not in model.__all__
        assert not hasattr(model.NetworkHierarchy, "weight_gathers")
        assert not hasattr(solver, "_plain_positions")
        # ``plain_edge_order`` is computed on each call; its length was
        # ``num_plain_edges``.
        assert not hasattr(model.NetworkHierarchy, "num_plain_edges")
        assert not hasattr(model.NetworkHierarchy([], []), "_plain_order")


def load_perfbench(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, imported from its path unedited."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestTracerPins:
    def test_instrument_rebinds_every_pin_and_restores_it(self, monkeypatch):
        spans = load_perfbench(monkeypatch, "spans")
        pins = [(getattr(sueflow, module), attr) for module, attr, _ in spans.SPAN_TARGETS]
        pins += [
            (cls, attr)
            for cls in (costs.ConstantCost, costs.AffineCost, costs.PowerCost)
            for attr in (*spans.AGGREGATE_METHODS, "travel_time")
        ]
        originals = [owner.__dict__[attr] for owner, attr in pins]
        with spans.instrument(sueflow, spans.Tracer()):
            for (owner, attr), original in zip(pins, originals):
                assert owner.__dict__[attr] is not original, attr
        for (owner, attr), original in zip(pins, originals):
            assert owner.__dict__[attr] is original, attr


class TestBenchmarkCallPins:
    """The calls ``perfbench/run.py`` makes into the library. It builds the
    ``cyclic-grid`` workload as ``NetworkHierarchy(levels, gammas,
    walk_cap=100_000)``; that keyword is accepted and ignored until the
    benchmark stops passing it."""

    def test_walk_cap_is_accepted_and_changes_nothing(self, monkeypatch):
        workloads = load_perfbench(monkeypatch, "workloads")
        doc, walk_cap = workloads.GENERATORS["cyclic-grid"](0, 1)
        assert walk_cap == 100_000
        base = sueflow.cli.network_from_dict(doc)
        fresh = sueflow.cli.network_from_dict(doc)  # its own levels, compiled apart
        capped = sueflow.NetworkHierarchy(fresh.levels, fresh.gammas, walk_cap=walk_cap)
        assert capped.levels[0].index.topo is None  # the level is cyclic
        assert not hasattr(capped, "walk_cap")
        assert sueflow.cli.validate_hierarchy(capped) == sueflow.validate_hierarchy(base) == []
        t = base.free_flow_times()
        a, b = loading.network_loading(base, t), loading.network_loading(capped, t)
        assert repr((a.flows, a.smooth_value, a.entropies)) == repr(
            (b.flows, b.smooth_value, b.entropies)
        )

    def test_driver_calls_resolve(self, monkeypatch, tmp_path):
        workloads = load_perfbench(monkeypatch, "workloads")
        doc, _ = workloads.GENERATORS["grid-distinct"](0, 1)
        path = tmp_path / "network.json"
        path.write_text(json.dumps(doc))
        net = sueflow.cli.parse_network(path)
        assert sueflow.cli.network_from_dict(doc).gammas == net.gammas
        value = loading.dual_objective(net, net.free_flow_times())
        assert math.isfinite(value)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"gap_tol": 1e-6 * abs(value), "max_iters": 1000}))
        assert sueflow.cli.load_config(cfg).L0 == 1.0
        assert sueflow.cli.main(["validate", "--network", str(path)]) == 0
